// The World wires nodes, the simulated network, the naming service and
// clients into one deterministic run, and provides the admin operations
// (split / merge / membership change) and probes that the tests, examples
// and benchmark harnesses drive.
#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/node.h"
#include "obs/trace.h"
#include "kv/kv_machine.h"
#include "kv/service.h"
#include "net/clock.h"
#include "net/transport.h"
#include "shard/shard_map.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/transport.h"
#include "storage/sim_disk.h"
#include "storage/storage.h"
#include "storage/wal_storage.h"

namespace recraft::harness {

inline constexpr NodeId kNamingServiceId = 900;
inline constexpr NodeId kAdminId = 901;
inline constexpr NodeId kFirstClientId = 1000;

/// What backs each node's durable state. Every node runs over a WalStorage
/// on its own SimDisk; the enum has that one value left only because the
/// benchmark sources still name it.
enum class StorageMode {
  kWal,
};

/// What a World is built from. Every world hosts the §V naming service at
/// kNamingServiceId and points every node at it (the World overwrites
/// node.naming_service), and every node gets its own SimDisk.
struct WorldOptions {
  uint64_t seed = 1;
  sim::NetworkOptions net;
  core::Options node;  // template for every node created; if
                       // node.machine_factory is unset the World installs
                       // kv::KvMachineFactory (the default workload)
  StorageMode storage = StorageMode::kWal;
  storage::WalStorage::Options wal;  // every node's WAL
  /// Arm the flight recorder (obs/trace.h): the World binds it to the sim
  /// clock and hands it to the network, every node and every WAL instance.
  /// Null = disarmed. Arming must not change the execution digest.
  obs::Recorder* recorder = nullptr;
};

/// Checked access to the concrete KV store behind a node's machine — for
/// tests, checkers and benches only (the consensus core never downcasts).
const kv::Store& KvStoreOf(const core::Node& n);

/// The DNS-like registry of §V: loosely consistent, assumed always
/// available. Clusters register after reconfigurations; stranded nodes look
/// the directory up to find a peer to pull from.
class NamingService {
 public:
  void HandleRegister(const raft::NamingRegister& reg);
  raft::NamingLookupReply Directory() const;
  size_t size() const { return clusters_.size(); }

 private:
  std::map<ClusterUid, raft::NamingRegister> clusters_;
};

class World {
 public:
  explicit World(WorldOptions opts);
  ~World();

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // --- topology ----------------------------------------------------------
  /// Create a cluster of `n` fresh nodes over `range`. Nodes get the next
  /// free ids. Returns the member ids.
  std::vector<NodeId> CreateCluster(size_t n, KeyRange range = KeyRange::Full());
  /// Create a node that is not yet a member of anything (to be added via a
  /// membership change).
  NodeId CreateSpareNode();

  /// Create `n_shards` clusters of `group_size` nodes tiling the full
  /// key space at `boundaries` (n_shards - 1 keys), wait for their leaders,
  /// and seed the hosted shard map. Returns the shard ids in range order.
  Result<std::vector<shard::ShardId>> BootstrapShards(
      size_t n_shards, size_t group_size,
      const std::vector<std::string>& boundaries,
      Duration timeout = 30 * kSecond);

  /// Wipe a node back to a blank spare (the TC baseline's terminate step:
  /// BootstrapReq with an empty genesis). Used to recycle nodes freed by a
  /// merge before they staff a future split.
  Status WipeNode(NodeId id, Duration timeout = 5 * kSecond);

  /// The authoritative shard map (§V's always-available overlay stand-in):
  /// the placement driver mutates it, routing clients cache copies of it.
  shard::ShardMap& shard_map() { return shard_map_; }
  const shard::ShardMap& shard_map() const { return shard_map_; }

  core::Node& node(NodeId id);
  const core::Node& node(NodeId id) const;
  bool HasNode(NodeId id) const { return nodes_.count(id) > 0; }
  std::vector<NodeId> AllNodeIds() const;

  sim::EventQueue& events() { return events_; }
  sim::Network& net() { return net_; }
  /// The seam views the nodes actually talk through (the sim adapters).
  net::Transport& transport() { return transport_; }
  net::Clock& clock() { return clock_; }
  const WorldOptions& options() const { return opts_; }
  TimePoint now() const { return events_.now(); }
  Rng& rng() { return rng_; }
  const NamingService& naming() const { return naming_; }

  // --- fault injection -----------------------------------------------------
  /// Crash a node: destroy the node object entirely — every byte of
  /// volatile state is gone — applying `spec` to its not-yet-durable writes
  /// (torn tail, partial batch, ...). Its SimDisk survives for Restart; its
  /// WalStorage instance does not. For an id that is not a node (e.g. the
  /// TC cluster manager) this only isolates it on the network.
  Status Crash(NodeId id, const storage::CrashSpec& spec = {});
  /// Rebuild a crashed node purely from its durable medium (WAL replay,
  /// snapshot load, merge-exchange resumption) and rejoin it to the world.
  /// For an id that is not a node this only reconnects it.
  Status Restart(NodeId id);
  bool IsCrashed(NodeId id) const { return net_.IsCrashed(id); }
  /// The node's storage backend (null while the node is crashed).
  storage::Storage* NodeStorage(NodeId id);
  /// The node's durable medium (null for ids that never were nodes).
  /// Survives Crash, so nemeses can keep a latency spike or fsync stall
  /// armed across a reboot.
  storage::SimDisk* NodeDisk(NodeId id);

  /// Override one node's tick interval (clock skew injection: a fast or
  /// slow local clock changes election/heartbeat pacing relative to its
  /// peers). 0 restores WorldOptions::node.tick_interval. Takes effect at
  /// the node's next tick; survives Crash/Restart.
  void SetTickInterval(NodeId id, Duration interval);
  Duration TickIntervalOf(NodeId id) const;

  // --- time control ---------------------------------------------------------
  void RunFor(Duration d) { events_.RunFor(d); }
  bool RunUntil(const std::function<bool()>& pred, Duration timeout);

  // --- probes -----------------------------------------------------------------
  /// The live leader among `members` (kNoNode if none). With several
  /// claimants (stale leaders), the one with the highest epoch-term wins.
  NodeId LeaderOf(const std::vector<NodeId>& members) const;
  bool WaitForLeader(const std::vector<NodeId>& members,
                     Duration timeout = 5 * kSecond);
  /// Current configuration as seen by the (highest-epoch) live member.
  raft::ConfigState ConfigOf(const std::vector<NodeId>& members) const;
  /// True once live node `leader`'s current configuration entry is
  /// committed and applied on a quorum of its members, with no second step
  /// outstanding (no reconfiguration pending, fixed_quorum == 0). Client
  /// entries appended after it do not matter, so this holds under load.
  bool ConfigSettled(NodeId leader) const;

  // --- admin operations (synchronous: run the event loop until done) ---------
  /// Split the cluster owning `members` into groups at split_keys.
  Status AdminSplit(const std::vector<NodeId>& members,
                    const std::vector<std::vector<NodeId>>& groups,
                    const std::vector<std::string>& split_keys,
                    Duration timeout = 10 * kSecond);
  /// Merge the clusters (each given by its current member list); the first
  /// is the coordinator. resume_members optionally resizes at merge.
  Status AdminMerge(const std::vector<std::vector<NodeId>>& clusters,
                    std::vector<NodeId> resume_members = {},
                    Duration timeout = 30 * kSecond);
  Status AdminMemberChange(const std::vector<NodeId>& members,
                           const raft::MemberChange& change,
                           Duration timeout = 10 * kSecond);
  /// Arbitrary membership target using ReCraft ops, chaining removals of
  /// r >= Q_old across steps as §IV-B requires; each step waits for
  /// ConfigSettled. Returns consensus steps taken (for the §VII-E bench) or
  /// an error.
  Result<int> AdminResizeTo(const std::vector<NodeId>& members,
                            const std::vector<NodeId>& target,
                            Duration timeout = 15 * kSecond);

  /// Build a merge draft from the live configurations of `clusters`.
  Result<raft::MergePlan> MakeMergeDraft(
      const std::vector<std::vector<NodeId>>& clusters);

  /// Send a raw client request to a specific node and await the reply.
  Result<raft::ClientReply> Call(NodeId to, raft::ClientBody body,
                                 Duration timeout = 5 * kSecond);

  /// Convenience synchronous KV operations routed to the cluster leader
  /// (retrying NotLeader); used by tests and examples. Get travels through
  /// the log (the legacy read path, schedule-stable for existing tests);
  /// ReadGet / Scan use the leader's ReadIndex path and append nothing.
  Status Put(const std::vector<NodeId>& members, const std::string& key,
             const std::string& value, Duration timeout = 5 * kSecond);
  Result<std::string> Get(const std::vector<NodeId>& members,
                          const std::string& key,
                          Duration timeout = 5 * kSecond);
  Result<std::string> ReadGet(const std::vector<NodeId>& members,
                              const std::string& key,
                              Duration timeout = 5 * kSecond);
  Result<kv::Response> Scan(const std::vector<NodeId>& members,
                            const std::string& lo, const std::string& hi,
                            uint32_t limit, Duration timeout = 5 * kSecond);

  /// Preload a cluster with `n` sequential keys (for the split/merge
  /// latency benches) sized `value_bytes` each.
  Status Preload(const std::vector<NodeId>& members, size_t n,
                 size_t value_bytes, const std::string& prefix = "k");

  uint64_t NextTxId() { return next_tx_id_++; }
  uint64_t NextReqId() { return next_req_id_++; }

  /// One-call failure forensics: per-node role / term / commit / applied /
  /// durable horizon plus network and per-disk counters. Used by the sweep
  /// test failure path and tools so CI failures are self-describing.
  void DumpDiagnostics(std::ostream& os) const;

 private:
  void ScheduleTick(NodeId id);
  void TickNode(NodeId id, uint64_t gen);
  /// Create a fresh storage backend for `id` over its (possibly existing)
  /// disk.
  storage::Storage* MakeStorage(NodeId id);
  void RegisterNodeHandler(NodeId id);
  Result<raft::ClientReply> CallLeader(const std::vector<NodeId>& members,
                                       raft::ClientBody body,
                                       Duration timeout);

  WorldOptions opts_;
  Rng rng_;
  sim::EventQueue events_;
  sim::Network net_;
  // Seam adapters over events_/net_: every node send, delivery and storage
  // timer flows through these, exactly as recraftd flows through
  // UdpTransport/SystemClock. Declared after what they wrap.
  sim::SimClock clock_{&events_};
  sim::SimTransport transport_{&net_};
  NamingService naming_;
  shard::ShardMap shard_map_;
  // Durable media outlive node objects: disks persist for the whole run,
  // keyed by every node id ever created; storages_ holds the live backend
  // per node (a fresh one per boot, so recovery genuinely reparses disk
  // bytes). Declared before nodes_ so nodes (which hold raw Storage
  // pointers) are destroyed first.
  std::map<NodeId, std::shared_ptr<storage::SimDisk>> disks_;
  std::map<NodeId, std::unique_ptr<storage::WalStorage>> storages_;
  std::map<NodeId, std::unique_ptr<core::Node>> nodes_;
  /// Incarnation counter per node: stale tick chains from before a Crash
  /// notice the bump and die off.
  std::map<NodeId, uint64_t> node_gen_;
  /// Per-node tick-interval overrides (clock skew injection).
  std::map<NodeId, Duration> tick_override_;
  NodeId next_node_id_ = 1;
  uint64_t next_tx_id_ = 1;
  uint64_t next_req_id_ = 1;
  std::map<uint64_t, raft::ClientReply> admin_replies_;
};

}  // namespace recraft::harness
