// TC baseline: the TiKV/CockroachDB-style split and merge emulation of
// §VII-B/C, driven by an external Cluster Manager (CM) actor that issues the
// same sequence of steps as the paper's etcd-admin-tool script:
//
//   split:  remove the splitting nodes via membership changes -> snapshot
//           the moving range from the source -> install snapshot + config
//           on the removed nodes and restart them as a new cluster ->
//           shrink the source's range.
//   merge:  snapshot each absorbed cluster -> inject its data into the
//           survivor (consensus bulk-load) -> terminate the absorbed
//           cluster's nodes -> re-add them to the survivor one at a time
//           (each catches up via a leader snapshot).
//
// The CM is a single actor — the single point of failure the paper calls
// out (Table I). An optional standby list emulates a replicated CM: a
// standby adopts and idempotently re-executes the operation when the
// primary dies.
//
// TcRebalancer puts the CM behind the placement driver's Rebalancer seam,
// so the shardplane bench runs the same placement policy over this
// baseline that it runs over native ReCraft.
#pragma once

#include <optional>
#include <set>

#include "harness/world.h"
#include "shard/rebalancer.h"

namespace recraft::tc {

struct SplitOp {
  std::vector<NodeId> source_members;           // current cluster
  std::vector<std::vector<NodeId>> groups;      // [0] stays with the source
  std::vector<KeyRange> ranges;                 // one per group
};

struct MergeOp {
  std::vector<std::vector<NodeId>> clusters;  // [0] survives
  std::vector<KeyRange> ranges;               // one per cluster
};

enum class CmPhase : uint8_t {
  kIdle = 0,
  // split
  kRemoving,
  kSnapshotting,
  kRestarting,
  kRangeChange,
  // merge
  kMergeSnapshot,
  kMergeInject,
  kMergeTerminate,
  kMergeRejoin,
  kDone,
  kFailed,
};

const char* CmPhaseName(CmPhase p);

/// Per-phase wall-clock (simulated) durations, the TC bars of Figs. 7b / 8b.
struct CmTimings {
  Duration remove = 0;
  Duration snapshot = 0;
  Duration restart = 0;
  Duration range_change = 0;
  Duration inject = 0;
  Duration terminate = 0;
  Duration rejoin = 0;
  Duration total = 0;
};

class ClusterManager {
 public:
  /// `op_salt` is mixed into bootstrap identities and idempotency tokens.
  /// Callers that run many operations (the shard-plane rebalancer) pass a
  /// fresh salt per operation so a later op's BootstrapReq can never alias
  /// an earlier one. A standby given the same salt as its primary re-sends
  /// identical BootstrapReqs, which nodes already bootstrapped just ack.
  ClusterManager(harness::World& world, NodeId id, uint64_t op_salt = 0);
  ~ClusterManager();

  /// Begin driving the operation. A standby (see MonitorAsStandby) stores
  /// the op and waits instead.
  void StartSplit(SplitOp op);
  void StartMerge(MergeOp op);

  /// Configure this CM as a hot standby of `primary` for whatever operation
  /// it is given via StartSplit/StartMerge: it re-executes the operation
  /// from scratch (every step is idempotent) when the primary dies.
  void MonitorAsStandby(NodeId primary);

  CmPhase phase() const { return phase_; }
  bool done() const { return phase_ == CmPhase::kDone; }
  bool failed() const { return phase_ == CmPhase::kFailed; }
  const CmTimings& timings() const { return timings_; }
  NodeId id() const { return id_; }

 private:
  void Tick();
  void RearmTick();
  void OnMessage(NodeId from, const raft::Message& m);
  void BeginPhase(CmPhase next);
  void RecordPhaseDuration();
  void Advance();       // issue the next request for the current phase
  void SendCurrent();   // (re)transmit the outstanding request
  NodeId GuessLeader(const std::vector<NodeId>& members) const;

  // Split step helpers.
  void SplitAdvance();
  void MergeAdvance();

  harness::World& world_;
  const NodeId id_;
  const uint64_t op_salt_;

  CmPhase phase_ = CmPhase::kIdle;
  std::optional<SplitOp> split_;
  std::optional<MergeOp> merge_;
  CmTimings timings_;
  TimePoint op_start_ = 0;
  TimePoint phase_start_ = 0;

  // Progress within the current phase.
  size_t group_cursor_ = 1;   // split: group being carved out; merge: cluster
  size_t node_cursor_ = 0;    // node within the group
  std::map<size_t, sm::SnapshotPtr> snaps_;  // per group/cluster
  std::set<NodeId> pending_acks_;
  std::set<uint64_t> step_reqs_;  // outstanding request ids for this step
  TimePoint restart_ready_at_ = 0;
  Duration retry_countdown_ = 0;
  NodeId leader_hint_ = kNoNode;

  // Standby emulation.
  NodeId primary_ = kNoNode;
  bool standby_armed_ = false;
  sim::EventId tick_event_ = sim::kNoEvent;
};

/// Convenience synchronous drivers used by tests and benches: run the world
/// until the CM finishes (or times out).
Result<CmTimings> RunTcSplit(harness::World& world, NodeId cm_id, SplitOp op,
                             Duration timeout = 120 * kSecond,
                             uint64_t op_salt = 0);
Result<CmTimings> RunTcMerge(harness::World& world, NodeId cm_id, MergeOp op,
                             Duration timeout = 120 * kSecond,
                             uint64_t op_salt = 0);

/// The native rebalancer's operations scripted by an external cluster
/// manager (membership changes + snapshot migration + node restarts), one
/// fresh CM actor per operation. After a TC merge the rejoined nodes are
/// removed again AR-RPC-style so both paths keep shards at their staffed
/// size and return the same freed set.
class TcRebalancer : public shard::Rebalancer {
 public:
  explicit TcRebalancer(harness::World& world,
                        Duration op_timeout = 120 * kSecond)
      : world_(world), op_timeout_(op_timeout) {}

  Result<shard::RebalanceResult> Split(
      const shard::ShardInfo& shard, const std::string& split_key,
      const std::vector<NodeId>& extra_nodes) override;
  Result<shard::RebalanceResult> Merge(const shard::ShardInfo& left,
                                       const shard::ShardInfo& right) override;

 private:
  /// Each operation's CM takes the next id up from here, far above the node
  /// ids a world allocates (counting from 1).
  static constexpr NodeId kFirstCmId = 500000;

  harness::World& world_;
  Duration op_timeout_;
  NodeId next_cm_id_ = kFirstCmId;
  uint64_t next_salt_ = 1;
};

}  // namespace recraft::tc
