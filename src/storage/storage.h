// The pluggable persistence interface of the node: everything a ReCraft
// node must be able to rebuild after losing all volatile state — hard state
// (term / vote / commit), the log, the compaction snapshot, the sealed
// merge-exchange snapshots, and the exchange runtime metadata — flows
// through this interface. It has one backend, WalStorage (wal_storage.h):
// group-committed, CRC-framed records over a Disk — SimDisk in simulated
// worlds, FileDisk under recraftd. The interface stays so the consensus
// core does not depend on the WAL's clock and recorder.
//
// Durability contract the node relies on:
//   - DurableIndex(): log entries at or below it survive any crash. The
//     node defers follower acks and the leader's own commit-quorum vote
//     until the entries they cover are durable, so a committed entry is
//     durable on a full quorum — Raft's safety argument carries over to
//     crash-recovery runs unchanged.
//   - PersistHardState flushes synchronously whenever term or vote changed
//     (a node must never forget a granted vote), and may batch pure
//     commit-index advances.
//   - InstallSnapshot / PersistSealed / PersistExchangeMeta are atomic and
//     synchronous (rare, bulk writes).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "raft/entry.h"
#include "raft/entry_slab.h"
#include "raft/log.h"
#include "raft/messages.h"

namespace recraft::storage {

/// Raft's durable per-node triple, plus the commit index (an optimization:
/// replay applies straight to the persisted commit point at boot instead of
/// waiting to rediscover it from the next leader).
struct HardState {
  uint64_t term = 0;  // EpochTerm raw
  NodeId voted_for = kNoNode;
  Index commit = 0;

  bool operator==(const HardState&) const = default;
};

/// Durable image of a merge's post-commit exchange GC bookkeeping.
struct ExchangeGcImage {
  TxId tx = 0;
  std::vector<NodeId> resumed;
  std::vector<NodeId> targets;
  std::vector<NodeId> done;
  bool self_done = false;
};

/// Durable merge-exchange runtime: the pending plan (a resumed member whose
/// store is not yet assembled) and the GC state for sealed snapshots.
struct ExchangeMeta {
  std::optional<raft::MergePlan> pending_plan;
  std::vector<ExchangeGcImage> gc;
};

/// Everything recovery can reconstruct from the durable medium alone.
struct BootImage {
  bool present = false;  // false: blank disk (fresh node)
  HardState hard;
  raft::RaftSnapshotPtr snap;  // may be null
  Index base_index = 0;        // log base (snapshot position)
  uint64_t base_term = 0;
  /// Contiguous above base. A zero-copy view over the backend's slabs —
  /// valid for as long as the image is held (slab slots are immutable).
  raft::EntrySpan entries;
  std::map<std::pair<TxId, int>, sm::SnapshotPtr> sealed;
  ExchangeMeta exchange;
};

class Storage : public raft::LogSink {
 public:
  ~Storage() override = default;

  virtual void PersistHardState(const HardState& hs) = 0;
  /// Make `snap` the durable snapshot (atomic). Does not touch the log —
  /// the caller compacts/resets through the RaftLog, which forwards here.
  virtual void InstallSnapshot(const raft::RaftSnapshotPtr& snap) = 0;
  virtual void PersistSealed(TxId tx, int source,
                             const sm::SnapshotPtr& snap) = 0;
  virtual void PruneSealed(TxId tx) = 0;
  virtual void PersistExchangeMeta(const ExchangeMeta& meta) = 0;
  /// Drop every durable trace of this node (the TC baseline's wipe).
  virtual void WipeAll() = 0;

  /// Reconstruct the durable state. Replay mutates nothing except
  /// discarding a detected torn tail (an idempotent cut, so a crash during
  /// replay — a double crash — recovers to the identical image; without
  /// the cut, post-recovery writes would land behind the garbage and be
  /// unreadable after the next crash).
  virtual Result<BootImage> Load() = 0;

  /// Highest log index whose entries are all durable (snapshot or flushed
  /// WAL). The node's ack/commit gating pivots on this.
  virtual Index DurableIndex() const = 0;

  /// Force pending writes durable now (tests, benches).
  virtual void Sync() = 0;

  /// Invoked from the top of the event loop whenever DurableIndex advances
  /// asynchronously (a group-commit flush completed). Never invoked
  /// synchronously from inside a mutation call.
  void SetDurableCallback(std::function<void()> cb) {
    durable_cb_ = std::move(cb);
  }

 protected:
  std::function<void()> durable_cb_;
};

}  // namespace recraft::storage
