// The placement driver: the policy loop that turns per-shard key counts
// into split and merge decisions and drives them through a Rebalancer
// (native ReCraft, or the TC baseline in bench/tc), updating the hosted
// shard map with an atomic delta after each completed operation. Splits
// staff both halves at three nodes each. Freed nodes are wiped and
// pooled as spares that staff future splits, so a long-running plane
// recycles its fleet instead of growing it. Per-shard op counts (RecordOp)
// are published as metrics only; they never trigger a split.
#pragma once

#include <deque>
#include <map>
#include <string>

#include "common/metrics.h"
#include "harness/world.h"
#include "shard/rebalancer.h"
#include "shard/shard_map.h"

namespace recraft::shard {

struct PlacementOptions {
  /// Split a shard once its group holds at least this many keys (0 = size
  /// never triggers a split).
  size_t split_threshold_keys = 4096;
  /// Merge an adjacent pair whose combined key count is at most this.
  size_t merge_threshold_keys = 512;
  size_t min_shards = 1;
  size_t max_shards = 64;
};

class PlacementDriver {
 public:
  PlacementDriver(harness::World& world, ShardMap& map, Rebalancer& rb,
                  PlacementOptions opts = {});

  /// Load-accounting hook; wire it to ClientOptions::on_op_complete. Step
  /// publishes the counts as per-shard `.ops` counters.
  void RecordOp(const std::string& key);

  struct StepReport {
    int splits = 0;
    int merges = 0;
    std::vector<std::string> actions;  // human-readable decisions/errors
  };
  /// One policy pass: at most one split and one merge, picked from current
  /// metrics. The op runs synchronously on the world's event loop, so
  /// client traffic keeps flowing while the shard reconfigures.
  StepReport Step();

  /// Policy-bypassing drives, shared by tests and the bench. An empty
  /// split key means "median key of the shard's store".
  Status SplitShard(ShardId id, std::string split_key = {});
  Status MergeShards(ShardId left_id, ShardId right_id);

  size_t spare_count() const { return spares_.size(); }
  uint64_t splits_done() const { return splits_done_; }
  uint64_t merges_done() const { return merges_done_; }

  struct ShardMetrics {
    size_t keys = 0;
    size_t bytes = 0;  // machine ApproxBytes() at the probed replica
  };

  /// Refresh the registry from the live shard map: per-shard keys/bytes
  /// gauges, cumulative per-shard op counters, and a `shards` gauge. Step()
  /// publishes before acting, so after a Step the snapshot shows the state
  /// the decisions were made from; callers may also publish on demand.
  void PublishMetrics();
  const MetricRegistry& metrics() const { return metrics_; }
  MetricRegistry& metrics() { return metrics_; }

 private:
  ShardMetrics MetricsOf(const ShardInfo& s) const;
  Result<std::string> PickSplitKey(const ShardInfo& s) const;
  std::vector<NodeId> TakeSpares(size_t n);
  void ReleaseFreed(const std::vector<NodeId>& freed);
  /// After a failed rebalance whose operation may still have committed
  /// (e.g. a leader-wait timeout), rebuild the map entries `ids` covering
  /// `region` from the live configurations of `probes`. Applies a delta
  /// only when the observed groups tile the region exactly; otherwise the
  /// map is left untouched (a later reconcile or retry will catch up).
  void ReconcileRegion(const std::vector<ShardId>& ids, const KeyRange& region,
                       const std::vector<NodeId>& probes);

  harness::World& world_;
  ShardMap& map_;
  Rebalancer& rb_;
  PlacementOptions opts_;
  std::deque<NodeId> spares_;
  std::map<ShardId, uint64_t> ops_since_step_;
  uint64_t splits_done_ = 0;
  uint64_t merges_done_ = 0;
  MetricRegistry metrics_;
};

}  // namespace recraft::shard
