// The seam between the placement driver and the mechanism that carries out
// a split or merge. NativeRebalancer, the ReCraft path, is the only
// implementation in the library. The interface stays virtual so the
// shardplane bench can run the same placement policy over the
// TiKV/CockroachDB-style external cluster-manager baseline, which
// implements it in bench/tc: the comparison the paper makes for a single
// operation, here runnable continuously over many shards.
#pragma once

#include <memory>

#include "harness/world.h"
#include "shard/shard_map.h"

namespace recraft::shard {

/// Outcome of one rebalancing operation: the shard entries now covering the
/// affected span (ids left unassigned; the caller applies them to the map
/// as a delta) and the nodes that no longer serve any shard.
struct RebalanceResult {
  std::vector<ShardInfo> shards;
  std::vector<NodeId> freed;
};

class Rebalancer {
 public:
  virtual ~Rebalancer() = default;

  /// Split `shard` in two at `split_key` (strictly inside its range).
  /// `extra_nodes` are caught-up spares the operation may consume to staff
  /// the second group when the shard is too small to divide.
  virtual Result<RebalanceResult> Split(
      const ShardInfo& shard, const std::string& split_key,
      const std::vector<NodeId>& extra_nodes) = 0;

  /// Merge two adjacent shards; left.range immediately precedes right.range.
  virtual Result<RebalanceResult> Merge(const ShardInfo& left,
                                        const ShardInfo& right) = 0;
};

/// ReCraft-native: splits and merges run through the participating groups'
/// own consensus (AdminSplit / AdminMerge with resize-at-merge); merges
/// resume with the left group's members and free the right group's.
class NativeRebalancer : public Rebalancer {
 public:
  explicit NativeRebalancer(harness::World& world,
                            Duration op_timeout = 60 * kSecond)
      : world_(world), op_timeout_(op_timeout) {}

  Result<RebalanceResult> Split(const ShardInfo& shard,
                                const std::string& split_key,
                                const std::vector<NodeId>& extra_nodes) override;
  Result<RebalanceResult> Merge(const ShardInfo& left,
                                const ShardInfo& right) override;

 private:
  harness::World& world_;
  Duration op_timeout_;
};

/// Read back a group's authoritative state into a shard entry (id left for
/// the map to assign).
ShardInfo DescribeGroup(harness::World& w, const std::vector<NodeId>& members);

/// Halve a sorted member list into two groups for a split.
void HalveMembers(const std::vector<NodeId>& members,
                  std::vector<NodeId>* left, std::vector<NodeId>* right);

}  // namespace recraft::shard
