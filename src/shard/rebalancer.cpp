#include "shard/rebalancer.h"

#include <algorithm>

namespace recraft::shard {

ShardInfo DescribeGroup(harness::World& w, const std::vector<NodeId>& members) {
  ShardInfo s;
  raft::ConfigState cfg = w.ConfigOf(members);
  s.members = cfg.members;
  std::sort(s.members.begin(), s.members.end());
  s.range = cfg.range;
  s.uid = cfg.uid;
  NodeId leader = w.LeaderOf(s.members);
  s.leader_hint = leader;
  if (leader != kNoNode) s.epoch = w.node(leader).epoch();
  return s;
}

void HalveMembers(const std::vector<NodeId>& members,
                  std::vector<NodeId>* left, std::vector<NodeId>* right) {
  size_t half = members.size() / 2;
  left->assign(members.begin(), members.begin() + half);
  right->assign(members.begin() + half, members.end());
}

// ---------------------------------------------------------------------------
// Native (ReCraft) path.

Result<RebalanceResult> NativeRebalancer::Split(
    const ShardInfo& shard, const std::string& split_key,
    const std::vector<NodeId>& extra_nodes) {
  std::vector<NodeId> members = shard.members;
  if (!extra_nodes.empty()) {
    // Grow first (AddAndResize, one consensus step) so both halves are
    // fully staffed after the split.
    std::vector<NodeId> target = members;
    target.insert(target.end(), extra_nodes.begin(), extra_nodes.end());
    std::sort(target.begin(), target.end());
    auto steps = world_.AdminResizeTo(members, target, op_timeout_);
    if (!steps.ok()) return steps.status();
    members = target;
  }
  if (members.size() < 2) return Rejected("not enough members to split");
  std::sort(members.begin(), members.end());
  std::vector<NodeId> left, right;
  HalveMembers(members, &left, &right);

  Status s = world_.AdminSplit(members, {left, right}, {split_key}, op_timeout_);
  if (!s.ok()) return s;
  if (!world_.WaitForLeader(left, op_timeout_) ||
      !world_.WaitForLeader(right, op_timeout_)) {
    return Timeout("split subclusters did not elect leaders");
  }
  RebalanceResult out;
  out.shards = {DescribeGroup(world_, left), DescribeGroup(world_, right)};
  return out;
}

Result<RebalanceResult> NativeRebalancer::Merge(const ShardInfo& left,
                                                const ShardInfo& right) {
  // Resize-at-merge: resume with the left group's members only, freeing the
  // right group's nodes for future splits (§III-C.2).
  std::vector<NodeId> resume = left.members;
  std::sort(resume.begin(), resume.end());
  Status s = world_.AdminMerge({left.members, right.members}, resume,
                               op_timeout_);
  if (!s.ok()) return s;
  bool served = world_.RunUntil(
      [&]() {
        for (NodeId id : resume) {
          if (world_.IsCrashed(id)) return false;
          const auto& n = world_.node(id);
          if (n.config().members != resume || n.merge_exchange_pending()) {
            return false;
          }
        }
        return world_.LeaderOf(resume) != kNoNode;
      },
      op_timeout_);
  if (!served) return Timeout("merged shard did not resume serving");
  RebalanceResult out;
  out.shards = {DescribeGroup(world_, resume)};
  out.freed = right.members;
  return out;
}

}  // namespace recraft::shard
