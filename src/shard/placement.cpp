#include "shard/placement.h"

#include <algorithm>

namespace recraft::shard {

namespace {
/// Target group size; splits take spares to staff both halves at this.
constexpr size_t kNodesPerShard = 3;
}  // namespace

PlacementDriver::PlacementDriver(harness::World& world, ShardMap& map,
                                 Rebalancer& rb, PlacementOptions opts)
    : world_(world), map_(map), rb_(rb), opts_(opts) {}

void PlacementDriver::RecordOp(const std::string& key) {
  const ShardInfo* s = map_.Lookup(key);
  if (s != nullptr) ++ops_since_step_[s->id];
}

PlacementDriver::ShardMetrics PlacementDriver::MetricsOf(
    const ShardInfo& s) const {
  ShardMetrics m;
  NodeId probe = world_.LeaderOf(s.members);
  if (probe == kNoNode) {
    for (NodeId id : s.members) {
      if (world_.HasNode(id) && !world_.IsCrashed(id)) {
        probe = id;
        break;
      }
    }
  }
  // Re-validate before dereferencing: Crash destroys the node *object*
  // (not just its network presence), so a probe picked from a stale member
  // list — or raced by crash chaos while a rebalance step ran the event
  // loop — must be skipped, not dereferenced.
  if (probe != kNoNode && world_.HasNode(probe) && !world_.IsCrashed(probe)) {
    m.keys = world_.node(probe).machine().Size();
    m.bytes = world_.node(probe).machine().ApproxBytes();
  }
  return m;
}

Result<std::string> PlacementDriver::PickSplitKey(const ShardInfo& s) const {
  NodeId leader = world_.LeaderOf(s.members);
  if (leader == kNoNode || !world_.HasNode(leader) ||
      world_.IsCrashed(leader)) {
    return Unavailable("shard has no live leader");
  }
  return world_.node(leader).machine().SplitHint(0.5);
}

std::vector<NodeId> PlacementDriver::TakeSpares(size_t n) {
  std::vector<NodeId> out;
  while (out.size() < n && !spares_.empty()) {
    out.push_back(spares_.front());
    spares_.pop_front();
  }
  while (out.size() < n) out.push_back(world_.CreateSpareNode());
  return out;
}

void PlacementDriver::ReleaseFreed(const std::vector<NodeId>& freed) {
  for (NodeId id : freed) {
    // Best effort: a node that cannot be wiped right now (e.g. crashed) is
    // simply not pooled; splits fall back to fresh spares.
    if (world_.WipeNode(id).ok()) spares_.push_back(id);
  }
}

void PlacementDriver::ReconcileRegion(const std::vector<ShardId>& ids,
                                      const KeyRange& region,
                                      const std::vector<NodeId>& probes) {
  // Collect the live groups currently claiming (parts of) the region.
  std::map<ClusterUid, ShardInfo> found;
  for (NodeId n : probes) {
    if (!world_.HasNode(n) || world_.IsCrashed(n)) continue;
    const raft::ConfigState& cfg = world_.node(n).config();
    if (cfg.members.empty() || cfg.range.empty()) continue;
    if (!cfg.range.Overlaps(region)) continue;
    ShardInfo& info = found[cfg.uid];
    info.range = cfg.range;
    info.members = cfg.members;
    info.uid = cfg.uid;
    info.epoch = std::max(info.epoch, world_.node(n).epoch());
  }
  std::vector<ShardInfo> pieces;
  pieces.reserve(found.size());
  for (auto& [uid, info] : found) pieces.push_back(info);
  std::sort(pieces.begin(), pieces.end(),
            [](const ShardInfo& a, const ShardInfo& b) {
              return a.range.lo() < b.range.lo();
            });
  if (pieces.empty() || pieces.front().range.lo() != region.lo()) return;
  for (size_t i = 0; i + 1 < pieces.size(); ++i) {
    if (!pieces[i].range.AdjacentBefore(pieces[i + 1].range)) return;
  }
  const KeyRange& last = pieces.back().range;
  if (last.hi_is_inf() != region.hi_is_inf()) return;
  if (!region.hi_is_inf() && last.hi() != region.hi()) return;
  for (ShardInfo& p : pieces) p.leader_hint = world_.LeaderOf(p.members);
  ShardMapDelta delta;
  delta.remove = ids;
  delta.add = std::move(pieces);
  (void)map_.Apply(delta);
}

Status PlacementDriver::SplitShard(ShardId id, std::string split_key) {
  const ShardInfo* found = map_.Get(id);
  if (found == nullptr) return NotFound("unknown shard");
  ShardInfo shard = *found;  // the map may mutate under us below
  if (split_key.empty()) {
    auto k = PickSplitKey(shard);
    if (!k.ok()) return k.status();
    split_key = *k;
  }
  if (shard.range.CompareKey(split_key) != 0 || split_key == shard.range.lo()) {
    return Rejected("split key not strictly inside " + shard.range.ToString());
  }
  std::vector<NodeId> extra;
  if (shard.members.size() < 2 * kNodesPerShard) {
    extra = TakeSpares(2 * kNodesPerShard - shard.members.size());
  }
  auto res = rb_.Split(shard, split_key, extra);
  if (!res.ok()) {
    // The operation may still have (partially) committed — e.g. the split
    // succeeded but the leader wait timed out. Rebuild the affected map
    // entry from the live configurations, then return unconsumed spares.
    std::vector<NodeId> probes = shard.members;
    probes.insert(probes.end(), extra.begin(), extra.end());
    ReconcileRegion({id}, shard.range, probes);
    for (NodeId n : extra) {
      bool consumed = false;
      for (const ShardInfo& s : map_.Shards()) {
        if (std::binary_search(s.members.begin(), s.members.end(), n)) {
          consumed = true;
          break;
        }
      }
      if (!consumed) spares_.push_back(n);
    }
    return res.status();
  }
  ShardMapDelta delta;
  delta.remove = {id};
  delta.add = res->shards;
  if (Status s = map_.Apply(delta); !s.ok()) return s;
  ops_since_step_.erase(id);
  ReleaseFreed(res->freed);
  ++splits_done_;
  return OkStatus();
}

Status PlacementDriver::MergeShards(ShardId left_id, ShardId right_id) {
  const ShardInfo* lp = map_.Get(left_id);
  const ShardInfo* rp = map_.Get(right_id);
  if (lp == nullptr || rp == nullptr) return NotFound("unknown shard");
  ShardInfo left = *lp, right = *rp;
  if (!left.range.AdjacentBefore(right.range)) {
    return Rejected("shards are not adjacent in key order");
  }
  auto res = rb_.Merge(left, right);
  if (!res.ok()) {
    // The merge may still have committed (e.g. the resume wait timed out):
    // rebuild both entries from the live configurations over their span.
    auto region = KeyRange::MergeAdjacent({left.range, right.range});
    if (region.ok()) {
      std::vector<NodeId> probes = left.members;
      probes.insert(probes.end(), right.members.begin(), right.members.end());
      ReconcileRegion({left_id, right_id}, *region, probes);
    }
    return res.status();
  }
  ShardMapDelta delta;
  delta.remove = {left_id, right_id};
  delta.add = res->shards;
  if (Status s = map_.Apply(delta); !s.ok()) return s;
  ops_since_step_.erase(left_id);
  ops_since_step_.erase(right_id);
  ReleaseFreed(res->freed);
  ++merges_done_;
  return OkStatus();
}

void PlacementDriver::PublishMetrics() {
  metrics_.gauge("placement.shards").Set(static_cast<int64_t>(map_.size()));
  metrics_.gauge("placement.spares")
      .Set(static_cast<int64_t>(spares_.size()));
  for (const ShardInfo& s : map_.Shards()) {
    ShardMetrics m = MetricsOf(s);
    const std::string prefix = "shard." + std::to_string(s.id);
    metrics_.gauge(prefix + ".keys").Set(static_cast<int64_t>(m.keys));
    metrics_.gauge(prefix + ".bytes").Set(static_cast<int64_t>(m.bytes));
    metrics_.histogram("placement.shard_keys").Record(m.keys);
  }
}

PlacementDriver::StepReport PlacementDriver::Step() {
  StepReport report;
  // Publish first: the snapshot reflects the metrics this pass decides on,
  // and the per-shard op windows are still intact (cleared at the end).
  PublishMetrics();
  for (const auto& [id, ops] : ops_since_step_) {
    // NOLINTNEXTLINE(recraft-hot-path-hygiene): once per policy pass, and the per-shard name is dynamic by design
    metrics_.counters().Add("shard." + std::to_string(id) + ".ops", ops);
  }

  // -- split pass: the biggest shard over the key threshold ---------------
  if (map_.size() < opts_.max_shards && opts_.split_threshold_keys > 0) {
    ShardId pick = kNoShard;
    size_t pick_keys = 0;
    for (const ShardInfo& s : map_.Shards()) {
      size_t keys = MetricsOf(s).keys;
      if (keys >= opts_.split_threshold_keys &&
          (pick == kNoShard || keys > pick_keys)) {
        pick = s.id;
        pick_keys = keys;
      }
    }
    if (pick != kNoShard) {
      Status s = SplitShard(pick);
      if (s.ok()) {
        ++report.splits;
        report.actions.push_back("split shard#" + std::to_string(pick));
      } else {
        report.actions.push_back("split shard#" + std::to_string(pick) +
                                 " failed: " + s.ToString());
      }
    }
  }

  // -- merge pass: the coldest adjacent pair under the threshold -----------
  if (map_.size() > opts_.min_shards && opts_.merge_threshold_keys > 0) {
    auto shards = map_.Shards();  // re-read: the split pass may have changed it
    ShardId pick_l = kNoShard, pick_r = kNoShard;
    size_t pick_total = 0;
    for (size_t i = 0; i + 1 < shards.size(); ++i) {
      size_t total =
          MetricsOf(shards[i]).keys + MetricsOf(shards[i + 1]).keys;
      if (total > opts_.merge_threshold_keys) continue;
      if (pick_l == kNoShard || total < pick_total) {
        pick_l = shards[i].id;
        pick_r = shards[i + 1].id;
        pick_total = total;
      }
    }
    if (pick_l != kNoShard) {
      Status s = MergeShards(pick_l, pick_r);
      if (s.ok()) {
        ++report.merges;
        report.actions.push_back("merged shard#" + std::to_string(pick_l) +
                                 " + shard#" + std::to_string(pick_r));
      } else {
        report.actions.push_back("merge shard#" + std::to_string(pick_l) +
                                 " + shard#" + std::to_string(pick_r) +
                                 " failed: " + s.ToString());
      }
    }
  }

  // Load windows are per-step.
  ops_since_step_.clear();
  return report;
}

}  // namespace recraft::shard
