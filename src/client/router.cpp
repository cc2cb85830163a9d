#include "client/router.h"

#include <algorithm>

namespace recraft::client {

void Router::UpdateCluster(const KeyRange& range,
                           std::vector<NodeId> members) {
  // Drop every entry overlapping the new range, then insert the new one.
  std::vector<Entry> next;
  for (auto& e : clusters_) {
    if (!e.range.Overlaps(range)) next.push_back(std::move(e));
  }
  Entry fresh;
  fresh.range = range;
  fresh.members = std::move(members);
  next.push_back(std::move(fresh));
  clusters_ = std::move(next);
}

Router::Entry* Router::Resolve(const std::string& key) {
  for (auto& e : clusters_) {
    if (e.range.Contains(key)) return &e;
  }
  return nullptr;
}

bool Router::Refetch() {
  if (authority_ == nullptr) return false;
  if (fetched_version_ == authority_->version() && !clusters_.empty()) {
    return false;
  }
  std::vector<Entry> next;
  for (const shard::ShardInfo& s : authority_->Shards()) {
    Entry e;
    e.members = s.members;
    e.range = s.range;
    e.epoch = s.epoch;
    e.shard = s.id;
    e.leader_hint = s.leader_hint;
    // Keep a locally learned hint when the shard survived unchanged.
    for (const Entry& old : clusters_) {
      if (old.shard == s.id && old.leader_hint != kNoNode) {
        e.leader_hint = old.leader_hint;
        e.epoch = std::max(e.epoch, old.epoch);
        break;
      }
    }
    next.push_back(std::move(e));
  }
  clusters_ = std::move(next);
  fetched_version_ = authority_->version();
  return true;
}

}  // namespace recraft::client
