// The client-side cache of the shard map. In map-driven mode the Router
// copies an authority ShardMap (the World-hosted overlay stand-in) and
// refetches when a reply proves the copy stale — a kWrongShard rejection,
// or a successful reply whose serving range/epoch disagree with the cached
// entry. Manual mode (SetClusters/UpdateCluster) steers routing by hand:
// tests and benches use it, and so does net::KvClient, whose one entry
// lists the phonebook over the full key range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/key_range.h"
#include "common/types.h"
#include "shard/shard_map.h"

namespace recraft::client {

class Router {
 public:
  struct Entry {
    std::vector<NodeId> members;
    KeyRange range;
    NodeId leader_hint = kNoNode;
    size_t rotate = 0;  // round-robin cursor when no hint is known
    uint32_t epoch = 0;
    shard::ShardId shard = shard::kNoShard;
  };

  Router() = default;
  /// Map-driven mode: cache `authority` (usually World::shard_map()) and
  /// refetch from it on demand.
  explicit Router(const shard::ShardMap* authority) : authority_(authority) {
    Refetch();
  }

  void SetClusters(std::vector<Entry> clusters) {
    clusters_ = std::move(clusters);
  }
  /// Replace the entry covering `range` (after a split/merge completes).
  void UpdateCluster(const KeyRange& range, std::vector<NodeId> members);

  Entry* Resolve(const std::string& key);

  /// Re-copy from the authority, preserving leader hints of unchanged
  /// shards. Returns true when a newer map version was installed; always
  /// false in manual mode.
  bool Refetch();
  uint64_t fetched_version() const { return fetched_version_; }

  size_t NumClusters() const { return clusters_.size(); }
  const std::vector<Entry>& clusters() const { return clusters_; }

 private:
  const shard::ShardMap* authority_ = nullptr;
  uint64_t fetched_version_ = 0;
  std::vector<Entry> clusters_;
};

}  // namespace recraft::client
