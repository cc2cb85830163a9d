// The multi-shard data plane: ShardMap invariants (coverage / overlap /
// version monotonicity, atomic deltas), wrong-shard retry in the routing
// client, the placement driver over the native rebalancer, and a chaos
// test that rebalances while a client fleet runs. The same placement policy
// over the TC baseline's rebalancer is tested in tc_test.
#include "shard/placement.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using shard::ShardId;
using shard::ShardInfo;
using shard::ShardMap;
using shard::ShardMapDelta;

ShardInfo MakeShard(const std::string& lo, const std::string& hi,
                    std::vector<NodeId> members, ShardId id = shard::kNoShard) {
  ShardInfo s;
  s.id = id;
  s.range = KeyRange(lo, hi);
  s.members = std::move(members);
  return s;
}

// ---------------------------------------------------------------------------
// ShardMap invariants.

TEST(ShardMap, BootstrapRequiresFullCoverage) {
  ShardMap m;
  // Gap before the first shard.
  EXPECT_FALSE(m.Bootstrap({MakeShard("a", "m", {1}),
                            MakeShard("m", "", {2})}).ok());
  // Gap in the middle.
  EXPECT_FALSE(m.Bootstrap({MakeShard("", "g", {1}),
                            MakeShard("m", "", {2})}).ok());
  // Unbounded tail missing.
  EXPECT_FALSE(m.Bootstrap({MakeShard("", "g", {1}),
                            MakeShard("g", "z", {2})}).ok());
  // Overlap.
  EXPECT_FALSE(m.Bootstrap({MakeShard("", "m", {1}),
                            MakeShard("g", "", {2})}).ok());
  // Memberless shard.
  EXPECT_FALSE(m.Bootstrap({MakeShard("", "", {})}).ok());
  EXPECT_EQ(m.version(), 0u);  // every rejection left the map untouched

  ASSERT_TRUE(m.Bootstrap({MakeShard("", "g", {1, 2, 3}),
                           MakeShard("g", "t", {4, 5, 6}),
                           MakeShard("t", "", {7, 8, 9})}).ok());
  EXPECT_EQ(m.version(), 1u);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.CheckInvariants().ok());
}

TEST(ShardMap, LookupCoversBoundaries) {
  ShardMap m;
  ASSERT_TRUE(m.Bootstrap({MakeShard("", "g", {1}), MakeShard("g", "t", {2}),
                           MakeShard("t", "", {3})}).ok());
  EXPECT_EQ(m.Lookup("")->members[0], 1u);
  EXPECT_EQ(m.Lookup("fzzz")->members[0], 1u);
  EXPECT_EQ(m.Lookup("g")->members[0], 2u);  // boundary belongs to the right
  EXPECT_EQ(m.Lookup("szzz")->members[0], 2u);
  EXPECT_EQ(m.Lookup("t")->members[0], 3u);
  EXPECT_EQ(m.Lookup("zzzz")->members[0], 3u);
}

TEST(ShardMap, DeltasAreAtomicAndVersioned) {
  ShardMap m;
  ASSERT_TRUE(m.Bootstrap({MakeShard("", "m", {1, 2, 3}),
                           MakeShard("m", "", {4, 5, 6})}).ok());
  uint64_t v = m.version();
  ShardId left_id = m.Lookup("a")->id;

  // A bad delta (coverage hole: removes [ "", m) but adds only [ "", g))
  // must not change the map or the version.
  ShardMapDelta bad;
  bad.remove = {left_id};
  bad.add = {MakeShard("", "g", {7, 8, 9})};
  EXPECT_FALSE(m.Apply(bad).ok());
  EXPECT_EQ(m.version(), v);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.CheckInvariants().ok());

  // A split delta applies atomically with exactly one version bump.
  ShardMapDelta split;
  split.remove = {left_id};
  split.add = {MakeShard("", "g", {1, 2, 3}), MakeShard("g", "m", {7, 8, 9})};
  ASSERT_TRUE(m.Apply(split).ok());
  EXPECT_EQ(m.version(), v + 1);
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.CheckInvariants().ok());

  // Merging back: remove both halves, add the union.
  ShardMapDelta merge;
  merge.remove = {m.Lookup("a")->id, m.Lookup("h")->id};
  merge.add = {MakeShard("", "m", {1, 2, 3})};
  ASSERT_TRUE(m.Apply(merge).ok());
  EXPECT_EQ(m.version(), v + 2);
  EXPECT_EQ(m.size(), 2u);

  // Removing an unknown shard is rejected without touching the map.
  ShardMapDelta unknown;
  unknown.remove = {9999};
  unknown.add = {};
  EXPECT_FALSE(m.Apply(unknown).ok());
  EXPECT_EQ(m.version(), v + 2);
}

TEST(ShardMap, MembershipDeltaKeepsHintsSane) {
  ShardMap m;
  ASSERT_TRUE(m.Bootstrap({MakeShard("", "", {1, 2, 3})}).ok());
  ShardId id = m.Lookup("x")->id;
  m.UpdateLeaderHint(id, 2);
  EXPECT_EQ(m.Get(id)->leader_hint, 2u);
  uint64_t v = m.version();
  // The hint survives a membership change that keeps the leader...
  ASSERT_TRUE(m.UpdateMembership(id, {1, 2, 3, 4}, 1).ok());
  EXPECT_EQ(m.Get(id)->leader_hint, 2u);
  // ...and is dropped by one that removes it.
  ASSERT_TRUE(m.UpdateMembership(id, {1, 3, 4}, 1).ok());
  EXPECT_EQ(m.Get(id)->leader_hint, kNoNode);
  EXPECT_EQ(m.version(), v + 2);
  EXPECT_FALSE(m.UpdateMembership(id, {}, 2).ok());
  EXPECT_FALSE(m.UpdateMembership(777, {1}, 2).ok());
}

TEST(ShardMap, UniformBoundariesPartitionClientKeys) {
  auto keys = shard::UniformKeyBoundaries("k", 100000, 8);
  ASSERT_EQ(keys.size(), 7u);
  for (size_t i = 1; i < keys.size(); ++i) EXPECT_LT(keys[i - 1], keys[i]);
  auto ranges = KeyRange::Full().SplitAt(keys);
  ASSERT_TRUE(ranges.ok());
  EXPECT_EQ(ranges->size(), 8u);
}

// ---------------------------------------------------------------------------
// Routing client: wrong-shard rejection heals a stale map copy.

TEST(ShardPlane, WrongShardRetryRefetchesMap) {
  World w(TestWorldOptions(21));
  auto ids = w.BootstrapShards(2, 3, {"k00005000"});
  ASSERT_TRUE(ids.ok());

  shard::NativeRebalancer rb(w);
  shard::PlacementDriver driver(w, w.shard_map(), rb);

  // The fleet hammers keys deep inside the upper shard through a router
  // that cached the 2-shard map.
  harness::Router router(&w.shard_map());
  harness::ClientOptions copts;
  copts.key_space = 2000;          // all keys k0000800XXXXXXXX...
  copts.key_prefix = "k0000800";   // ...live in the upper shard
  copts.value_bytes = 32;
  harness::ClientFleet fleet(w, router, 4, copts);
  fleet.Start();
  w.RunFor(kSecond);
  uint64_t before = fleet.TotalOps();

  // Split the upper shard at k00006000: every fleet key moves to the new
  // right-hand group while the fleet's cached map still points at the old
  // one. The stale routes must heal via kWrongShard -> Refetch -> retry.
  ShardId upper = w.shard_map().Lookup("k00008000")->id;
  ASSERT_TRUE(driver.SplitShard(upper, "k00006000").ok())
      << w.shard_map().ToString();
  w.RunFor(2 * kSecond);
  fleet.Stop();

  EXPECT_GT(fleet.TotalOps(), before + 50);
  EXPECT_GT(fleet.TotalWrongShardRetries(), 0u);
  EXPECT_EQ(router.fetched_version(), w.shard_map().version());
}

TEST(ShardPlane, NodeRejectsWrongShardWithServingRange) {
  World w(TestWorldOptions(22));
  auto ids = w.BootstrapShards(2, 3, {"m"});
  ASSERT_TRUE(ids.ok());
  auto shards = w.shard_map().Shards();
  // Ask the low shard's leader for a high key directly.
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "zzz";
  cmd.value = "v";
  NodeId low_leader = w.LeaderOf(shards[0].members);
  ASSERT_NE(low_leader, kNoNode);
  auto reply = w.Call(low_leader, kv::EncodeCommand(cmd));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->status.code(), Code::kWrongShard);
  EXPECT_EQ(reply->serving_range, shards[0].range);
}

// ---------------------------------------------------------------------------
// Placement driver over both rebalancers.

TEST(ShardPlane, NativeSplitAndMergeUpdateMap) {
  World w(TestWorldOptions(23));
  auto ids = w.BootstrapShards(2, 3, {"k00001000"});
  ASSERT_TRUE(ids.ok());
  auto shards = w.shard_map().Shards();
  ASSERT_TRUE(w.Preload(shards[0].members, 60, 32).ok());

  shard::NativeRebalancer rb(w);
  shard::PlacementDriver driver(w, w.shard_map(), rb);

  // Split the preloaded shard at its median.
  ASSERT_TRUE(driver.SplitShard(shards[0].id).ok()) << w.shard_map().ToString();
  EXPECT_EQ(w.shard_map().size(), 3u);
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok());
  EXPECT_EQ(driver.splits_done(), 1u);

  // Merge the two halves back; the freed nodes become wiped spares.
  auto after = w.shard_map().Shards();
  ASSERT_TRUE(driver.MergeShards(after[0].id, after[1].id).ok());
  EXPECT_EQ(w.shard_map().size(), 2u);
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok());
  EXPECT_EQ(driver.merges_done(), 1u);
  EXPECT_EQ(driver.spare_count(), 3u);

  // The plane still serves both ends of the key space.
  auto final_shards = w.shard_map().Shards();
  ASSERT_TRUE(w.Put(final_shards.front().members, "k00000001", "low").ok());
  ASSERT_TRUE(w.Put(final_shards.back().members, "k00009999", "high").ok());

  // Per-shard size/load metrics surface through the driver's registry.
  driver.RecordOp("k00000001");
  driver.PublishMetrics();
  auto snap = driver.metrics().Snap();
  EXPECT_EQ(snap.gauges.at("placement.shards"), 2);
  EXPECT_EQ(snap.gauges.at("placement.spares"), 3);
  bool some_shard_has_keys = false, all_have_bytes_gauge = true;
  for (const ShardInfo& s : final_shards) {
    const std::string prefix = "shard." + std::to_string(s.id);
    auto keys_it = snap.gauges.find(prefix + ".keys");
    ASSERT_NE(keys_it, snap.gauges.end()) << prefix;
    if (keys_it->second > 0) some_shard_has_keys = true;
    all_have_bytes_gauge &= snap.gauges.count(prefix + ".bytes") > 0;
  }
  EXPECT_TRUE(some_shard_has_keys);
  EXPECT_TRUE(all_have_bytes_gauge);
  EXPECT_GT(snap.histograms.at("placement.shard_keys").count, 0u);
}

// ---------------------------------------------------------------------------
// Chaos: continuous rebalancing under client load with fault injection.

// Every recorded op reaches the per-shard `.ops` counters exactly once,
// including ops recorded against shards a direct merge retired.
TEST(ShardPlane, OpCountsSurviveDirectMerge) {
  World w(TestWorldOptions(23));
  auto ids = w.BootstrapShards(2, 3, {"k00001000"});
  ASSERT_TRUE(ids.ok());
  auto shards = w.shard_map().Shards();
  shard::NativeRebalancer rb(w);
  shard::PlacementDriver driver(w, w.shard_map(), rb);

  for (int i = 0; i < 100; ++i) driver.RecordOp("k00000001");
  for (int i = 0; i < 50; ++i) driver.RecordOp("k00009999");
  ASSERT_TRUE(driver.MergeShards(shards[0].id, shards[1].id).ok());
  for (int i = 0; i < 7; ++i) driver.RecordOp("k00000001");
  driver.PublishMetrics();

  auto ops_total = [&driver] {
    uint64_t total = 0;
    for (const auto& [name, value] : driver.metrics().Snap().counters) {
      if (name.size() > 4 && name.compare(name.size() - 4, 4, ".ops") == 0) {
        total += value;
      }
    }
    return total;
  };
  EXPECT_EQ(ops_total(), 157u);
  // A second publish adds nothing: each op is counted once.
  driver.PublishMetrics();
  EXPECT_EQ(ops_total(), 157u);
}

TEST(ShardPlane, RebalanceChaosUnderClientLoad) {
  auto opts = TestWorldOptions(25);
  opts.net.drop_probability = 0.01;
  World w(opts);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();

  auto ids = w.BootstrapShards(3, 3, shard::UniformKeyBoundaries("k", 6000, 3));
  ASSERT_TRUE(ids.ok());

  shard::NativeRebalancer rb(w, 120 * kSecond);
  shard::PlacementOptions popts;
  popts.split_threshold_keys = 1;  // always split the largest...
  popts.merge_threshold_keys = 1000000;  // ...and merge the coldest pair
  popts.min_shards = 3;
  popts.max_shards = 5;
  shard::PlacementDriver driver(w, w.shard_map(), rb, popts);

  harness::Router router(&w.shard_map());
  harness::ClientOptions copts;
  copts.key_space = 6000;
  copts.value_bytes = 64;
  copts.batch_size = 2;
  copts.on_op_complete = [&](const std::string& key, TimePoint) {
    driver.RecordOp(key);
  };
  harness::ClientFleet fleet(w, router, 8, copts);
  fleet.Start();
  w.RunFor(2 * kSecond);  // populate stores so split keys exist

  for (int round = 0; round < 3; ++round) {
    driver.Step();  // clients keep running through the admin ops
    if (round == 1) {
      // Crash a random serving node mid-plane and restart it a bit later.
      auto shards = w.shard_map().Shards();
      NodeId victim = shards[shards.size() / 2].members.front();
      ASSERT_TRUE(w.Crash(victim).ok());
      w.RunFor(500 * kMillisecond);
      ASSERT_TRUE(w.Restart(victim).ok());
    }
    w.RunFor(kSecond);
  }
  fleet.Stop();
  w.net().set_drop_probability(0);

  EXPECT_GE(driver.splits_done() + driver.merges_done(), 2u);
  EXPECT_GT(fleet.TotalOps(), 200u);
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok())
      << w.shard_map().ToString();
  EXPECT_GE(w.shard_map().size(), 3u);
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();

  // Every shard still serves its range after the dust settles.
  for (const auto& s : w.shard_map().Shards()) {
    std::string probe = s.range.lo().empty() ? "k00000000" : s.range.lo();
    Status ps = w.Put(s.members, probe, "alive", 20 * kSecond);
    EXPECT_TRUE(ps.ok()) << s.ToString() << ": " << ps.ToString()
                         << "; live cfg "
                         << w.ConfigOf(s.members).ToString();
  }
}

TEST(ShardPlane, DriverSurvivesHardCrashedShardDuringRebalance) {
  // Regression: since hard crashes destroy the node *object* (PR 4), the
  // placement driver's metrics probes (MetricsOf / PickSplitKey) and the
  // world's ConfigOf/WipeNode waits must skip dead nodes instead of
  // dereferencing them. Crash an entire shard, then run rebalance steps
  // whose split pass (dead shard is the biggest) and merge pass (dead
  // shards are the coldest pair) both try to touch it.
  auto opts = TestWorldOptions(26);
  World w(opts);
  auto ids = w.BootstrapShards(3, 3, shard::UniformKeyBoundaries("k", 900, 3));
  ASSERT_TRUE(ids.ok());
  for (int i = 0; i < 30; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%08d", i * 30);
    const ShardInfo* s = w.shard_map().Lookup(key);
    ASSERT_NE(s, nullptr);
    ASSERT_TRUE(w.Put(s->members, key, "v").ok());
  }

  // Take the middle shard fully down — object destroyed, disk retained.
  auto shards = w.shard_map().Shards();
  for (NodeId id : shards[1].members) {
    ASSERT_TRUE(w.Crash(id).ok());
  }

  shard::NativeRebalancer rb(w, 5 * kSecond);
  shard::PlacementOptions popts;
  popts.split_threshold_keys = 1;      // everything looks splittable...
  popts.merge_threshold_keys = 10000;  // ...and the dead pair the coldest
  popts.min_shards = 1;
  popts.max_shards = 6;
  shard::PlacementDriver driver(w, w.shard_map(), rb, popts);
  for (int round = 0; round < 2; ++round) {
    driver.Step();  // must not crash; dead-shard actions fail softly
    w.RunFor(500 * kMillisecond);
  }
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok())
      << w.shard_map().ToString();

  // Reboot the shard from its durable media; the plane recovers fully.
  for (NodeId id : shards[1].members) {
    ASSERT_TRUE(w.Restart(id).ok());
  }
  ASSERT_TRUE(w.WaitForLeader(shards[1].members, 10 * kSecond));
  EXPECT_TRUE(w.Put(shards[1].members, shards[1].range.lo(), "back").ok());
}

}  // namespace
}  // namespace recraft::test
