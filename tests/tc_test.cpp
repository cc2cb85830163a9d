// TC baseline (TiKV/CockroachDB emulation, §VII-B/C): correctness of the
// CM-driven split and merge, timing breakdown sanity, CM as a single point
// of failure, the replicated-CM standby takeover, and the placement driver
// running its policy over the TC rebalancer.
#include "bench/tc/cluster_manager.h"
#include "shard/placement.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using tc::ClusterManager;
using tc::CmPhase;
using tc::MergeOp;
using tc::RunTcMerge;
using tc::RunTcSplit;
using tc::SplitOp;

constexpr NodeId kCmId = 800;
constexpr NodeId kCmStandbyId = 801;

struct TcFixture {
  explicit TcFixture(uint64_t seed, size_t n = 6,
                     uint64_t bandwidth = 1ULL << 30)
      : w([&] {
          auto o = TestWorldOptions(seed);
          o.net.bandwidth_bytes_per_sec = bandwidth;
          return o;
        }()) {
    cluster = w.CreateCluster(n);
    EXPECT_TRUE(w.WaitForLeader(cluster));
    EXPECT_TRUE(w.Put(cluster, "a1", "va1").ok());
    EXPECT_TRUE(w.Put(cluster, "m1", "vm1").ok());
  }
  SplitOp TwoWaySplit() {
    SplitOp op;
    op.source_members = cluster;
    op.groups = {{cluster[0], cluster[1], cluster[2]},
                 {cluster[3], cluster[4], cluster[5]}};
    auto ranges = KeyRange::Full().SplitAt({"m"});
    op.ranges = *ranges;
    return op;
  }
  World w;
  std::vector<NodeId> cluster;
};

TEST(TcSplit, ProducesTwoServingClusters) {
  TcFixture f(1);
  auto timings = RunTcSplit(f.w, kCmId, f.TwoWaySplit());
  ASSERT_TRUE(timings.ok()) << timings.status().ToString();
  std::vector<NodeId> g1{f.cluster[0], f.cluster[1], f.cluster[2]};
  std::vector<NodeId> g2{f.cluster[3], f.cluster[4], f.cluster[5]};
  ASSERT_TRUE(f.w.WaitForLeader(g1));
  ASSERT_TRUE(f.w.WaitForLeader(g2));
  EXPECT_EQ(*f.w.Get(g1, "a1"), "va1");
  EXPECT_EQ(*f.w.Get(g2, "m1"), "vm1");
  // Source shrank its range.
  EXPECT_EQ(f.w.Get(g1, "m1").status().code(), Code::kWrongShard);
  // Both sides accept new writes.
  EXPECT_TRUE(f.w.Put(g1, "a9", "x").ok());
  EXPECT_TRUE(f.w.Put(g2, "z9", "y").ok());
}

TEST(TcSplit, TimingDominatedByMigrationForLargeData) {
  // A bandwidth-limited network (16 MB/s) so data migration dominates, as
  // on the paper's Ceph-backed cloud volumes. Two latent schedule
  // sensitivities are pinned down so the comparison measures migration and
  // not luck: the preload uses prefix "n" so the data actually lies in the
  // moving range ([m, inf)), and the current leader is rotated into the
  // surviving group so neither run pays a ~200 ms re-election when the
  // split-out members are removed.
  constexpr uint64_t kBw = 16ULL << 20;
  auto run = [&](uint64_t seed, size_t keys) {
    TcFixture f(seed, 6, kBw);
    EXPECT_TRUE(f.w.Preload(f.cluster, keys, 512, "n").ok());
    SplitOp op = f.TwoWaySplit();
    NodeId leader = f.w.LeaderOf(f.cluster);
    auto it = std::find(op.groups[1].begin(), op.groups[1].end(), leader);
    if (it != op.groups[1].end()) std::swap(*it, op.groups[0].front());
    return RunTcSplit(f.w, kCmId, op);
  };
  auto t_small = run(2, 100);
  ASSERT_TRUE(t_small.ok());
  auto t_big = run(3, 5000);
  ASSERT_TRUE(t_big.ok());
  // Snapshot + restart (the data-bearing phases) grow with data; the remove
  // phase does not (Fig. 7b shape).
  EXPECT_GT(t_big->snapshot + t_big->restart,
            t_small->snapshot + t_small->restart);
  EXPECT_LT(t_big->remove, 2 * t_small->remove + 500 * kMillisecond);
}

TEST(TcMerge, ProducesOneServingCluster) {
  // First split via TC, then merge back via TC.
  TcFixture f(4);
  ASSERT_TRUE(RunTcSplit(f.w, kCmId, f.TwoWaySplit()).ok());
  std::vector<NodeId> g1{f.cluster[0], f.cluster[1], f.cluster[2]};
  std::vector<NodeId> g2{f.cluster[3], f.cluster[4], f.cluster[5]};
  ASSERT_TRUE(f.w.WaitForLeader(g1));
  ASSERT_TRUE(f.w.WaitForLeader(g2));
  MergeOp op;
  op.clusters = {g1, g2};
  op.ranges = *KeyRange::Full().SplitAt({"m"});
  auto timings = RunTcMerge(f.w, kCmId, op);
  ASSERT_TRUE(timings.ok()) << timings.status().ToString();
  // The survivor serves the whole range with all six nodes (allow the last
  // membership entry to finish replicating).
  ASSERT_TRUE(f.w.RunUntil(
      [&]() { return f.w.ConfigOf(g1).members.size() == 6; }, 5 * kSecond));
  EXPECT_EQ(f.w.ConfigOf(g1).range, KeyRange::Full());
  EXPECT_EQ(*f.w.Get(g1, "a1"), "va1");
  EXPECT_EQ(*f.w.Get(g1, "m1"), "vm1");
  EXPECT_TRUE(f.w.Put(g1, "zz", "post-merge").ok());
}

TEST(TcSplit, CmCrashStallsOperation) {
  // Table I: failing the non-replicated CM stops the split entirely.
  TcFixture f(5);
  ClusterManager cm(f.w, kCmId);
  cm.StartSplit(f.TwoWaySplit());
  // StartSplit enters the remove phase synchronously; kill the CM before a
  // single removal can complete (round trips take ~ms of simulated time).
  ASSERT_EQ(cm.phase(), CmPhase::kRemoving);
  ASSERT_TRUE(f.w.Crash(kCmId).ok());
  f.w.RunFor(10 * kSecond);
  EXPECT_FALSE(cm.done());
  // The split-out group never starts serving its own range: no node of g2
  // ever becomes a member of the new ["m", +inf) cluster.
  KeyRange split_off("m", "");
  for (NodeId id : {f.cluster[3], f.cluster[4], f.cluster[5]}) {
    EXPECT_FALSE(f.w.node(id).config().range == split_off) << "node " << id;
  }
}

TEST(TcSplit, StandbyCmTakesOver) {
  // Table I CM-repl: a standby resumes the operation when the primary dies.
  TcFixture f(6);
  ClusterManager primary(f.w, kCmId);
  ClusterManager standby(f.w, kCmStandbyId);
  standby.MonitorAsStandby(kCmId);
  standby.StartSplit(f.TwoWaySplit());  // stored, not executed
  primary.StartSplit(f.TwoWaySplit());
  ASSERT_TRUE(f.w.RunUntil(
      [&]() { return primary.phase() == CmPhase::kSnapshotting ||
                     primary.done(); },
      10 * kSecond));
  ASSERT_TRUE(f.w.Crash(kCmId).ok());
  ASSERT_TRUE(f.w.RunUntil([&]() { return standby.done(); }, 60 * kSecond))
      << "standby stuck in " << tc::CmPhaseName(standby.phase());
  std::vector<NodeId> g1{f.cluster[0], f.cluster[1], f.cluster[2]};
  std::vector<NodeId> g2{f.cluster[3], f.cluster[4], f.cluster[5]};
  ASSERT_TRUE(f.w.WaitForLeader(g1));
  ASSERT_TRUE(f.w.WaitForLeader(g2));
  EXPECT_EQ(*f.w.Get(g2, "m1"), "vm1");
}

TEST(TcSplit, StandbyAfterRestartKeepsBootstrappedGroup) {
  // The standby re-executes the whole op, BootstrapReqs included. Nodes the
  // primary already bootstrapped must see the same genesis identity and
  // only ack: a second Reinit would wipe a group that is already serving.
  TcFixture f(6);
  ClusterManager primary(f.w, kCmId);
  ClusterManager standby(f.w, kCmStandbyId);
  standby.MonitorAsStandby(kCmId);
  standby.StartSplit(f.TwoWaySplit());
  primary.StartSplit(f.TwoWaySplit());
  ASSERT_TRUE(f.w.RunUntil(
      [&]() { return primary.phase() == CmPhase::kRestarting; },
      10 * kSecond));
  f.w.RunFor(50 * kMillisecond);
  ASSERT_EQ(primary.phase(), CmPhase::kRestarting);
  std::vector<NodeId> g2{f.cluster[3], f.cluster[4], f.cluster[5]};
  std::map<NodeId, ClusterUid> bootstrapped_uid;
  for (NodeId id : g2) {
    ASSERT_EQ(f.w.node(id).counters().Get("node.reinit"), 1u) << "node " << id;
    bootstrapped_uid[id] = f.w.node(id).cluster_uid();
  }
  ASSERT_TRUE(f.w.Crash(kCmId).ok());
  ASSERT_TRUE(f.w.RunUntil([&]() { return standby.done(); }, 60 * kSecond))
      << "standby stuck in " << tc::CmPhaseName(standby.phase());
  for (NodeId id : g2) {
    EXPECT_EQ(f.w.node(id).counters().Get("node.reinit"), 1u) << "node " << id;
    EXPECT_EQ(f.w.node(id).cluster_uid(), bootstrapped_uid[id])
        << "node " << id;
  }
  ASSERT_TRUE(f.w.WaitForLeader(g2));
  EXPECT_EQ(*f.w.Get(g2, "m1"), "vm1");
}

TEST(TcSplit, TimingBreakdownIsPopulated) {
  TcFixture f(7);
  ASSERT_TRUE(f.w.Preload(f.cluster, 500, 512).ok());
  auto t = RunTcSplit(f.w, kCmId, f.TwoWaySplit());
  ASSERT_TRUE(t.ok());
  EXPECT_GT(t->remove, 0u);
  EXPECT_GT(t->snapshot, 0u);
  EXPECT_GE(t->restart, 200 * kMillisecond);  // the emulated restart delay
  EXPECT_GT(t->total, t->remove);
}

TEST(ShardPlane, TcRebalancerRunsSamePolicy) {
  World w(TestWorldOptions(24));
  auto ids = w.BootstrapShards(2, 3, {"k00001000"});
  ASSERT_TRUE(ids.ok());
  auto shards = w.shard_map().Shards();
  ASSERT_TRUE(w.Preload(shards[0].members, 40, 32).ok());

  tc::TcRebalancer rb(w, 120 * kSecond);
  shard::PlacementDriver driver(w, w.shard_map(), rb);

  ASSERT_TRUE(driver.SplitShard(shards[0].id).ok()) << w.shard_map().ToString();
  EXPECT_EQ(w.shard_map().size(), 3u);
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok());

  auto after = w.shard_map().Shards();
  ASSERT_TRUE(driver.MergeShards(after[0].id, after[1].id).ok());
  EXPECT_EQ(w.shard_map().size(), 2u);
  EXPECT_TRUE(w.shard_map().CheckInvariants().ok());
  EXPECT_EQ(driver.spare_count(), 3u);

  auto final_shards = w.shard_map().Shards();
  ASSERT_TRUE(w.Put(final_shards.front().members, "k00000001", "low").ok());
}

}  // namespace
}  // namespace recraft::test
