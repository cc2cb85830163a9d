// ReCraft split protocol (§III-B): two- and three-way splits, epoch bumps,
// data partitioning, independence of subclusters, the pull-based recovery
// of missed-out nodes and subclusters, and safety under faults mid-split.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

// A 6-node cluster preloaded with keys on both sides of the split point.
struct SplitFixture {
  SplitFixture(uint64_t seed, size_t n_nodes)
      : w(TestWorldOptions(seed)), cluster(w.CreateCluster(n_nodes)) {
    EXPECT_TRUE(w.WaitForLeader(cluster));
    EXPECT_TRUE(w.Put(cluster, "a1", "va1").ok());
    EXPECT_TRUE(w.Put(cluster, "a2", "va2").ok());
    EXPECT_TRUE(w.Put(cluster, "m1", "vm1").ok());
    EXPECT_TRUE(w.Put(cluster, "m2", "vm2").ok());
  }
  World w;
  std::vector<NodeId> cluster;
};

TEST(Split, TwoWaySplitCompletes) {
  SplitFixture f(1, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  // Both subclusters completed: epoch bumped, disjoint configs.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (w.node(id).epoch() != 1) return false;
          if (w.node(id).config().mode != raft::ConfigMode::kStable)
            return false;
        }
        return true;
      },
      10 * kSecond));
  EXPECT_EQ(w.ConfigOf(g1).members, g1);
  EXPECT_EQ(w.ConfigOf(g2).members, g2);
}

TEST(Split, DataIsPartitionedByRange) {
  SplitFixture f(2, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  // g1 owns [ "", "m"), g2 owns ["m", inf).
  EXPECT_EQ(*w.Get(g1, "a1"), "va1");
  EXPECT_EQ(*w.Get(g2, "m1"), "vm1");
  EXPECT_EQ(w.Get(g1, "m1").status().code(), Code::kWrongShard);
  EXPECT_EQ(w.Get(g2, "a1").status().code(), Code::kWrongShard);
  // Stores physically dropped the other half.
  ExpectConverged(w, g1);
  ExpectConverged(w, g2);
  for (NodeId id : g1) EXPECT_EQ(harness::KvStoreOf(w.node(id)).size(), 2u);
  for (NodeId id : g2) EXPECT_EQ(harness::KvStoreOf(w.node(id)).size(), 2u);
}

TEST(Split, SubclustersEvolveIndependently) {
  SplitFixture f(3, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  ASSERT_TRUE(w.Put(g1, "a9", "new-left").ok());
  ASSERT_TRUE(w.Put(g2, "z9", "new-right").ok());
  EXPECT_EQ(*w.Get(g1, "a9"), "new-left");
  EXPECT_EQ(*w.Get(g2, "z9"), "new-right");
  // Kill g2 entirely: g1 is unaffected (self-contained independence).
  for (NodeId id : g2) ASSERT_TRUE(w.Crash(id).ok());
  ASSERT_TRUE(w.Put(g1, "a10", "still-alive").ok());
}

TEST(Split, ThreeWaySplit) {
  SplitFixture f(4, 9);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]},
      g3{c[6], c[7], c[8]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2, g3}, {"h", "p"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  ASSERT_TRUE(w.WaitForLeader(g3));
  EXPECT_EQ(*w.Get(g1, "a1"), "va1");   // [ "", "h")
  EXPECT_EQ(*w.Get(g2, "m1"), "vm1");   // ["h", "p")
  ASSERT_TRUE(w.Put(g3, "q1", "vq1").ok());  // ["p", inf)
  EXPECT_EQ(*w.Get(g3, "q1"), "vq1");
}

TEST(Split, UnevenGroupSizes) {
  SplitFixture f(5, 5);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  EXPECT_EQ(*w.Get(g1, "a1"), "va1");
  EXPECT_EQ(*w.Get(g2, "m1"), "vm1");
}

TEST(Split, RejectsInvalidRequests) {
  SplitFixture f(6, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  // Missing split key.
  EXPECT_EQ(w.AdminSplit(c, {g1, g2}, {}).code(), Code::kRejected);
  // Group with a stranger.
  EXPECT_EQ(w.AdminSplit(c, {{c[0], c[1], 999}, g2}, {"m"}).code(),
            Code::kRejected);
  // Groups that do not cover all members.
  EXPECT_EQ(w.AdminSplit(c, {{c[0], c[1]}, {c[3], c[4]}}, {"m"}).code(),
            Code::kRejected);
  // Node in two groups.
  EXPECT_EQ(
      w.AdminSplit(c, {{c[0], c[1], c[2]}, {c[2], c[3], c[4], c[5]}}, {"m"})
          .code(),
      Code::kRejected);
  // A valid split still works afterwards.
  EXPECT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
}

TEST(Split, RejectedWhenRecraftDisabled) {
  auto opts = TestWorldOptions();
  opts.node.enable_recraft = false;
  World w(opts);
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  EXPECT_EQ(w.AdminSplit(c, {g1, g2}, {"m"}).code(), Code::kRejected);
}

TEST(Split, MissedFollowerCatchesUpViaPull) {
  SplitFixture f(7, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  // One member of g2 misses the whole split.
  ASSERT_TRUE(w.Crash(c[5]).ok());
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader({c[3], c[4]}));
  ASSERT_TRUE(w.Restart(c[5]).ok());
  // It recovers: epoch 1, member of g2, data restricted.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(c[5]).epoch() == 1 &&
               w.node(c[5]).config().mode == raft::ConfigMode::kStable;
      },
      10 * kSecond));
  ExpectConverged(w, g2);
  EXPECT_EQ(w.node(c[5]).config().members, g2);
}

TEST(Split, MissedSubclusterSavesItselfViaPull) {
  // The Fig. 3 scenario: an entire subcluster misses SplitLeaveJoint and
  // must pull from a completed sibling.
  SplitFixture f(8, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  // Ensure the leader is in g1 so g2 can be blindsided.
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(c) != kNoNode; }, kSecond));
  NodeId leader = w.LeaderOf(c);
  if (std::find(g1.begin(), g1.end(), leader) == g1.end()) {
    std::swap(g1, g2);
  }
  // Fire the split asynchronously (the admin reply only comes once the
  // leader's side completes; g2 will be cut off before then).
  raft::AdminSplit body;
  body.groups = {g1, g2};
  body.split_keys = {"m"};
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = body;
  w.net().Send(harness::kAdminId, leader,
               raft::MakeMessage(raft::Message(req)), 128);
  // Wait until C_joint committed and C_new was just appended at the leader
  // (kSplitLeaving). C_joint needs C_old's majority, so the partition must
  // come after; the C_new messages to g2 are still in flight and the
  // partition drops them at delivery time.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(leader).config().mode ==
               raft::ConfigMode::kSplitLeaving;
      },
      2 * kSecond));
  w.net().SetPartitions({g1, g2});
  // g1 completes the split on its own (commit quorums allow it).
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : g1) {
          if (w.node(id).epoch() != 1) return false;
        }
        return true;
      },
      15 * kSecond));
  // g2 is stuck in joint/leaving mode and cannot elect a leader.
  w.RunFor(2 * kSecond);
  EXPECT_EQ(w.LeaderOf(g2), kNoNode);
  // Heal the partition: g2's election attempts hit g1 nodes, receive PULL
  // responses, pull the committed C_new and complete their own split.
  w.net().ClearPartitions();
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : g2) {
          if (w.node(id).epoch() != 1) return false;
          if (w.node(id).config().mode != raft::ConfigMode::kStable)
            return false;
        }
        return true;
      },
      20 * kSecond));
  ASSERT_TRUE(w.WaitForLeader(g2));
  EXPECT_EQ(*w.Get(g2, "m1"), "vm1");
  // And g1 was never polluted by g2's post-split entries (or vice versa).
  harness::SafetyChecker checker(w);
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(Split, LeaderCrashBetweenPhases) {
  SplitFixture f(9, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(c) != kNoNode; }, kSecond));
  NodeId leader = w.LeaderOf(c);
  // Fire the split and kill the leader almost immediately: the new leader
  // holding C_joint (or C_new) finishes the protocol.
  (void)w.AdminSplit(c, {g1, g2}, {"m"}, /*timeout=*/50 * kMillisecond);
  ASSERT_TRUE(w.Crash(leader).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (id == leader) continue;
          if (w.node(id).config().ReconfigPending()) return false;
        }
        return true;
      },
      20 * kSecond));
  ASSERT_TRUE(w.Restart(leader).ok());
  w.RunFor(3 * kSecond);
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Whether the split completed or rolled back, both sides must be able to
  // serve their range. If it completed, epochs are 1 everywhere.
  bool split_done = w.node(c[0] == leader ? c[1] : c[0]).epoch() == 1;
  if (split_done) {
    ASSERT_TRUE(w.RunUntil([&]() { return w.node(leader).epoch() == 1; },
                           10 * kSecond))
        << "crashed leader rejoined its subcluster";
  } else {
    ASSERT_TRUE(w.WaitForLeader(c));
    EXPECT_TRUE(w.Put(c, "after", "v").ok());
  }
}

TEST(Split, EpochPrefixOrdersTerms) {
  SplitFixture f(10, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  uint64_t before = w.node(c[0]).current_et().raw();
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.RunUntil([&]() { return w.node(c[0]).epoch() == 1; },
                         10 * kSecond));
  EXPECT_GT(w.node(c[0]).current_et().raw(), before);
  EXPECT_EQ(w.node(c[0]).current_et().epoch(), 1u);
}

TEST(Split, SecondSplitAfterFirst) {
  SplitFixture f(11, 6);
  auto& w = f.w;
  auto& c = f.cluster;
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(g1));
  // Split g1 again: epochs go to 2 for its children.
  std::vector<NodeId> g1a{c[0]}, g1b{c[1], c[2]};
  ASSERT_TRUE(w.AdminSplit(g1, {g1a, g1b}, {"c"}).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(c[0]).epoch() == 2 && w.node(c[1]).epoch() == 2;
      },
      10 * kSecond));
  ASSERT_TRUE(w.WaitForLeader(g1a));
  ASSERT_TRUE(w.WaitForLeader(g1b));
  EXPECT_EQ(*w.Get(g1a, "a1"), "va1");
}

}  // namespace
}  // namespace recraft::test
