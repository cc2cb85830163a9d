// Leader election: basic convergence, re-election on failure, term rules,
// leader stickiness and determinism.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

TEST(Election, SingleNodeBecomesLeaderImmediately) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(1);
  ASSERT_TRUE(w.WaitForLeader(c));
  EXPECT_EQ(w.LeaderOf(c), c[0]);
}

TEST(Election, ThreeNodeClusterElectsOneLeader) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  int leaders = 0;
  for (NodeId id : c) {
    if (w.node(id).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Election, FiveNodeClusterElectsOneLeader) {
  World w(TestWorldOptions(7));
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  w.RunFor(1 * kSecond);
  int leaders = 0;
  for (NodeId id : c) {
    if (w.node(id).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Election, ReelectsAfterLeaderCrash) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId old_leader = w.LeaderOf(c);
  ASSERT_TRUE(w.Crash(old_leader).ok());
  std::vector<NodeId> rest;
  for (NodeId id : c) {
    if (id != old_leader) rest.push_back(id);
  }
  ASSERT_TRUE(w.WaitForLeader(rest));
  EXPECT_NE(w.LeaderOf(rest), old_leader);
}

TEST(Election, NoQuorumNoLeader) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Crash(c[0]).ok());
  ASSERT_TRUE(w.Crash(c[1]).ok());
  w.RunFor(2 * kSecond);
  EXPECT_FALSE(w.node(c[2]).IsLeader());
}

TEST(Election, LeaderReturnsAfterQuorumRestored) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Crash(c[0]).ok());
  ASSERT_TRUE(w.Crash(c[1]).ok());
  w.RunFor(1 * kSecond);
  ASSERT_TRUE(w.Restart(c[0]).ok());
  ASSERT_TRUE(w.WaitForLeader(c));
}

TEST(Election, PartitionedMinorityCannotElect) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  // Partition two nodes away; the majority side keeps/el elects a leader,
  // the minority side cannot.
  w.net().SetPartitions({{c[0], c[1], c[2]}, {c[3], c[4]}});
  w.RunFor(2 * kSecond);
  EXPECT_NE(w.LeaderOf({c[0], c[1], c[2]}), kNoNode);
  EXPECT_FALSE(w.node(c[3]).IsLeader());
  EXPECT_FALSE(w.node(c[4]).IsLeader());
}

TEST(Election, HealedPartitionConvergesToOneLeader) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  w.net().SetPartitions({{c[0], c[1]}, {c[2], c[3], c[4]}});
  ASSERT_TRUE(w.WaitForLeader({c[2], c[3], c[4]}));
  w.net().ClearPartitions();
  w.RunFor(2 * kSecond);
  int leaders = 0;
  for (NodeId id : c) {
    if (w.node(id).IsLeader()) ++leaders;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(Election, ElectionSafetyHoldsUnderChurn) {
  World w(TestWorldOptions(99));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int round = 0; round < 5; ++round) {
    NodeId leader = w.LeaderOf(c);
    if (leader != kNoNode) ASSERT_TRUE(w.Crash(leader).ok());
    w.RunFor(500 * kMillisecond);
    if (leader != kNoNode) ASSERT_TRUE(w.Restart(leader).ok());
    w.RunFor(500 * kMillisecond);
  }
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(Election, DeterministicGivenSeed) {
  auto run = [](uint64_t seed) {
    World w(TestWorldOptions(seed));
    auto c = w.CreateCluster(3);
    w.RunFor(2 * kSecond);
    return std::make_tuple(w.LeaderOf(c), w.node(c[0]).current_et().raw(),
                           w.events().events_executed());
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(std::get<2>(run(5)), 0u);
}

}  // namespace
}  // namespace recraft::test
