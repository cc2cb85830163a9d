// Log replication: commits, follower catch-up, conflict resolution,
// snapshot install, compaction, session dedup and convergence under faults.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

TEST(Replication, PutGetRoundTrip) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "alpha", "1").ok());
  auto v = w.Get(c, "alpha");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(*v, "1");
}

TEST(Replication, GetMissingKeyIsNotFound) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  auto v = w.Get(c, "nope");
  EXPECT_EQ(v.status().code(), Code::kNotFound);
}

TEST(Replication, OverwriteKey) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "k", "v1").ok());
  ASSERT_TRUE(w.Put(c, "k", "v2").ok());
  EXPECT_EQ(*w.Get(c, "k"), "v2");
}

TEST(Replication, AllReplicasApplyCommittedEntries) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(w.Put(c, "key" + std::to_string(i), "v").ok());
  }
  ExpectConverged(w, c);
  for (NodeId id : c) {
    EXPECT_EQ(harness::KvStoreOf(w.node(id)).size(), 20u) << "node " << id;
  }
}

TEST(Replication, FollowerCatchesUpAfterCrash) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  NodeId follower = c[0] == leader ? c[1] : c[0];
  ASSERT_TRUE(w.Crash(follower).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(w.Restart(follower).ok());
  ExpectConverged(w, c);
  EXPECT_EQ(harness::KvStoreOf(w.node(follower)).size(), 10u);
}

TEST(Replication, SurvivesLeaderCrashWithoutLosingCommits) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(c, "pre" + std::to_string(i), "v").ok());
  }
  NodeId leader = w.LeaderOf(c);
  ASSERT_TRUE(w.Crash(leader).ok());
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 5; ++i) {
    auto v = w.Get(c, "pre" + std::to_string(i));
    EXPECT_TRUE(v.ok()) << "lost committed key pre" << i;
  }
}

TEST(Replication, MinorityPartitionCannotCommit) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  std::vector<NodeId> minority{leader};
  std::vector<NodeId> majority;
  for (NodeId id : c) {
    if (id != leader) majority.push_back(id);
  }
  w.net().SetPartitions({minority, majority});
  // A put sent to the isolated ex-leader cannot commit.
  auto reply = w.Call(leader, kv::EncodeCommand([] {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = "iso";
    cmd.value = "x";
    return cmd;
  }()));
  // Either the node already stepped down (NotLeader) or the call timed out.
  if (reply.ok()) {
    EXPECT_NE(reply->status.code(), Code::kOk);
  }
  w.net().ClearPartitions();
  ASSERT_TRUE(w.WaitForLeader(c));
  auto v = w.Get(c, "iso");
  EXPECT_EQ(v.status().code(), Code::kNotFound);
}

TEST(Replication, DivergentUncommittedEntriesAreOverwritten) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  // Isolate the leader with one follower; its proposals cannot commit.
  NodeId buddy = c[0] == leader ? c[1] : c[0];
  std::vector<NodeId> majority;
  for (NodeId id : c) {
    if (id != leader && id != buddy) majority.push_back(id);
  }
  w.net().SetPartitions({{leader, buddy}, majority});
  (void)w.Call(leader, kv::EncodeCommand([] {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = "ghost";
    cmd.value = "x";
    return cmd;
  }()), 300 * kMillisecond);
  ASSERT_TRUE(w.WaitForLeader(majority));
  ASSERT_TRUE(w.Put(majority, "real", "y").ok());
  w.net().ClearPartitions();
  ExpectConverged(w, c);
  harness::SafetyChecker checker(w);
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_EQ(w.Get(c, "ghost").status().code(), Code::kNotFound);
  EXPECT_EQ(*w.Get(c, "real"), "y");
}

TEST(Replication, SnapshotInstallForFarBehindFollower) {
  auto opts = TestWorldOptions();
  opts.node.snapshot_threshold = 20;
  World w(opts);
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  NodeId follower = c[0] == leader ? c[1] : c[0];
  ASSERT_TRUE(w.Crash(follower).ok());
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(w.Put(c, "s" + std::to_string(i), "v").ok());
  }
  // The leader compacted past the follower's position.
  ASSERT_GT(w.node(w.LeaderOf(c)).log().base_index(), 0u);
  ASSERT_TRUE(w.Restart(follower).ok());
  ExpectConverged(w, c);
  EXPECT_EQ(harness::KvStoreOf(w.node(follower)).size(), 60u);
  EXPECT_GT(w.node(follower).counters().Get("recovery.install_snapshot"), 0u);
}

TEST(Replication, SessionDedupAcrossRetries) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  // Issue the same session command twice (client retry): applies once.
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "ctr";
  cmd.value = "first";
  cmd.client_id = 777;
  cmd.seq = 1;
  ASSERT_TRUE(w.Call(leader, kv::EncodeCommand(cmd))->status.ok());
  cmd.value = "retry-should-not-apply";
  auto second = w.Call(w.LeaderOf(c), kv::EncodeCommand(cmd));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->status.ok());  // replies with the recorded result
  EXPECT_EQ(*w.Get(c, "ctr"), "first");
}

TEST(Replication, ManyEntriesBatchAndCommit) {
  World w(TestWorldOptions());
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  NodeId leader = w.LeaderOf(c);
  // Fire 200 proposals without waiting, then expect all to converge.
  for (int i = 0; i < 200; ++i) {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = "b" + std::to_string(i);
    cmd.value = "v";
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = kv::EncodeCommand(cmd);
    w.net().Send(harness::kAdminId, leader,
                 raft::MakeMessage(raft::Message(req)), 64);
  }
  ExpectConverged(w, c, 10 * kSecond);
  EXPECT_EQ(harness::KvStoreOf(w.node(leader)).size(), 200u);
}

TEST(Replication, StateMachineSafetyUnderRandomFaults) {
  World w(TestWorldOptions(1234));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  Rng rng(77);
  for (int round = 0; round < 10; ++round) {
    NodeId victim = c[rng.Uniform(0, c.size() - 1)];
    ASSERT_TRUE(w.Crash(victim).ok());
    (void)w.Put(c, "r" + std::to_string(round), "v", 2 * kSecond);
    w.RunFor(300 * kMillisecond);
    ASSERT_TRUE(w.Restart(victim).ok());
    w.RunFor(300 * kMillisecond);
  }
  ExpectConverged(w, c, 10 * kSecond);
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace recraft::test
