// Membership change (§IV): AddAndResize / RemoveAndResize / ResizeQuorum,
// the AR-RPC and joint-consensus baselines, quorum-overlap math, precondition
// enforcement (P1/P2'/P3) and fault tolerance in the intermediate config.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using raft::MemberChangeKind;

struct MemberFixture {
  explicit MemberFixture(uint64_t seed, size_t n = 3,
                         bool auto_resize = true) {
    auto opts = TestWorldOptions(seed);
    opts.node.auto_resize_quorum = auto_resize;
    w = std::make_unique<World>(opts);
    cluster = w->CreateCluster(n);
    EXPECT_TRUE(w->WaitForLeader(cluster));
    EXPECT_TRUE(w->Put(cluster, "seed", "v").ok());
  }
  bool Settled(const std::vector<NodeId>& target,
               Duration timeout = 10 * kSecond) {
    std::vector<NodeId> goal = target;
    std::sort(goal.begin(), goal.end());
    return w->RunUntil(
        [&]() {
          NodeId l = w->LeaderOf(goal);
          if (l == kNoNode) return false;
          const auto& n = w->node(l);
          const auto& cfg = n.config();
          return cfg.members == goal && cfg.fixed_quorum == 0 &&
                 !cfg.ReconfigPending() &&
                 n.commit_index() >= n.log().last_index();
        },
        timeout);
  }
  std::unique_ptr<World> w;
  std::vector<NodeId> cluster;
};

TEST(MemberMath, AddResizeQuorumFormula) {
  // Figure 1c: 2-node cluster + 3 nodes -> Q_new-q = 4.
  EXPECT_EQ(raft::AddResizeQuorum(2, 3), 4u);
  // Adding 1 to a 3-node cluster: Q = 3+1-2+1 = 3 = majority(4): one step.
  EXPECT_EQ(raft::AddResizeQuorum(3, 1), 3u);
  EXPECT_EQ(raft::AddResizeQuorum(3, 1), raft::MajorityOf(4));
  // Adding 2 to an even cluster needs no resize step (§IV-B).
  EXPECT_EQ(raft::AddResizeQuorum(4, 2), raft::MajorityOf(6));
  // Adding 2 to an odd cluster does.
  EXPECT_GT(raft::AddResizeQuorum(3, 2), raft::MajorityOf(5));
}

TEST(MemberMath, RemoveResizeQuorumFormula) {
  // Q_new-q = N_old - Q_old + 1; overlap with every old majority.
  EXPECT_EQ(raft::RemoveResizeQuorum(5), 3u);
  EXPECT_EQ(raft::RemoveResizeQuorum(4), 2u);
  EXPECT_EQ(raft::RemoveResizeQuorum(3), 2u);
  for (size_t n_old = 2; n_old <= 9; ++n_old) {
    for (size_t r = 1; r < raft::MajorityOf(n_old); ++r) {
      size_t q = raft::RemoveResizeQuorum(n_old);
      size_t n_new = n_old - r;
      ASSERT_LE(q, n_new) << "infeasible quorum for N=" << n_old << " r=" << r;
      // Overlap: any Q_old of old and q of new intersect. Worst case the
      // old quorum contains all removed nodes.
      ASSERT_GT(q + (raft::MajorityOf(n_old) - r), n_new)
          << "no overlap for N=" << n_old << " r=" << r;
      // Never below the new majority (q only shrinks via ResizeQuorum).
      ASSERT_GE(q, raft::MajorityOf(n_new));
    }
  }
}

TEST(MemberMath, JointConsensusVoteBounds) {
  // §IV-B: V_best = max(Q_new, Q_old), V_worst = |N_new-N_old| +
  // min(Q_new, Q_old). Reconfiguring 2 -> 5: best 3, worst 5.
  EXPECT_EQ(raft::JointBestVotes(2, 5), 3u);
  EXPECT_EQ(raft::JointWorstVotes(2, 5), 5u);
  // ReCraft needs 4 votes there (Fig. 1): worse than JC best by 1, better
  // than JC worst by 1.
  EXPECT_EQ(raft::AddResizeQuorum(2, 3), 4u);
}

TEST(Membership, AddAndResizeSingleNode) {
  MemberFixture f(1);
  NodeId fresh = f.w->CreateSpareNode();
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddAndResize, {fresh}))
                  .ok());
  auto target = f.cluster;
  target.push_back(fresh);
  ASSERT_TRUE(f.Settled(target));
  // The new node learned the data.
  ASSERT_TRUE(f.w->RunUntil(
      [&]() { return harness::KvStoreOf(f.w->node(fresh)).size() == 1; }, 5 * kSecond));
}

TEST(Membership, AddTwoNodesAtOnce) {
  MemberFixture f(2, 4);  // even cluster: single consensus step (§IV-B)
  NodeId a = f.w->CreateSpareNode();
  NodeId b = f.w->CreateSpareNode();
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddAndResize, {a, b}))
                  .ok());
  auto target = f.cluster;
  target.push_back(a);
  target.push_back(b);
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, RemoveOneNode) {
  MemberFixture f(3, 5);
  std::vector<NodeId> target(f.cluster.begin(), f.cluster.end() - 1);
  ASSERT_TRUE(f.w->AdminMemberChange(f.cluster,
                                     Change(MemberChangeKind::kRemoveAndResize,
                                            {f.cluster.back()}))
                  .ok());
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, RemoveTwoNodesAtOnce) {
  MemberFixture f(4, 5);
  std::vector<NodeId> target(f.cluster.begin(), f.cluster.end() - 2);
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster,
                   Change(MemberChangeKind::kRemoveAndResize,
                          {f.cluster[3], f.cluster[4]}))
                  .ok());
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, RemoveQuorumManyRejected) {
  MemberFixture f(5, 5);
  // r = 3 = Q_old violates P2' and must be rejected outright.
  Status s = f.w->AdminMemberChange(
      f.cluster, Change(MemberChangeKind::kRemoveAndResize,
                        {f.cluster[2], f.cluster[3], f.cluster[4]}));
  EXPECT_EQ(s.code(), Code::kRejected);
}

TEST(Membership, ResizeToChainsRemovals) {
  // 5 -> 2 is infeasible in one step (r=3 >= Q_old=3): AdminResizeTo must
  // chain removals, matching §VII-E's "extra consensus step" case.
  MemberFixture f(6, 5);
  std::vector<NodeId> target{f.cluster[0], f.cluster[1]};
  auto steps = f.w->AdminResizeTo(f.cluster, target, 30 * kSecond);
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  EXPECT_GE(*steps, 2);
  ASSERT_TRUE(f.Settled(target));
}

// Under steady client load the leader's log always ends in uncommitted
// client entries, so "commit reaches the last index" never holds. The
// resize settles on its own configuration entry instead: committed, applied
// on a quorum of the new members, no second step outstanding.
TEST(Membership, ResizeToSettlesUnderSteadyLoad) {
  // The sim-reshard cloud profile: 5 +/- 0.5 ms one way, 32 MB/s, 10 ms
  // ticks, 20 ms heartbeats, 100-200 ms election timeouts.
  WorldOptions o;
  o.seed = 1;
  o.net.base_latency = 5 * kMillisecond;
  o.net.jitter = 500;
  o.net.bandwidth_bytes_per_sec = 32ULL << 20;
  o.node.tick_interval = 10 * kMillisecond;
  o.node.heartbeat_ticks = 2;
  o.node.election_timeout_min_ticks = 10;
  o.node.election_timeout_max_ticks = 20;
  World w(o);
  ASSERT_TRUE(w.BootstrapShards(1, 3, {}).ok());
  harness::Router router(&w.shard_map());
  harness::ClientOptions copts;
  copts.value_bytes = 512;
  copts.key_space = 100000;
  copts.zipf_theta = 0.99;
  copts.get_fraction = 0.2;
  harness::ClientFleet fleet(w, router, 36, copts);
  fleet.Start();
  w.RunFor(2 * kSecond);

  const std::vector<NodeId> members = w.shard_map().Shards()[0].members;
  std::vector<NodeId> target = members;
  for (int i = 0; i < 3; ++i) target.push_back(w.CreateSpareNode());
  const TimePoint t0 = w.now();
  auto steps = w.AdminResizeTo(members, target, 5 * kSecond);
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  EXPECT_EQ(*steps, 1);
  EXPECT_LE(w.now() - t0, 5 * kSecond);
  EXPECT_GT(fleet.TotalOps(), 0u);
}

TEST(Membership, RemovedLeaderStepsDown) {
  MemberFixture f(7, 3);
  ASSERT_TRUE(f.w->RunUntil(
      [&]() { return f.w->LeaderOf(f.cluster) != kNoNode; }, 5 * kSecond));
  NodeId leader = f.w->LeaderOf(f.cluster);
  std::vector<NodeId> target;
  for (NodeId id : f.cluster) {
    if (id != leader) target.push_back(id);
  }
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster,
                   Change(MemberChangeKind::kRemoveAndResize, {leader}))
                  .ok());
  ASSERT_TRUE(f.Settled(target));
  ASSERT_TRUE(f.w->RunUntil([&]() { return !f.w->node(leader).IsLeader(); },
                            5 * kSecond));
  EXPECT_TRUE(f.w->node(leader).IsRetired());
}

// A member cut off before its removal reached it shares the survivors'
// epoch-term until it next campaigns. World::ConfigOf must settle that tie
// for the member that knows most (highest commit index), not for whichever
// member is listed first — or AdminResizeTo re-issues the removal.
TEST(Membership, ConfigOfPrefersCommittedViewOverPartitionedRemovedMember) {
  MemberFixture f(11, 3);
  NodeId leader = f.w->LeaderOf(f.cluster);
  ASSERT_NE(leader, kNoNode);
  NodeId victim = kNoNode;
  std::vector<NodeId> rest;
  for (NodeId id : f.cluster) {
    if (id != leader && victim == kNoNode) {
      victim = id;
    } else {
      rest.push_back(id);
    }
  }
  for (NodeId id : rest) f.w->net().Block(victim, id);
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster,
                   Change(MemberChangeKind::kRemoveAndResize, {victim}))
                  .ok());
  ASSERT_TRUE(f.Settled(rest));
  // The tie this test is about: same et, but the victim never saw the
  // removal commit.
  ASSERT_EQ(f.w->node(victim).current_et().raw(),
            f.w->node(leader).current_et().raw());
  ASSERT_LT(f.w->node(victim).commit_index(), f.w->node(leader).commit_index());
  std::vector<NodeId> victim_first{victim};
  victim_first.insert(victim_first.end(), rest.begin(), rest.end());
  std::sort(rest.begin(), rest.end());
  EXPECT_EQ(f.w->ConfigOf(victim_first).members, rest);
  auto steps = f.w->AdminResizeTo(victim_first, rest, 10 * kSecond);
  ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  EXPECT_EQ(*steps, 0);  // nothing left to do
}

TEST(Membership, VanillaAddServerRpc) {
  MemberFixture f(8, 3);
  NodeId fresh = f.w->CreateSpareNode();
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddServer, {fresh}))
                  .ok());
  auto target = f.cluster;
  target.push_back(fresh);
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, VanillaRemoveServerRpc) {
  MemberFixture f(9, 4);
  std::vector<NodeId> target(f.cluster.begin(), f.cluster.end() - 1);
  ASSERT_TRUE(f.w->AdminMemberChange(f.cluster,
                                     Change(MemberChangeKind::kRemoveServer,
                                            {f.cluster.back()}))
                  .ok());
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, VanillaJointConsensus) {
  MemberFixture f(10, 3);
  NodeId a = f.w->CreateSpareNode();
  NodeId b = f.w->CreateSpareNode();
  // Arbitrary change in one JC operation: replace one node and add two.
  std::vector<NodeId> target{f.cluster[0], f.cluster[1], a, b};
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kJointEnter, target))
                  .ok());
  ASSERT_TRUE(f.Settled(target));
}

TEST(Membership, WorksWithRecraftDisabled) {
  // The baselines must run with enable_recraft=false, the resize family not.
  auto opts = TestWorldOptions(11);
  opts.node.enable_recraft = false;
  World w(opts);
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "k", "v").ok());
  NodeId fresh = w.CreateSpareNode();
  EXPECT_EQ(w.AdminMemberChange(
                 c, Change(MemberChangeKind::kAddAndResize, {fresh}))
                .code(),
            Code::kRejected);
  EXPECT_TRUE(
      w.AdminMemberChange(c, Change(MemberChangeKind::kAddServer, {fresh}))
          .ok());
}

TEST(Membership, PreconditionP1BlocksOverlappingChanges) {
  // Two back-to-back changes: the second must wait for (or be rejected
  // until) the first to commit; the end state reflects both eventually.
  MemberFixture f(12, 3, /*auto_resize=*/false);
  NodeId a = f.w->CreateSpareNode();
  NodeId b = f.w->CreateSpareNode();
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddAndResize, {a}))
                  .ok());
  // Immediately try another change: P1 may reject it while the first is
  // uncommitted or while the quorum is still resized.
  Status s = f.w->AdminMemberChange(
      f.cluster, Change(MemberChangeKind::kAddAndResize, {b}));
  // With auto_resize off, the config sits at fixed quorum: ReconfigPending
  // is false (AddAndResize leaves no pending phase) but a second add is
  // legal; what P1 forbids is an *uncommitted* conf entry. Accept either
  // outcome, then settle explicitly.
  if (!s.ok()) {
    EXPECT_EQ(s.code(), Code::kRejected);
  }
  // Resize the quorum manually to finish.
  auto cur = f.w->ConfigOf(f.cluster).members;
  if (f.w->ConfigOf(cur).fixed_quorum != 0) {
    ASSERT_TRUE(f.w->AdminMemberChange(
                     cur, Change(MemberChangeKind::kResizeQuorum))
                    .ok());
  }
  ASSERT_TRUE(f.w->RunUntil(
      [&]() {
        NodeId l = f.w->LeaderOf(cur);
        return l != kNoNode && f.w->node(l).config().fixed_quorum == 0;
      },
      10 * kSecond));
}

TEST(Membership, IntermediateQuorumToleratesFailure) {
  // Figure 1c discussion: 2 + 3 nodes, C_new-q has Q=4; any ONE node can
  // fail during the intermediate config and the cluster still commits.
  MemberFixture f(13, 2, /*auto_resize=*/false);
  std::vector<NodeId> fresh;
  for (int i = 0; i < 3; ++i) fresh.push_back(f.w->CreateSpareNode());
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddAndResize, fresh))
                  .ok());
  auto target = f.cluster;
  target.insert(target.end(), fresh.begin(), fresh.end());
  // Let the new nodes catch up, then fail one of them.
  ASSERT_TRUE(f.w->RunUntil(
      [&]() {
        NodeId l = f.w->LeaderOf(target);
        return l != kNoNode && f.w->node(l).config().fixed_quorum == 4;
      },
      10 * kSecond));
  ASSERT_TRUE(f.w->Crash(fresh[0]).ok());
  EXPECT_TRUE(f.w->Put(target, "during-resize", "v", 5 * kSecond).ok());
  // But two failures exceed f = 5 - 4 = 1: commits stall.
  ASSERT_TRUE(f.w->Crash(fresh[1]).ok());
  EXPECT_FALSE(f.w->Put(target, "stalled", "v", 2 * kSecond).ok());
  // Heal and finish.
  ASSERT_TRUE(f.w->Restart(fresh[0]).ok());
  ASSERT_TRUE(f.w->Restart(fresh[1]).ok());
  ASSERT_TRUE(f.w->RunUntil(
      [&]() { return f.w->LeaderOf(target) != kNoNode; }, 10 * kSecond));
}

TEST(Membership, HistoryRecordsChanges) {
  MemberFixture f(14, 3);
  NodeId fresh = f.w->CreateSpareNode();
  ASSERT_TRUE(f.w->AdminMemberChange(
                   f.cluster, Change(MemberChangeKind::kAddAndResize, {fresh}))
                  .ok());
  auto target = f.cluster;
  target.push_back(fresh);
  ASSERT_TRUE(f.Settled(target));
  NodeId l = f.w->LeaderOf(target);
  bool found = false;
  for (const auto& rec : f.w->node(l).history()) {
    if (rec.kind == raft::ReconfigRecord::Kind::kMember &&
        rec.members.size() == 4) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace recraft::test
