// Property-based tests: parameterized seed sweeps injecting random faults
// (crashes, restarts, partitions, message drops) during normal operation,
// splits, merges and membership changes, asserting the §VI safety
// properties after every simulated tick:
//   - Election Safety (one leader per cluster/epoch/term, ever)
//   - State Machine Safety / Log Matching (identical applied entries)
//   - Cluster Well-Formedness (same-epoch clusters identical or disjoint)
// plus liveness at quiescence (surviving clusters commit new entries) and
// KV-history consistency (live stores match the replayed command sequence).
#include "tests/test_util.h"

namespace recraft::test {
namespace {

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

struct ChaosOptions {
  int rounds = 12;
  double crash_prob = 0.4;
  double partition_prob = 0.25;
  double drop_prob = 0.02;
  Duration round_len = 400 * kMillisecond;
};

/// Random fault schedule over `nodes`; every crash is followed by a restart
/// within two rounds, partitions always heal.
class ChaosMonkey {
 public:
  ChaosMonkey(World& w, std::vector<NodeId> nodes, uint64_t seed,
              ChaosOptions opts = {})
      : w_(w), nodes_(std::move(nodes)), rng_(seed), opts_(opts) {}

  void Round() {
    // Heal previous damage with one-round lag.
    if (!healing_.empty()) {
      for (NodeId n : healing_) ASSERT_TRUE(w_.Restart(n).ok());
      healing_.clear();
    }
    if (partitioned_) {
      w_.net().ClearPartitions();
      partitioned_ = false;
    }
    w_.net().set_drop_probability(rng_.Chance(0.5) ? opts_.drop_prob : 0.0);
    if (rng_.Chance(opts_.crash_prob)) {
      NodeId victim = nodes_[rng_.Uniform(0, nodes_.size() - 1)];
      if (!w_.IsCrashed(victim)) {
        ASSERT_TRUE(w_.Crash(victim).ok());
        healing_.push_back(victim);
      }
    }
    if (rng_.Chance(opts_.partition_prob)) {
      // Random bisection.
      std::vector<NodeId> a, b;
      for (NodeId n : nodes_) (rng_.Chance(0.5) ? a : b).push_back(n);
      if (!a.empty() && !b.empty()) {
        w_.net().SetPartitions({a, b});
        partitioned_ = true;
      }
    }
    w_.RunFor(opts_.round_len);
  }

  void HealAll() {
    for (NodeId n : healing_) ASSERT_TRUE(w_.Restart(n).ok());
    healing_.clear();
    // One sweep clears partitions plus any blocks / per-link overrides;
    // the global drop probability is not link state, reset it explicitly.
    w_.net().HealAll();
    w_.net().set_drop_probability(0);
  }

 private:
  World& w_;
  std::vector<NodeId> nodes_;
  Rng rng_;
  ChaosOptions opts_;
  std::vector<NodeId> healing_;
  bool partitioned_ = false;
};

void DriveTraffic(World& w, const std::vector<NodeId>& members, int n,
                  const std::string& prefix) {
  // Fire-and-forget puts at whatever node currently leads; losses are fine,
  // the checker only validates what committed.
  NodeId l = w.LeaderOf(members);
  if (l == kNoNode) return;
  for (int i = 0; i < n; ++i) {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = prefix + std::to_string(i);
    cmd.value = "v" + std::to_string(i);
    cmd.client_id = 555;
    cmd.seq = 0;  // no dedup: unique keys
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = kv::EncodeCommand(cmd);
    w.net().Send(harness::kAdminId, l, raft::MakeMessage(raft::Message(req)),
                 64);
  }
}

TEST_P(SeedSweep, NormalOperationSafeUnderChaos) {
  World w(TestWorldOptions(GetParam()));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  ChaosMonkey chaos(w, c, GetParam() * 31 + 7);
  for (int round = 0; round < 12; ++round) {
    DriveTraffic(w, c, 5, "r" + std::to_string(round) + "-");
    chaos.Round();
  }
  chaos.HealAll();
  // Liveness at quiescence: the cluster commits a fresh entry.
  ASSERT_TRUE(w.WaitForLeader(c));
  EXPECT_TRUE(w.Put(c, "final", "ok", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Applied history matches a live store.
  ExpectConverged(w, c, 10 * kSecond);
  harness::KvHistoryChecker kv_checker;
  auto it = checker.applied_kv().find(w.node(c[0]).cluster_uid());
  if (it != checker.applied_kv().end()) {
    auto diffs = kv_checker.CompareStore(it->second, harness::KvStoreOf(w.node(c[0])));
    EXPECT_TRUE(diffs.empty()) << diffs.front();
  }
}

TEST_P(SeedSweep, SplitSafeUnderChaos) {
  World w(TestWorldOptions(GetParam() + 1000));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};

  // Fire the split asynchronously, then shake the world while it runs.
  NodeId leader = w.LeaderOf(c);
  raft::AdminSplit body;
  body.groups = {g1, g2};
  body.split_keys = {"m"};
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = body;
  w.net().Send(harness::kAdminId, leader,
               raft::MakeMessage(raft::Message(req)), 128);

  ChaosMonkey chaos(w, c, GetParam() * 13 + 3);
  for (int round = 0; round < 10; ++round) chaos.Round();
  chaos.HealAll();

  // The split either completed everywhere or never left C_old; either way
  // safety held and the system is live.
  EXPECT_TRUE(checker.ok()) << checker.Report();
  bool completed = w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (w.node(id).epoch() == 0) return false;
          if (w.node(id).config().mode != raft::ConfigMode::kStable)
            return false;
        }
        return true;
      },
      30 * kSecond);
  if (completed) {
    ASSERT_TRUE(w.WaitForLeader(g1, 10 * kSecond));
    ASSERT_TRUE(w.WaitForLeader(g2, 10 * kSecond));
    EXPECT_TRUE(w.Put(g1, "after-l", "x", 10 * kSecond).ok());
    EXPECT_TRUE(w.Put(g2, "zafter-r", "y", 10 * kSecond).ok());
  } else {
    // Not completed: the original cluster must still be able to serve
    // (possibly still in a joint phase, which allows regular entries).
    ASSERT_TRUE(w.WaitForLeader(c, 10 * kSecond));
  }
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST_P(SeedSweep, MergeSafeUnderChaos) {
  World w(TestWorldOptions(GetParam() + 2000));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto ranges = *KeyRange::Full().SplitAt({"m"});
  auto c1 = w.CreateCluster(3, ranges[0]);
  auto c2 = w.CreateCluster(3, ranges[1]);
  ASSERT_TRUE(w.WaitForLeader(c1));
  ASSERT_TRUE(w.WaitForLeader(c2));
  ASSERT_TRUE(w.Put(c1, "a", "1").ok());
  ASSERT_TRUE(w.Put(c2, "z", "2").ok());
  std::vector<NodeId> all = c1;
  all.insert(all.end(), c2.begin(), c2.end());
  std::sort(all.begin(), all.end());

  auto plan = w.MakeMergeDraft({c1, c2});
  ASSERT_TRUE(plan.ok());
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMerge{*plan};
  w.net().Send(harness::kAdminId, w.LeaderOf(c1),
               raft::MakeMessage(raft::Message(req)), 128);

  // Milder chaos: the merge 2PC requires every subcluster to retain a
  // quorum (the paper's liveness assumption).
  ChaosOptions copts;
  copts.crash_prob = 0.3;
  copts.partition_prob = 0.15;
  ChaosMonkey chaos(w, all, GetParam() * 17 + 5, copts);
  for (int round = 0; round < 10; ++round) chaos.Round();
  chaos.HealAll();

  EXPECT_TRUE(checker.ok()) << checker.Report();
  // With all faults healed, the merge must eventually complete (liveness,
  // Theorem 2 case 4) — or have aborted cleanly, leaving both clusters
  // serving. Either way the system makes progress.
  bool merged = w.RunUntil(
      [&]() {
        int ok = 0;
        for (NodeId id : all) {
          const auto& n = w.node(id);
          if (n.config().members == all && !n.merge_exchange_pending()) ++ok;
        }
        return ok >= 4 && w.LeaderOf(all) != kNoNode;
      },
      60 * kSecond);
  if (merged) {
    EXPECT_TRUE(w.Put(all, "merged", "yes", 10 * kSecond).ok());
  } else {
    ASSERT_TRUE(w.WaitForLeader(c1, 20 * kSecond));
    ASSERT_TRUE(w.WaitForLeader(c2, 20 * kSecond));
  }
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST_P(SeedSweep, MembershipChangesSafeUnderChaos) {
  World w(TestWorldOptions(GetParam() + 3000));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  std::vector<NodeId> spares;
  for (int i = 0; i < 3; ++i) spares.push_back(w.CreateSpareNode());

  // Grow to 6 while the monkey shakes everything (spares included).
  std::vector<NodeId> everyone = c;
  everyone.insert(everyone.end(), spares.begin(), spares.end());
  NodeId leader = w.LeaderOf(c);
  raft::MemberChange mc;
  mc.kind = raft::MemberChangeKind::kAddAndResize;
  mc.nodes = spares;
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMember{mc};
  w.net().Send(harness::kAdminId, leader,
               raft::MakeMessage(raft::Message(req)), 128);

  ChaosOptions copts;
  copts.crash_prob = 0.3;
  ChaosMonkey chaos(w, everyone, GetParam() * 19 + 11, copts);
  for (int round = 0; round < 8; ++round) chaos.Round();
  chaos.HealAll();

  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Whatever happened, a leader exists among the current configuration and
  // can commit.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(everyone);
        return l != kNoNode &&
               w.node(l).commit_index() >= w.node(l).log().last_index();
      },
      30 * kSecond));
  NodeId l = w.LeaderOf(everyone);
  EXPECT_TRUE(w.Put(w.node(l).config().members, "final", "x", 10 * kSecond)
                  .ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<uint64_t>(1, 21));

// Regression for the reconfig-reentrancy use-after-free (the seed's
// `malloc(): invalid size` abort): HandleAppendReply held a Progress&
// across AdvanceCommit, whose ApplyCommitted can run a committed
// reconfiguration (split completion, merge transition, member removal,
// step-down) that clears progress_ — the subsequent p.next/p.match writes
// hit freed heap. The scenario chains every reconfiguration kind under
// crash/restart + partition chaos with traced applies; the commit of each
// reconfiguration entry is driven by an append reply, which is exactly the
// dangling path, so pre-fix this aborts deterministically under ASan.
TEST(ReconfigReentrancy, StaleReplyAfterReconfigChaos) {
  World w(TestWorldOptions(0xD5F1));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "a", "1").ok());
  ASSERT_TRUE(w.Put(c, "z", "2").ok());
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};

  // Phase 1: split, fired asynchronously so chaos overlaps the joint
  // phases and stale replies race the C_new commit.
  raft::AdminSplit split;
  split.groups = {g1, g2};
  split.split_keys = {"m"};
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = split;
  w.net().Send(harness::kAdminId, w.LeaderOf(c),
               raft::MakeMessage(raft::Message(req)), 128);
  ChaosMonkey chaos(w, c, 0xD5F1 * 29 + 13);
  for (int round = 0; round < 8; ++round) {
    DriveTraffic(w, g1, 3, "s1-" + std::to_string(round) + "-");
    DriveTraffic(w, g2, 3, "s2-" + std::to_string(round) + "-");
    chaos.Round();
  }
  chaos.HealAll();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Faults healed: liveness demands the split resolves (completes on both
  // sides or never left C_old, in which case we re-issue synchronously).
  bool split_done = w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (w.node(id).epoch() == 0) return false;
          if (w.node(id).config().mode != raft::ConfigMode::kStable)
            return false;
        }
        return true;
      },
      60 * kSecond);
  if (!split_done) {
    ASSERT_TRUE(w.WaitForLeader(c, 20 * kSecond));
    ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}, 60 * kSecond).ok());
  }
  ASSERT_TRUE(w.WaitForLeader(g1, 20 * kSecond));
  ASSERT_TRUE(w.WaitForLeader(g2, 20 * kSecond));
  EXPECT_TRUE(w.Put(g1, "after-left", "x", 10 * kSecond).ok());
  EXPECT_TRUE(w.Put(g2, "zafter-right", "y", 10 * kSecond).ok());

  // Phase 2: merge the subclusters back, again with chaos over the 2PC so
  // prepare/commit handling overlaps crashes and partitions.
  auto plan = w.MakeMergeDraft({g1, g2});
  ASSERT_TRUE(plan.ok());
  raft::ClientRequest mreq;
  mreq.req_id = w.NextReqId();
  mreq.from = harness::kAdminId;
  mreq.body = raft::AdminMerge{*plan};
  w.net().Send(harness::kAdminId, w.LeaderOf(g1),
               raft::MakeMessage(raft::Message(mreq)), 128);
  ChaosOptions mild;
  mild.crash_prob = 0.25;
  mild.partition_prob = 0.15;
  ChaosMonkey chaos2(w, c, 0xD5F1 * 37 + 17, mild);
  for (int round = 0; round < 6; ++round) chaos2.Round();
  chaos2.HealAll();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  std::vector<NodeId> all = c;
  std::sort(all.begin(), all.end());
  bool merged = w.RunUntil(
      [&]() {
        int ok = 0;
        for (NodeId id : all) {
          const auto& n = w.node(id);
          if (n.config().members == all && !n.merge_exchange_pending()) ++ok;
        }
        return ok >= 4 && w.LeaderOf(all) != kNoNode;
      },
      90 * kSecond);
  std::vector<NodeId> members = merged ? all : g1;

  // Phase 3: membership churn — remove a follower, then add it back, with
  // traffic in flight so straggler replies from the removed peer land after
  // the removal commits (the PruneProgress path).
  ASSERT_TRUE(w.WaitForLeader(members, 20 * kSecond));
  NodeId leader = w.LeaderOf(members);
  NodeId victim = kNoNode;
  for (NodeId id : members) {
    if (id != leader) {
      victim = id;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  DriveTraffic(w, members, 10, "churn-");
  // AdminResizeTo drives the same Remove/AddAndResize ops but waits for
  // each step (and its chained ResizeQuorum) to commit, so the back-to-back
  // changes cannot race the previous entry's commit.
  std::vector<NodeId> shrunk;
  for (NodeId id : members) {
    if (id != victim) shrunk.push_back(id);
  }
  ASSERT_TRUE(w.AdminResizeTo(members, shrunk, 30 * kSecond).ok());
  DriveTraffic(w, shrunk, 10, "churn2-");
  ASSERT_TRUE(w.AdminResizeTo(shrunk, members, 30 * kSecond).ok());

  EXPECT_TRUE(w.Put(members, "final", "ok", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectConverged(w, members, 10 * kSecond);
}

// Regression for the StartMerge ordering bug uncovered by the reentrancy
// sweep: the coordinator runtime was set up only after Propose, so a
// single-node coordinator cluster — whose CTX' commits and applies
// synchronously inside Propose — never recorded local_tx_applied and the
// 2PC stalled forever. Pre-fix this times out; post-fix the merge completes.
TEST(ReconfigReentrancy, SingleNodeCoordinatorMergeCompletes) {
  World w(TestWorldOptions(0xAB1E));
  auto ranges = *KeyRange::Full().SplitAt({"m"});
  auto c1 = w.CreateCluster(1, ranges[0]);
  auto c2 = w.CreateCluster(3, ranges[1]);
  ASSERT_TRUE(w.WaitForLeader(c1));
  ASSERT_TRUE(w.WaitForLeader(c2));
  ASSERT_TRUE(w.Put(c1, "a", "1").ok());
  ASSERT_TRUE(w.Put(c2, "z", "2").ok());
  // Coordinator is c1 (the cluster the admin contacts): a single node.
  ASSERT_TRUE(w.AdminMerge({c1, c2}, {}, 60 * kSecond).ok());
  std::vector<NodeId> all = c1;
  all.insert(all.end(), c2.begin(), c2.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : all) {
          const auto& n = w.node(id);
          if (!(n.config().members == all) || n.merge_exchange_pending())
            return false;
        }
        return w.LeaderOf(all) != kNoNode;
      },
      60 * kSecond));
  EXPECT_TRUE(w.Put(all, "merged", "yes", 10 * kSecond).ok());
  auto a = w.Get(all, "a", 10 * kSecond);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(*a, "1");
  auto z = w.Get(all, "z", 10 * kSecond);
  ASSERT_TRUE(z.ok());
  EXPECT_EQ(*z, "2");
}

// Chained merges must not grow exchange_store_ without bound: every merge
// seals one snapshot per participant, and before the ExchangeDone gossip
// nothing ever reclaimed them. Chain three merges (4 clusters -> 1) and
// assert every sealed snapshot is eventually pruned once the exchanges
// complete cluster-wide.
TEST(ChainedMerges, ExchangeStoreIsPruned) {
  World w(TestWorldOptions(0xEC5));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto all = w.CreateCluster(12);
  ASSERT_TRUE(w.WaitForLeader(all));
  ASSERT_TRUE(w.Put(all, "a1", "v").ok());
  ASSERT_TRUE(w.Put(all, "h1", "v").ok());
  ASSERT_TRUE(w.Put(all, "p1", "v").ok());
  ASSERT_TRUE(w.Put(all, "t1", "v").ok());
  std::vector<std::vector<NodeId>> gs;
  for (int i = 0; i < 4; ++i) {
    gs.emplace_back(all.begin() + i * 3, all.begin() + (i + 1) * 3);
  }
  ASSERT_TRUE(w.AdminSplit(all, gs, {"h", "p", "t"}, 20 * kSecond).ok());
  for (auto& g : gs) ASSERT_TRUE(w.WaitForLeader(g));

  // Merge left to right: (g0+g1) -> m, (m+g2) -> m, (m+g3) -> all.
  std::vector<NodeId> merged = gs[0];
  for (int i = 1; i < 4; ++i) {
    ASSERT_TRUE(w.AdminMerge({merged, gs[i]}, {}, 60 * kSecond).ok())
        << "merge step " << i;
    merged.insert(merged.end(), gs[i].begin(), gs[i].end());
    std::sort(merged.begin(), merged.end());
    ASSERT_TRUE(w.RunUntil(
        [&]() {
          for (NodeId id : merged) {
            const auto& n = w.node(id);
            if (n.config().members != merged || n.merge_exchange_pending()) {
              return false;
            }
          }
          return w.LeaderOf(merged) != kNoNode;
        },
        60 * kSecond))
        << "merge step " << i << " did not settle";
    // The in-flight transaction may legitimately hold one snapshot per
    // source until every member finishes its exchange; the bound we assert
    // here is "at most the sources of the two most recent transactions".
    for (NodeId id : merged) {
      EXPECT_LE(w.node(id).exchange_store_size(), 4u)
          << "node " << id << " after merge step " << i;
    }
  }

  // Once the last exchange completes cluster-wide, the gossip drains every
  // retained snapshot on every node.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : all) {
          if (w.node(id).exchange_store_size() != 0) return false;
        }
        return true;
      },
      20 * kSecond))
      << "exchange stores not pruned; n" << all[0] << " holds "
      << w.node(all[0]).exchange_store_size();

  // The merged cluster still serves everything.
  EXPECT_TRUE(w.Put(all, "final", "ok", 10 * kSecond).ok());
  EXPECT_EQ(*w.Get(all, "a1"), "v");
  EXPECT_EQ(*w.Get(all, "t1"), "v");
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace recraft::test
