// Crash-recovery integration: nodes are destroyed outright (CrashNode) and
// rebuilt purely from their SimDisk contents (RestartNode), with crash
// points injected into the in-flight WAL batch. The acceptance scenario
// crashes every node at least once mid-reconfiguration (split, merge,
// membership change) and requires the world to come back linearizable.
#include "storage/wal_storage.h"
#include <cstdlib>

#include "common/logging.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using storage::CrashPoint;
using storage::CrashSpec;

WorldOptions WalWorldOptions(uint64_t seed) {
  WorldOptions o = TestWorldOptions(seed);
  o.storage = harness::StorageMode::kWal;
  o.wal.flush_interval = 1 * kMillisecond;  // group commit window
  return o;
}

void FireAndForgetPuts(World& w, const std::vector<NodeId>& members, int n,
                       const std::string& prefix) {
  NodeId l = w.LeaderOf(members);
  if (l == kNoNode) return;
  for (int i = 0; i < n; ++i) {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = prefix + std::to_string(i);
    cmd.value = "v" + std::to_string(i);
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    w.net().Send(harness::kAdminId, l,
                 raft::MakeMessage(raft::Message(
                     raft::ClientRequest{req.req_id, req.from,
                                         kv::EncodeCommand(cmd)})),
                 64);
  }
}

TEST(WalRecovery, FollowerRebootsFromDiskAlone) {
  World w(WalWorldOptions(101));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  w.RunFor(50 * kMillisecond);  // let the group-commit window drain
  NodeId victim = c[0] == w.LeaderOf(c) ? c[1] : c[0];
  ASSERT_TRUE(w.CrashNode(victim).ok());
  ASSERT_TRUE(w.IsDown(victim));
  ASSERT_TRUE(w.RestartNode(victim).ok());
  // The store is rebuilt from the WAL alone, before any peer contact: the
  // boot replay already holds every committed-and-flushed write.
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 10u);
  EXPECT_GT(w.node(victim).counters().Get("node.boot"), 0u);
  ExpectConverged(w, c);
  EXPECT_EQ(*w.Get(c, "k3"), "v");
}

TEST(WalRecovery, LeaderCrashWithTornTailKeepsAckedWrites) {
  World w(WalWorldOptions(102));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  // Synchronously acknowledged writes — these must survive anything.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(c, "acked" + std::to_string(i), "v").ok());
  }
  // A storm the crash lands in the middle of.
  FireAndForgetPuts(w, c, 20, "storm");
  w.RunFor(3 * kMillisecond);
  NodeId leader = w.LeaderOf(c);
  ASSERT_NE(leader, kNoNode);
  ASSERT_TRUE(w.CrashNode(leader, CrashSpec{CrashPoint::kTornTail}).ok());
  ASSERT_TRUE(w.WaitForLeader(c, 10 * kSecond));
  ASSERT_TRUE(w.RestartNode(leader).ok());
  ExpectConverged(w, c, 15 * kSecond);
  for (int i = 0; i < 5; ++i) {
    auto v = w.Get(c, "acked" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << "lost acknowledged write acked" << i;
    EXPECT_EQ(*v, "v");
  }
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(WalRecovery, RebootsFromSnapshotPlusWalTail) {
  auto opts = WalWorldOptions(103);
  opts.node.snapshot_threshold = 10;
  World w(opts);
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 35; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  w.RunFor(50 * kMillisecond);
  NodeId victim = c[2] == w.LeaderOf(c) ? c[1] : c[2];
  ASSERT_GT(w.node(victim).log().base_index(), 0u) << "no compaction yet";
  ASSERT_TRUE(w.CrashNode(victim).ok());
  ASSERT_TRUE(w.RestartNode(victim).ok());
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 35u);
  EXPECT_GT(w.node(victim).log().base_index(), 0u);
  ExpectConverged(w, c);
}

TEST(WalRecovery, SnapshotLogDivergenceCrashIsRecoverable) {
  auto opts = WalWorldOptions(104);
  opts.node.snapshot_threshold = 10;
  World w(opts);
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  // Crash a follower right inside the group-commit window so a freshly
  // installed snapshot's WAL marker can still be in flight.
  NodeId victim = c[0] == w.LeaderOf(c) ? c[1] : c[0];
  ASSERT_TRUE(
      w.CrashNode(victim, CrashSpec{CrashPoint::kSnapLogDivergence}).ok());
  w.RunFor(100 * kMillisecond);
  ASSERT_TRUE(w.RestartNode(victim).ok());
  ExpectConverged(w, c, 15 * kSecond);
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 25u);
}

TEST(WalRecovery, DoubleCrashDuringRecovery) {
  World w(WalWorldOptions(105));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v").ok());
  }
  w.RunFor(50 * kMillisecond);
  NodeId victim = c[1] == w.LeaderOf(c) ? c[0] : c[1];
  ASSERT_TRUE(w.CrashNode(victim, CrashSpec{CrashPoint::kTornTail}).ok());
  ASSERT_TRUE(w.RestartNode(victim).ok());
  // Crash again immediately: the node replayed its WAL but processed no
  // events. Recovery is read-only, so the second boot sees the same disk.
  ASSERT_TRUE(w.CrashNode(victim, CrashSpec{CrashPoint::kLosePending}).ok());
  ASSERT_TRUE(w.RestartNode(victim).ok());
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 8u);
  ExpectConverged(w, c);
}

TEST(WalRecovery, WipedNodeRestartsBlank) {
  // WipeNode (the TC terminate step) must clear the durable medium too: a
  // reboot after a wipe is a spare, not a resurrected cluster member.
  World w(WalWorldOptions(106));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "k", "v").ok());
  NodeId victim = w.LeaderOf(c) == c[2] ? c[1] : c[2];
  std::vector<NodeId> rest;
  for (NodeId id : c) {
    if (id != victim) rest.push_back(id);
  }
  ASSERT_TRUE(
      w.AdminMemberChange(c, Change(raft::MemberChangeKind::kRemoveAndResize,
                                    {victim}))
          .ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(rest);
        return l != kNoNode && w.node(l).config().members == rest;
      },
      10 * kSecond));
  ASSERT_TRUE(w.WipeNode(victim).ok());
  ASSERT_TRUE(w.CrashNode(victim).ok());
  ASSERT_TRUE(w.RestartNode(victim).ok());
  EXPECT_TRUE(w.node(victim).config().members.empty());
  EXPECT_EQ(w.node(victim).cluster_uid(), 0u);
  EXPECT_EQ(harness::KvStoreOf(w.node(victim)).size(), 0u);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: a seeded chaos run that hard-crashes every node
// at least once, each mid-reconfiguration (split, merge, membership change),
// recovering solely from SimDisk contents, under the full safety checkers.

TEST(CrashChaos, EveryNodeCrashesMidReconfigAndRecovers) {
  if (std::getenv("RECRAFT_LOG") != nullptr) {
    Logger::Global().set_level(LogLevel::kDebug);
  }
  World w(WalWorldOptions(777));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  std::set<NodeId> crashed_once;
  const CrashPoint points[] = {CrashPoint::kTornTail,
                               CrashPoint::kPartialBatch,
                               CrashPoint::kLosePending};
  int point_cursor = 0;
  auto crash_and_restart = [&](NodeId id, Duration down_for) {
    ASSERT_TRUE(w.CrashNode(id, CrashSpec{points[point_cursor++ % 3]}).ok());
    crashed_once.insert(id);
    w.RunFor(down_for);
    ASSERT_TRUE(w.RestartNode(id).ok());
  };

  // Preload both halves of the key space.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(w.Put(c, "a" + std::to_string(i), "left").ok());
    ASSERT_TRUE(w.Put(c, "n" + std::to_string(i), "right").ok());
  }

  // --- Split, with one crash per future subcluster mid-protocol ---------
  {
    NodeId leader = w.LeaderOf(c);
    ASSERT_NE(leader, kNoNode);
    raft::AdminSplit body;
    body.groups = {g1, g2};
    body.split_keys = {"m"};
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = body;
    w.net().Send(harness::kAdminId, leader,
                 raft::MakeMessage(raft::Message(req)), 128);
    w.RunFor(30 * kMillisecond);  // C_joint / C_new in flight
    NodeId v1 = g1[leader == g1[0] ? 1 : 0];
    NodeId v2 = g2[leader == g2[2] ? 1 : 2];
    crash_and_restart(v1, 200 * kMillisecond);
    crash_and_restart(v2, 200 * kMillisecond);
    ASSERT_TRUE(w.RunUntil(
        [&]() {
          for (NodeId id : c) {
            if (w.IsDown(id) || w.IsCrashed(id)) continue;
            const auto& n = w.node(id);
            if (n.epoch() < 1 ||
                n.config().mode != raft::ConfigMode::kStable) {
              return false;
            }
          }
          return w.LeaderOf(g1) != kNoNode && w.LeaderOf(g2) != kNoNode;
        },
        60 * kSecond))
        << "split did not complete after crashes";
  }
  FireAndForgetPuts(w, g1, 5, "a-post");
  FireAndForgetPuts(w, g2, 5, "n-post");
  w.RunFor(200 * kMillisecond);

  // --- Membership change on g1, crashing its leader mid-change ----------
  {
    NodeId leader = w.LeaderOf(g1);
    ASSERT_NE(leader, kNoNode);
    raft::MemberChange mc;
    mc.kind = raft::MemberChangeKind::kRemoveAndResize;
    mc.nodes = {g1[leader == g1[2] ? 1 : 2]};
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = raft::AdminMember{mc};
    w.net().Send(harness::kAdminId, leader,
                 raft::MakeMessage(raft::Message(req)), 128);
    w.RunFor(5 * kMillisecond);  // the ConfMember entry is in flight
    crash_and_restart(leader, 300 * kMillisecond);
    // Liveness: g1 settles into SOME stable quorum-capable configuration
    // (the change may or may not have survived the crash — both are legal).
    ASSERT_TRUE(w.RunUntil(
        [&]() {
          NodeId l = w.LeaderOf(g1);
          if (l == kNoNode) return false;
          const auto& cfg = w.node(l).config();
          return !cfg.ReconfigPending() && cfg.fixed_quorum == 0;
        },
        60 * kSecond))
        << "membership change did not settle after leader crash";
    // Restore the full 3-node group for the merge step (idempotent if the
    // removal never committed).
    auto steps = w.AdminResizeTo(g1, g1, 30 * kSecond);
    ASSERT_TRUE(steps.ok()) << steps.status().ToString();
  }

  // --- Merge, crashing the coordinator leader and a participant ---------
  {
    ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(g1) != kNoNode; },
                           10 * kSecond));
    auto plan = w.MakeMergeDraft({g1, g2});
    ASSERT_TRUE(plan.ok());
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = raft::AdminMerge{*plan};
    NodeId coord_leader = w.LeaderOf(g1);
    w.net().Send(harness::kAdminId, coord_leader,
                 raft::MakeMessage(raft::Message(req)), 128);
    w.RunFor(20 * kMillisecond);  // 2PC prepares in flight
    crash_and_restart(coord_leader, 250 * kMillisecond);
    NodeId part = g2[w.LeaderOf(g2) == g2[0] ? 1 : 0];
    crash_and_restart(part, 250 * kMillisecond);
    // The merge either commits (a new coordinator leader resumes the 2PC
    // from its log) or aborts cleanly; either way every cluster must shed
    // its pending transaction and serve again. Retry until merged.
    std::vector<NodeId> all = c;
    std::sort(all.begin(), all.end());
    bool merged = w.RunUntil(
        [&]() {
          NodeId l = w.LeaderOf(all);
          return l != kNoNode && w.node(l).config().members == all &&
                 !w.node(l).merge_exchange_pending();
        },
        60 * kSecond);
    for (int attempt = 0; attempt < 3 && !merged; ++attempt) {
      auto cur1 = w.ConfigOf(g1).members;
      auto cur2 = w.ConfigOf(g2).members;
      Status s = w.AdminMerge({cur1, cur2}, {}, 30 * kSecond);
      (void)s;  // rejected/timeout is fine; check the world instead
      merged = w.RunUntil(
          [&]() {
            NodeId l = w.LeaderOf(all);
            return l != kNoNode && w.node(l).config().members == all &&
                   !w.node(l).merge_exchange_pending();
          },
          30 * kSecond);
    }
    std::string diag;
    if (!merged) {
      for (NodeId id : c) {
        diag += "\n n" + std::to_string(id) + ": " +
                (w.IsDown(id) ? "DOWN" : w.node(id).config().ToString() +
                                             " phase=" +
                                             std::to_string(static_cast<int>(
                                                 w.node(id).merge_phase())));
      }
    }
    ASSERT_TRUE(merged) << "clusters did not merge after crashes" << diag;
  }

  // --- Every remaining node gets its crash, under load ------------------
  std::vector<NodeId> all = c;
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : all) {
          if (w.IsDown(id) || w.node(id).merge_exchange_pending()) {
            return false;
          }
        }
        return true;
      },
      30 * kSecond));
  for (NodeId id : c) {
    if (crashed_once.count(id) > 0) continue;
    FireAndForgetPuts(w, all, 5, "tail" + std::to_string(id) + "-");
    w.RunFor(2 * kMillisecond);  // land the crash inside the flush window
    crash_and_restart(id, 150 * kMillisecond);
    ASSERT_TRUE(w.WaitForLeader(all, 30 * kSecond));
  }
  EXPECT_EQ(crashed_once.size(), c.size());

  // --- Verdict ----------------------------------------------------------
  ASSERT_TRUE(w.WaitForLeader(all, 30 * kSecond));
  ASSERT_TRUE(w.Put(all, "final", "ok", 20 * kSecond).ok());
  ExpectConverged(w, all, 20 * kSecond);
  // Preloaded data from both pre-split halves survived split + crashes +
  // merge-exchange reassembly.
  for (int i = 0; i < 8; ++i) {
    auto left = w.Get(all, "a" + std::to_string(i));
    ASSERT_TRUE(left.ok());
    EXPECT_EQ(*left, "left");
    auto right = w.Get(all, "n" + std::to_string(i));
    ASSERT_TRUE(right.ok());
    EXPECT_EQ(*right, "right");
  }
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // Applied history replay matches the live store (linearizability
  // witness). The merged cluster's store also holds data absorbed from the
  // pre-merge sources, so compare the replayed keys' values rather than
  // whole-store cardinality.
  NodeId l = w.LeaderOf(all);
  ASSERT_NE(l, kNoNode);
  harness::KvHistoryChecker kv_checker;
  auto it = checker.applied_kv().find(w.node(l).cluster_uid());
  ASSERT_NE(it, checker.applied_kv().end());
  auto expected = kv_checker.Replay(it->second, harness::KvStoreOf(w.node(l)).range());
  EXPECT_FALSE(expected.empty());
  for (const auto& [k, v] : expected) {
    auto got = harness::KvStoreOf(w.node(l)).Get(k);
    ASSERT_TRUE(got.ok()) << "committed key lost after crashes: " << k;
    EXPECT_EQ(*got, v) << "divergent value for " << k;
  }
}

}  // namespace
}  // namespace recraft::test
