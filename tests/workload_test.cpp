// Client-facing behaviour under load and reconfiguration: the router, the
// closed-loop client fleet, retry/dedup semantics, and KV-history
// linearizability witnessed across splits and merges.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using harness::ClientFleet;
using harness::ClientOptions;
using harness::Router;

TEST(RouterTest, ResolvesByRange) {
  Router r;
  r.SetClusters({Router::Entry{{1, 2, 3}, KeyRange("", "m")},
                 Router::Entry{{4, 5, 6}, KeyRange("m", "")}});
  ASSERT_NE(r.Resolve("alpha"), nullptr);
  EXPECT_EQ(r.Resolve("alpha")->members[0], 1u);
  EXPECT_EQ(r.Resolve("zulu")->members[0], 4u);
}

TEST(RouterTest, UpdateReplacesOverlappingEntries) {
  Router r;
  r.SetClusters({Router::Entry{{1}, KeyRange("", "m")},
                 Router::Entry{{2}, KeyRange("m", "")}});
  // A merge back into one cluster replaces both entries.
  r.UpdateCluster(KeyRange::Full(), {1, 2});
  EXPECT_EQ(r.NumClusters(), 1u);
  EXPECT_EQ(r.Resolve("zz")->members.size(), 2u);
}

TEST(RouterTest, UnknownKeyReturnsNull) {
  Router r;
  r.SetClusters({Router::Entry{{1}, KeyRange("a", "b")}});
  EXPECT_EQ(r.Resolve("zzz"), nullptr);
}

TEST(Workload, FleetCompletesOpsAndRecordsLatency) {
  World w(TestWorldOptions(1));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.value_bytes = 64;
  ClientFleet fleet(w, router, 8, copts);
  fleet.Start();
  w.RunFor(3 * kSecond);
  fleet.Stop();
  EXPECT_GT(fleet.TotalOps(), 100u);
  auto lat = fleet.PooledLatency();
  EXPECT_GT(lat.count(), 100u);
  EXPECT_GT(lat.MeanUs(), 0.0);
  EXPECT_GE(lat.Percentile(99), lat.Percentile(50));
}

TEST(Workload, FleetSurvivesLeaderCrash) {
  World w(TestWorldOptions(2));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientFleet fleet(w, router, 4, ClientOptions{});
  fleet.Start();
  w.RunFor(kSecond);
  uint64_t before_crash = fleet.TotalOps();
  ASSERT_TRUE(w.Crash(w.LeaderOf(c)).ok());
  w.RunFor(3 * kSecond);
  fleet.Stop();
  // Clients rode out the failover via retries and kept completing ops.
  EXPECT_GT(fleet.TotalOps(), before_crash + 50);
}

TEST(Workload, SessionsPreventDoubleApplicationUnderRetry) {
  // Force client retries with an aggressive retry timeout and a lossy
  // network; the applied history must never mutate a (client, seq) twice.
  auto opts = TestWorldOptions(3);
  opts.net.drop_probability = 0.05;
  World w(opts);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.retry_timeout = 100 * kMillisecond;
  copts.key_space = 50;  // hot keys: overwrites expose double-apply bugs
  ClientFleet fleet(w, router, 8, copts);
  fleet.Start();
  w.RunFor(5 * kSecond);
  fleet.Stop();
  w.net().set_drop_probability(0);
  ExpectConverged(w, c, 10 * kSecond);
  checker.Observe();
  ASSERT_TRUE(checker.ok()) << checker.Report();
  // Replaying the committed history with dedup yields exactly the live
  // store's contents — retried commands applied at most once.
  harness::KvHistoryChecker kv_checker;
  auto it = checker.applied_kv().find(w.node(c[0]).cluster_uid());
  ASSERT_NE(it, checker.applied_kv().end());
  auto diffs = kv_checker.CompareStore(it->second, harness::KvStoreOf(w.node(c[0])));
  EXPECT_TRUE(diffs.empty()) << diffs.front();
}

TEST(Workload, HistoryConsistentAcrossSplit) {
  // Clients run *through* a split; afterwards each subcluster's store must
  // equal the dedup-replay of the commands applied under its lineage,
  // restricted to its range.
  World w(TestWorldOptions(4));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.key_space = 1000;
  ClientFleet fleet(w, router, 16, copts);
  fleet.Start();
  w.RunFor(2 * kSecond);

  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"k00000500"}, 20 * kSecond).ok());
  router.SetClusters({Router::Entry{g1, KeyRange("", "k00000500")},
                      Router::Entry{g2, KeyRange("k00000500", "")}});
  w.RunFor(2 * kSecond);
  fleet.Stop();
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (w.node(id).epoch() != 1) return false;
        }
        return true;
      },
      20 * kSecond));
  checker.Observe();
  ASSERT_TRUE(checker.ok()) << checker.Report();

  // Build the full command history each subcluster observed: the shared
  // prefix (applied under the old uid) plus its own post-split commands.
  harness::KvHistoryChecker kv_checker;
  ClusterUid old_uid = 0;
  for (const auto& [uid, cmds] : checker.applied_kv()) {
    if (uid != w.node(g1[0]).cluster_uid() &&
        uid != w.node(g2[0]).cluster_uid()) {
      old_uid = uid;
    }
  }
  for (const auto& g : {g1, g2}) {
    ExpectConverged(w, g, 10 * kSecond);
    std::vector<kv::Command> lineage;
    auto pre = checker.applied_kv().find(old_uid);
    if (pre != checker.applied_kv().end()) {
      lineage.insert(lineage.end(), pre->second.begin(), pre->second.end());
    }
    auto post = checker.applied_kv().find(w.node(g[0]).cluster_uid());
    if (post != checker.applied_kv().end()) {
      lineage.insert(lineage.end(), post->second.begin(), post->second.end());
    }
    auto diffs = kv_checker.CompareStore(lineage, harness::KvStoreOf(w.node(g[0])));
    EXPECT_TRUE(diffs.empty())
        << "subcluster " << raft::NodesToString(g) << ": " << diffs.front();
  }
}

TEST(Workload, ReadsObserveLatestWrite) {
  World w(TestWorldOptions(5));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  // Interleave writes and reads on one key; every read must return the
  // value of the immediately preceding acknowledged write.
  for (int i = 0; i < 20; ++i) {
    std::string value = "v" + std::to_string(i);
    ASSERT_TRUE(w.Put(c, "hot", value).ok());
    auto got = w.Get(c, "hot");
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, value);
    if (i == 10) {
      // A failover in the middle must not lose the acknowledged value.
      ASSERT_TRUE(w.Crash(w.LeaderOf(c)).ok());
      ASSERT_TRUE(w.WaitForLeader(c));
      auto after = w.Get(c, "hot");
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*after, value);
      for (NodeId id : c) {
        if (w.IsCrashed(id)) ASSERT_TRUE(w.Restart(id).ok());
      }
    }
  }
}

TEST(ReadIndex, GetsAppendNoLogEntries) {
  World w(TestWorldOptions(7));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(w.Put(c, "k" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  NodeId leader = w.LeaderOf(c);
  const Index log_before = w.node(leader).last_log_index();
  for (int i = 0; i < 10; ++i) {
    auto got = w.ReadGet(c, "k" + std::to_string(i));
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
  auto scan = w.Scan(c, "k0", "", 100);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan->entries.size(), 10u);
  // The acceptance bar: linearizable reads cost zero log entries.
  ASSERT_EQ(w.LeaderOf(c), leader);
  EXPECT_EQ(w.node(leader).last_log_index(), log_before);
  EXPECT_GT(w.node(leader).counters().Get("read.served"), 0u);
}

TEST(ReadIndex, StaleLeaderCannotServeStaleValue) {
  // A deposed leader must fail the quorum check, never answer with its
  // stale applied state — the linearizability regression for reads across
  // a leader change.
  World w(TestWorldOptions(8));
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "hot", "old").ok());
  NodeId stale = w.LeaderOf(c);

  // Cut the leader off and let the majority move on.
  std::vector<NodeId> majority;
  for (NodeId id : c) {
    if (id != stale) majority.push_back(id);
  }
  w.net().SetPartitions({{stale}, majority});
  ASSERT_TRUE(w.WaitForLeader(majority, 10 * kSecond));
  ASSERT_TRUE(w.Put(majority, "hot", "new", 10 * kSecond).ok());

  // The stale leader still believes it leads (until CheckQuorum fires);
  // a ReadIndex get sent to it must NOT return "old".
  kv::Command get;
  get.op = kv::OpType::kGet;
  get.key = "hot";
  auto reply =
      w.Call(stale, raft::ReadRequest{kv::EncodeCommand(get)}, 3 * kSecond);
  if (reply.ok()) {
    // Served only after stepping down: a failure code, never a stale OK.
    EXPECT_FALSE(reply->status.ok()) << "stale read returned a value";
  }

  w.net().ClearPartitions();
  ASSERT_TRUE(w.WaitForLeader(c, 10 * kSecond));
  auto healed = w.ReadGet(c, "hot", 10 * kSecond);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(*healed, "new");
}

TEST(Workload, MixedGetScanCasUnderSplitMergeCrashChurn) {
  // The satellite coverage test: sessions mixing point reads, range reads
  // and CAS writes ride through a split, a crash/restart and a merge; the
  // KV history replay (with CAS-aware dedup semantics) must match the
  // surviving store exactly.
  auto opts = TestWorldOptions(9);
  opts.net.drop_probability = 0.02;
  World w(opts);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));
  const ClusterUid uid_pre = w.node(c[0]).cluster_uid();
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.key_space = 500;
  copts.value_bytes = 32;
  copts.get_fraction = 0.3;
  copts.scan_fraction = 0.2;
  copts.cas_fraction = 0.3;
  copts.scan_limit = 5;
  copts.retry_timeout = 300 * kMillisecond;
  ClientFleet fleet(w, router, 8, copts);
  fleet.Start();
  w.RunFor(2 * kSecond);

  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"k00000250"}, 20 * kSecond).ok());
  router.SetClusters({Router::Entry{g1, KeyRange("", "k00000250")},
                      Router::Entry{g2, KeyRange("k00000250", "")}});
  w.RunFor(kSecond);
  ASSERT_TRUE(w.WaitForLeader(g1, 10 * kSecond));
  ASSERT_TRUE(w.WaitForLeader(g2, 10 * kSecond));
  const ClusterUid uid_g1 = w.node(g1[0]).cluster_uid();
  const ClusterUid uid_g2 = w.node(g2[0]).cluster_uid();

  // Crash/restart a follower of each side mid-traffic.
  for (NodeId victim : {g1[1], g2[1]}) {
    ASSERT_TRUE(w.Crash(victim).ok());
  }
  w.RunFor(500 * kMillisecond);
  for (NodeId victim : {g1[1], g2[1]}) {
    ASSERT_TRUE(w.Restart(victim).ok());
  }
  w.RunFor(kSecond);

  ASSERT_TRUE(w.AdminMerge({g1, g2}, {}, 40 * kSecond).ok());
  router.UpdateCluster(KeyRange::Full(), c);
  w.RunFor(2 * kSecond);
  fleet.Stop();
  w.net().set_drop_probability(0);
  EXPECT_GT(fleet.TotalOps(), 200u);
  EXPECT_GT(fleet.TotalReads(), 20u);

  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(c) != kNoNode; },
                         10 * kSecond));
  ExpectConverged(w, c, 15 * kSecond);
  checker.Observe();
  ASSERT_TRUE(checker.ok()) << checker.Report();

  // Per-half replay: each half's lineage is pre-split -> its subcluster ->
  // merged, in temporal order (so per-client session seqs stay monotone);
  // the merged store restricted to that half must match exactly. Reads
  // contribute nothing, CAS applies conditionally.
  harness::KvHistoryChecker kv_checker;
  NodeId l = w.LeaderOf(c);
  const ClusterUid uid_merged = w.node(l).cluster_uid();
  const auto& store = harness::KvStoreOf(w.node(l));
  size_t total_expected = 0;
  const KeyRange left("", "k00000250"), right("k00000250", "");
  for (const auto& [half, own_uid] :
       {std::pair{left, uid_g1}, std::pair{right, uid_g2}}) {
    std::vector<kv::Command> lineage;
    for (ClusterUid uid : {uid_pre, own_uid, uid_merged}) {
      auto it = checker.applied_kv().find(uid);
      if (it != checker.applied_kv().end()) {
        lineage.insert(lineage.end(), it->second.begin(), it->second.end());
      }
    }
    auto expected = kv_checker.Replay(lineage, half);
    total_expected += expected.size();
    for (const auto& [k, v] : expected) {
      auto got = store.Get(k);
      ASSERT_TRUE(got.ok()) << "missing key " << k;
      EXPECT_EQ(*got, v) << "key " << k;
    }
  }
  EXPECT_EQ(store.size(), total_expected);
}

TEST(Workload, ZipfianSkewConcentratesLoad) {
  World w(TestWorldOptions(10));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.key_space = 1000;
  copts.value_bytes = 32;
  copts.zipf_theta = 0.99;
  copts.get_fraction = 0.3;
  copts.scan_fraction = 0.1;
  std::map<std::string, uint64_t> per_key;
  copts.on_op_complete = [&](const std::string& key, TimePoint) {
    ++per_key[key];
  };
  ClientFleet fleet(w, router, 4, copts);
  fleet.Start();
  w.RunFor(3 * kSecond);
  fleet.Stop();
  ASSERT_GT(fleet.TotalOps(), 200u);
  uint64_t hottest = 0;
  for (const auto& [k, n] : per_key) hottest = std::max(hottest, n);
  // Under theta=0.99 the hottest key draws a large share; uniform over
  // 1000 keys would put ~0.1% on each.
  EXPECT_GT(static_cast<double>(hottest),
            0.05 * static_cast<double>(fleet.TotalOps()));
}

TEST(Workload, GetFractionMixesReads) {
  World w(TestWorldOptions(6));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  Router router;
  router.SetClusters({Router::Entry{c, KeyRange::Full()}});
  ClientOptions copts;
  copts.get_fraction = 0.5;
  copts.key_space = 100;
  ClientFleet fleet(w, router, 4, copts);
  fleet.Start();
  w.RunFor(3 * kSecond);
  fleet.Stop();
  EXPECT_GT(fleet.TotalOps(), 100u);
  // Some keys were written despite the read mix.
  ExpectConverged(w, c, 5 * kSecond);
  EXPECT_GT(harness::KvStoreOf(w.node(c[0])).size(), 10u);
}

}  // namespace
}  // namespace recraft::test
