// ReCraft merge protocol (§III-C): 2PC decisions through each cluster's
// log, snapshot exchange, resumption at (E_new, 0), abort paths, coordinator
// failure recovery, missed-out nodes, and resize-at-merge.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

// Two (or three) adjacent clusters created by splitting one preloaded
// cluster — the natural way to obtain disjoint adjacent ranges.
struct MergeFixture {
  MergeFixture(uint64_t seed, int ways, size_t per_cluster = 3)
      : w(TestWorldOptions(seed)) {
    size_t total = per_cluster * static_cast<size_t>(ways);
    auto all = w.CreateCluster(total);
    EXPECT_TRUE(w.WaitForLeader(all));
    EXPECT_TRUE(w.Put(all, "a1", "va1").ok());
    EXPECT_TRUE(w.Put(all, "h1", "vh1").ok());
    EXPECT_TRUE(w.Put(all, "p1", "vp1").ok());
    std::vector<std::vector<NodeId>> gs;
    std::vector<std::string> keys;
    for (int i = 0; i < ways; ++i) {
      gs.emplace_back(all.begin() + i * per_cluster,
                      all.begin() + (i + 1) * per_cluster);
    }
    if (ways == 2) keys = {"m"};
    if (ways == 3) keys = {"h", "p"};
    EXPECT_TRUE(w.AdminSplit(all, gs, keys).ok());
    for (auto& g : gs) EXPECT_TRUE(w.WaitForLeader(g));
    groups = gs;
  }

  bool MergedAndServing(const std::vector<NodeId>& members,
                        Duration timeout = 20 * kSecond) {
    return w.RunUntil(
        [&]() {
          for (NodeId id : members) {
            if (w.IsCrashed(id)) continue;
            const auto& n = w.node(id);
            if (n.config().members != members) return false;
            if (n.merge_exchange_pending()) return false;
          }
          return w.LeaderOf(members) != kNoNode;
        },
        timeout);
  }

  World w;
  std::vector<std::vector<NodeId>> groups;
};

TEST(Merge, TwoClustersMerge) {
  MergeFixture f(1, 2);
  auto& w = f.w;
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  // Data from both sides is present.
  EXPECT_EQ(*w.Get(all, "a1"), "va1");
  EXPECT_EQ(*w.Get(all, "p1"), "vp1");
  // And the merged cluster accepts new writes across the whole range.
  ASSERT_TRUE(w.Put(all, "zz", "tail").ok());
  EXPECT_EQ(*w.Get(all, "zz"), "tail");
}

TEST(Merge, EpochIsMaxPlusOne) {
  MergeFixture f(2, 2);
  auto& w = f.w;
  // Both subclusters are at epoch 1 after the split; the merged cluster
  // must resume at epoch 2.
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  for (NodeId id : all) {
    EXPECT_EQ(w.node(id).epoch(), 2u) << "node " << id;
  }
}

TEST(Merge, ThreeClustersMerge) {
  MergeFixture f(3, 3);
  auto& w = f.w;
  ASSERT_TRUE(
      w.AdminMerge({f.groups[0], f.groups[1], f.groups[2]}, {}, 40 * kSecond)
          .ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all, 40 * kSecond));
  EXPECT_EQ(*w.Get(all, "a1"), "va1");
  EXPECT_EQ(*w.Get(all, "h1"), "vh1");
  EXPECT_EQ(*w.Get(all, "p1"), "vp1");
}

TEST(Merge, WritesDuringTxPhaseAreServed) {
  // Between CTX' and the outcome, clusters serve normal requests (§III-C.1).
  MergeFixture f(4, 2);
  auto& w = f.w;
  // Make the participant slow to respond by delaying the link, then write
  // into the coordinator while the 2PC is pending would require fine timing;
  // instead verify writes right up to the merge and after it.
  ASSERT_TRUE(w.Put(f.groups[0], "a9", "pre-merge").ok());
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  EXPECT_EQ(*w.Get(all, "a9"), "pre-merge");
}

TEST(Merge, AbortWhenParticipantBusy) {
  MergeFixture f(5, 2);
  auto& w = f.w;
  // Park the participant in a pending reconfiguration: crash enough nodes
  // that its membership change cannot commit, leaving P1 violated.
  // Simpler deterministic route: start a merge between g1 and g0 first and
  // let a second, conflicting merge arrive while the first transaction is
  // still recorded. Instead we use the cleanest observable abort: the
  // participant is already party to another merge transaction.
  auto plan1 = w.MakeMergeDraft({f.groups[0], f.groups[1]});
  ASSERT_TRUE(plan1.ok());
  // Deliver a prepare for a *different* transaction directly to the
  // participant leader, as if another coordinator raced us.
  ASSERT_TRUE(w.RunUntil(
      [&]() { return w.LeaderOf(f.groups[1]) != kNoNode; }, 5 * kSecond));
  // Satisfy P3 on the participant leader so the fake prepare is recorded
  // rather than answered with a transient retry.
  ASSERT_TRUE(w.Put(f.groups[1], "n0", "warm").ok());
  // Occupy the participant with a fake pending transaction (same shape,
  // different transaction id, as if a second coordinator raced us).
  raft::MergePlan fake = *plan1;
  fake.tx = w.NextTxId();
  fake.new_uid = raft::DeriveMergeUid(fake.tx);
  raft::MergePrepareReq req;
  req.from = harness::kAdminId;
  req.plan = fake;
  w.net().Send(harness::kAdminId, w.LeaderOf(f.groups[1]),
               raft::MakeMessage(raft::Message(req)), 128);
  w.RunFor(200 * kMillisecond);
  // Now the real merge: the participant votes NO (busy with `fake`), the
  // coordinator commits C_abort, and both clusters keep serving separately.
  Status s = w.AdminMerge({f.groups[0], f.groups[1]});
  EXPECT_EQ(s.code(), Code::kRejected) << s.ToString();
  ASSERT_TRUE(w.WaitForLeader(f.groups[0]));
  EXPECT_TRUE(w.Put(f.groups[0], "a5", "still-separate").ok());
  EXPECT_EQ(w.node(w.LeaderOf(f.groups[0])).epoch(), 1u);
}

TEST(Merge, AbortRetransmittedUntilParticipantsAck) {
  // Regression for the abort-path liveness hole: the coordinator used to
  // tear its runtime down the moment C_abort applied, so a participant that
  // recorded CTX' depended on the one-shot abort fan-out. If that message
  // was lost, the participant's pending transaction blocked every future
  // reconfiguration forever. The coordinator must keep retransmitting the
  // abort (mirroring the commit path) until every participant acks.
  MergeFixture f(13, 3);
  auto& w = f.w;
  const auto& g0 = f.groups[0];  // coordinator cluster
  const auto& g1 = f.groups[1];  // records CTX' and votes OK
  const auto& g2 = f.groups[2];  // votes NO (busy with another transaction)
  // Warm every cluster so prepares are recorded rather than answered Busy.
  ASSERT_TRUE(w.Put(g0, "a8", "warm").ok());
  ASSERT_TRUE(w.Put(g1, "h8", "warm").ok());
  ASSERT_TRUE(w.Put(g2, "p8", "warm").ok());

  // Occupy g2 with a fake pending transaction so it votes NO on the real
  // one (same trick as AbortWhenParticipantBusy).
  auto fake_draft = w.MakeMergeDraft({g0, g2});
  ASSERT_TRUE(fake_draft.ok());
  raft::MergePlan fake = *fake_draft;
  fake.tx = w.NextTxId();
  fake.new_uid = raft::DeriveMergeUid(fake.tx);
  raft::MergePrepareReq fake_req;
  fake_req.from = harness::kAdminId;
  fake_req.plan = fake;
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(g2) != kNoNode; },
                         5 * kSecond));
  w.net().Send(harness::kAdminId, w.LeaderOf(g2),
               raft::MakeMessage(raft::Message(fake_req)), 128);
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(g2);
        return l != kNoNode && w.node(l).config().merge_tx.has_value();
      },
      5 * kSecond));

  // Delay every g2 -> g0 link so the NO vote (and the abort decision)
  // arrives well after g1 has recorded its OK.
  for (NodeId c : g2) {
    for (NodeId a : g0) w.net().SetLinkLatency(c, a, 1500 * kMillisecond);
  }

  // Fire the real three-way merge asynchronously.
  auto plan = w.MakeMergeDraft({g0, g1, g2});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(g0) != kNoNode; },
                         5 * kSecond));
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMerge{*plan};
  w.net().Send(harness::kAdminId, w.LeaderOf(g0),
               raft::MakeMessage(raft::Message(req)), 128);

  // Wait for g1 to durably record its OK decision, give its reply a moment
  // to reach the coordinator, then cut every g0 <-> g1 link: the one-shot
  // abort fan-out to g1 is guaranteed to be lost.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(g1);
        if (l == kNoNode) return false;
        const auto& n = w.node(l);
        return n.config().merge_tx.has_value() &&
               n.config().merge_tx->tx == plan->tx &&
               n.config().merge_tx_index <= n.last_applied();
      },
      5 * kSecond));
  w.RunFor(100 * kMillisecond);
  for (NodeId a : g0) {
    for (NodeId b : g1) w.net().Block(a, b);
  }

  // The delayed NO arrives; the coordinator commits and applies C_abort.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId a : g0) {
          if (w.node(a).counters().Get("merge.aborted") > 0) return true;
        }
        return false;
      },
      10 * kSecond));
  // Let the (doomed) one-shot fan-out window pass while g1 is unreachable.
  w.RunFor(300 * kMillisecond);
  // Targeted unblock, NOT HealAll(): the g2 -> g0 latency must stay up so
  // g2's (still-delayed) traffic cannot perturb the retransmission window.
  for (NodeId a : g0) {
    for (NodeId b : g1) w.net().Unblock(a, b);
  }

  // The fix: the coordinator keeps retransmitting the abort, so g1 clears
  // its pending transaction once the partition heals.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId b : g1) {
          if (w.node(b).config().merge_tx.has_value()) return false;
        }
        return true;
      },
      20 * kSecond))
      << "g1 still holds CTX': "
      << w.node(g1[0]).config().ToString();

  // And g1 is reconfigurable again: a fresh merge with g0 completes.
  { auto st = w.AdminMerge({g0, g1}, {}, 60 * kSecond); ASSERT_TRUE(st.ok()) << st.ToString(); }
  std::vector<NodeId> merged;
  merged.insert(merged.end(), g0.begin(), g0.end());
  merged.insert(merged.end(), g1.begin(), g1.end());
  std::sort(merged.begin(), merged.end());
  ASSERT_TRUE(f.MergedAndServing(merged, 30 * kSecond));
}

TEST(Merge, AbortResumedAfterCoordinatorLeaderChange) {
  // The remaining abort-path gap: C_abort clears the config's merge fields,
  // so a coordinator leader elected *after* the abort applied used to have
  // nothing to resume retransmission from — a participant that recorded
  // CTX' and lost the fan-out stayed blocked forever. Every coordinator-
  // source member now keeps the aborted plan (unsettled_aborts_) until the
  // replicated ConfAbortSettled marker confirms all participants acked.
  MergeFixture f(14, 3);
  auto& w = f.w;
  const auto& g0 = f.groups[0];  // coordinator cluster
  const auto& g1 = f.groups[1];  // records CTX' and votes OK
  const auto& g2 = f.groups[2];  // votes NO (busy with another transaction)
  ASSERT_TRUE(w.Put(g0, "a8", "warm").ok());
  ASSERT_TRUE(w.Put(g1, "h8", "warm").ok());
  ASSERT_TRUE(w.Put(g2, "p8", "warm").ok());

  // Occupy g2 so it votes NO on the real transaction.
  auto fake_draft = w.MakeMergeDraft({g0, g2});
  ASSERT_TRUE(fake_draft.ok());
  raft::MergePlan fake = *fake_draft;
  fake.tx = w.NextTxId();
  fake.new_uid = raft::DeriveMergeUid(fake.tx);
  raft::MergePrepareReq fake_req;
  fake_req.from = harness::kAdminId;
  fake_req.plan = fake;
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(g2) != kNoNode; },
                         5 * kSecond));
  w.net().Send(harness::kAdminId, w.LeaderOf(g2),
               raft::MakeMessage(raft::Message(fake_req)), 128);
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(g2);
        return l != kNoNode && w.node(l).config().merge_tx.has_value();
      },
      5 * kSecond));

  // Delay every g2 -> g0 link so the NO vote arrives after g1's OK.
  for (NodeId c : g2) {
    for (NodeId a : g0) w.net().SetLinkLatency(c, a, 1500 * kMillisecond);
  }

  auto plan = w.MakeMergeDraft({g0, g1, g2});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(g0) != kNoNode; },
                         5 * kSecond));
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMerge{*plan};
  w.net().Send(harness::kAdminId, w.LeaderOf(g0),
               raft::MakeMessage(raft::Message(req)), 128);

  // g1 durably records its OK decision, then loses contact with g0: the
  // abort fan-out cannot reach it.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(g1);
        if (l == kNoNode) return false;
        const auto& n = w.node(l);
        return n.config().merge_tx.has_value() &&
               n.config().merge_tx->tx == plan->tx &&
               n.config().merge_tx_index <= n.last_applied();
      },
      5 * kSecond));
  w.RunFor(100 * kMillisecond);
  for (NodeId a : g0) {
    for (NodeId b : g1) w.net().Block(a, b);
  }

  // The delayed NO arrives; the coordinator commits and applies C_abort.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId a : g0) {
          if (w.node(a).counters().Get("merge.aborted") > 0) return true;
        }
        return false;
      },
      10 * kSecond));
  // Wait until the abort entry applied on every live g0 member (so any of
  // them can become the resuming leader), then kill the current leader:
  // the one node that still held the kCommitting runtime.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId a : g0) {
          if (w.node(a).unsettled_abort_count() == 0) return false;
        }
        return true;
      },
      10 * kSecond));
  NodeId old_leader = w.LeaderOf(g0);
  ASSERT_NE(old_leader, kNoNode);
  ASSERT_TRUE(w.Crash(old_leader).ok());
  std::vector<NodeId> g0_rest;
  for (NodeId a : g0) {
    if (a != old_leader) g0_rest.push_back(a);
  }
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(g0_rest);
        return l != kNoNode && l != old_leader;
      },
      15 * kSecond));
  w.RunFor(200 * kMillisecond);
  w.net().HealAll();  // drops the whole g0 x g1 block set at once

  // The fix: the NEW coordinator leader — which never ran this 2PC —
  // resumes the abort retransmission from its unsettled_aborts_ record, so
  // g1 clears its pending transaction once the partition heals.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId b : g1) {
          if (w.node(b).config().merge_tx.has_value()) return false;
        }
        return true;
      },
      30 * kSecond))
      << "g1 still holds CTX' after coordinator leader change: "
      << w.node(g1[0]).config().ToString();

  // Once all participants acked, the ConfAbortSettled marker clears the
  // bookkeeping on every live coordinator member.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId a : g0_rest) {
          if (w.node(a).unsettled_abort_count() != 0) return false;
        }
        return true;
      },
      20 * kSecond))
      << "abort never settled on the coordinator cluster";
  ASSERT_TRUE(w.Restart(old_leader).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() { return w.node(old_leader).unsettled_abort_count() == 0; },
      20 * kSecond));

  // And both clusters are reconfigurable again.
  { auto st = w.AdminMerge({g0, g1}, {}, 60 * kSecond); ASSERT_TRUE(st.ok()) << st.ToString(); }
  std::vector<NodeId> merged;
  merged.insert(merged.end(), g0.begin(), g0.end());
  merged.insert(merged.end(), g1.begin(), g1.end());
  std::sort(merged.begin(), merged.end());
  ASSERT_TRUE(f.MergedAndServing(merged, 30 * kSecond));
}

TEST(Merge, CoordinatorLeaderCrashDuringPrepare) {
  MergeFixture f(6, 2);
  auto& w = f.w;
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  ASSERT_TRUE(w.RunUntil(
      [&]() { return w.LeaderOf(f.groups[0]) != kNoNode; }, 5 * kSecond));
  // Satisfy P3 (an entry committed in the leader's current term) so the raw
  // merge request below is not rejected as Busy.
  ASSERT_TRUE(w.Put(f.groups[0], "a0", "warm").ok());
  NodeId coord_leader = w.LeaderOf(f.groups[0]);
  // Fire the merge and kill the coordinator leader before it can finish.
  auto plan = w.MakeMergeDraft({f.groups[0], f.groups[1]});
  ASSERT_TRUE(plan.ok());
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMerge{*plan};
  w.net().Send(harness::kAdminId, coord_leader,
               raft::MakeMessage(raft::Message(req)), 128);
  // Let the CTX' entry replicate, then crash the leader.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : f.groups[0]) {
          if (w.node(id).config().merge_tx.has_value()) return true;
        }
        return false;
      },
      5 * kSecond));
  ASSERT_TRUE(w.Crash(coord_leader).ok());
  // The new coordinator-cluster leader resumes the 2PC from its log and the
  // merge completes without the crashed node.
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        int merged = 0;
        for (NodeId id : all) {
          if (w.IsCrashed(id)) continue;
          const auto& n = w.node(id);
          if (n.config().members == all && !n.merge_exchange_pending()) {
            ++merged;
          }
        }
        return merged >= 5 && w.LeaderOf(all) != kNoNode;
      },
      30 * kSecond));
  EXPECT_TRUE(checker.ok()) << checker.Report();
  // The crashed ex-leader rejoins the merged cluster after restart.
  ASSERT_TRUE(w.Restart(coord_leader).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(coord_leader).config().members == all &&
               !w.node(coord_leader).merge_exchange_pending();
      },
      20 * kSecond));
  EXPECT_EQ(*w.Get(all, "a1"), "va1");
}

TEST(Merge, ParticipantFollowerMissesEverything) {
  MergeFixture f(7, 2);
  auto& w = f.w;
  NodeId sleeper = f.groups[1].back();
  if (sleeper == w.LeaderOf(f.groups[1])) sleeper = f.groups[1].front();
  ASSERT_TRUE(w.Crash(sleeper).ok());
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  // Write some post-merge data, then wake the sleeper: it must join the
  // merged cluster (snapshot-based catch-up across the merge boundary).
  ASSERT_TRUE(w.Put(all, "post", "merge").ok());
  ASSERT_TRUE(w.Restart(sleeper).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.node(sleeper).config().members == all &&
               !w.node(sleeper).merge_exchange_pending() &&
               harness::KvStoreOf(w.node(sleeper)).size() >= 4;
      },
      30 * kSecond))
      << "sleeper cfg: " << w.node(sleeper).config().ToString();
}

TEST(Merge, ResizeAtMergeKeepsOneSourceCluster) {
  MergeFixture f(8, 2);
  auto& w = f.w;
  // Resume only groups[0]'s members (§III-C.2 "Resizing the Merged
  // Cluster": the resumed set must contain all members of some source).
  std::vector<NodeId> resume = f.groups[0];
  std::sort(resume.begin(), resume.end());
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}, resume).ok());
  ASSERT_TRUE(f.MergedAndServing(resume));
  // The resumed cluster serves the union of ranges.
  EXPECT_EQ(*w.Get(resume, "a1"), "va1");
  EXPECT_EQ(*w.Get(resume, "p1"), "vp1");
  // Dropped nodes become retired — possibly only after pull-based recovery
  // (a laggard that missed the outcome learns its fate from a retired or
  // resumed peer's snapshot).
  for (NodeId id : f.groups[1]) {
    EXPECT_TRUE(w.RunUntil([&]() { return w.node(id).IsRetired(); },
                           20 * kSecond))
        << "node " << id << " cfg " << w.node(id).config().ToString();
  }
}

TEST(Merge, InvalidResumeSetRejected) {
  MergeFixture f(9, 2);
  auto& w = f.w;
  // A resume set that covers no source completely must be rejected.
  std::vector<NodeId> bad{f.groups[0][0], f.groups[0][1], f.groups[1][0]};
  Status s = w.AdminMerge({f.groups[0], f.groups[1]}, bad);
  EXPECT_EQ(s.code(), Code::kRejected);
}

TEST(Merge, NonAdjacentRangesRejected) {
  // Build three clusters and try to merge the two outer (non-adjacent).
  MergeFixture f(10, 3);
  auto& w = f.w;
  Status s = w.AdminMerge({f.groups[0], f.groups[2]});
  EXPECT_EQ(s.code(), Code::kRejected);
}

TEST(Merge, SplitAfterMergeRoundTrip) {
  MergeFixture f(11, 2);
  auto& w = f.w;
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  // Split the merged cluster again: epochs reach 3.
  std::vector<NodeId> h1(all.begin(), all.begin() + 3),
      h2(all.begin() + 3, all.end());
  ASSERT_TRUE(w.AdminSplit(all, {h1, h2}, {"m"}).ok());
  ASSERT_TRUE(w.WaitForLeader(h1));
  ASSERT_TRUE(w.WaitForLeader(h2));
  EXPECT_EQ(*w.Get(h1, "a1"), "va1");
  EXPECT_EQ(*w.Get(h2, "p1"), "vp1");
  EXPECT_EQ(w.node(h1[0]).epoch(), 3u);
}

TEST(Merge, SessionsSurviveMerge) {
  MergeFixture f(12, 2);
  auto& w = f.w;
  // Apply a session command in groups[0] before the merge; replaying the
  // same (client, seq) after the merge must be a no-op.
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "a7";
  cmd.value = "orig";
  cmd.client_id = 4242;
  cmd.seq = 9;
  ASSERT_TRUE(w.RunUntil(
      [&]() { return w.LeaderOf(f.groups[0]) != kNoNode; }, 5 * kSecond));
  ASSERT_TRUE(
      w.Call(w.LeaderOf(f.groups[0]), kv::EncodeCommand(cmd))->status.ok());
  ASSERT_TRUE(w.AdminMerge({f.groups[0], f.groups[1]}).ok());
  std::vector<NodeId> all;
  for (auto& g : f.groups) all.insert(all.end(), g.begin(), g.end());
  std::sort(all.begin(), all.end());
  ASSERT_TRUE(f.MergedAndServing(all));
  cmd.value = "dup-should-not-apply";
  ASSERT_TRUE(w.RunUntil([&]() { return w.LeaderOf(all) != kNoNode; },
                         5 * kSecond));
  auto reply = w.Call(w.LeaderOf(all), kv::EncodeCommand(cmd));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(*w.Get(all, "a7"), "orig");
}

}  // namespace
}  // namespace recraft::test
