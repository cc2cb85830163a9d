// §VII-E: membership change performance. The cost is dominated by the number
// of consensus steps; this bench measures the average consensus-step commit
// latency and then, for each practical transition between cluster sizes 2-5,
// the steps and wall time taken by the AR-RPC (one node per step), Raft
// joint consensus (two steps) and ReCraft's Add/RemoveAndResize (+
// ResizeQuorum when needed).
#include "bench/bench_util.h"

namespace recraft::bench {
namespace {

struct SchemeResult {
  int steps = -1;
  double ms = 0;
};

std::vector<NodeId> TargetMembers(std::vector<NodeId> current, size_t to,
                                  std::vector<NodeId>& spares) {
  std::vector<NodeId> target = current;
  while (target.size() > to) target.pop_back();
  while (target.size() < to) {
    target.push_back(spares.back());
    spares.pop_back();
  }
  return target;
}

bool Settled(harness::World& w, const std::vector<NodeId>& target,
             Duration timeout) {
  std::vector<NodeId> goal = target;
  std::sort(goal.begin(), goal.end());
  return w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(goal);
        return l != kNoNode && w.node(l).config().members == goal &&
               w.ConfigSettled(l);
      },
      timeout);
}

/// Run one transition with the given scheme; returns steps and latency.
SchemeResult RunTransition(const char* scheme, size_t from, size_t to,
                           uint64_t seed) {
  auto opts = CloudProfile(seed);
  opts.node.auto_resize_quorum = true;
  opts.node.auto_joint_leave = true;
  harness::World w(opts);
  auto cluster = w.CreateCluster(from);
  if (!w.WaitForLeader(cluster)) return {};
  if (!w.Put(cluster, "warm", "x").ok()) return {};
  std::vector<NodeId> spares;
  for (int i = 0; i < 8; ++i) spares.push_back(w.CreateSpareNode());
  auto target = TargetMembers(cluster, to, spares);

  SchemeResult res;
  TimePoint t0 = w.now();
  std::string s = scheme;
  if (s == "recraft") {
    auto steps = w.AdminResizeTo(cluster, target, 60 * kSecond);
    if (!steps.ok()) return {};
    if (!Settled(w, target, 30 * kSecond)) return {};
    // Count the chained ResizeQuorum steps from the leader's log.
    NodeId l = w.LeaderOf(target);
    int conf_steps = 0;
    const auto& log = w.node(l).log();
    for (Index i = log.first_index(); i <= log.last_index(); ++i) {
      if (std::holds_alternative<raft::ConfMember>(log.At(i).payload)) {
        ++conf_steps;
      }
    }
    res.steps = conf_steps;
  } else if (s == "ar-rpc") {
    // One node at a time.
    std::vector<NodeId> current = cluster;
    int steps = 0;
    while (current != target) {
      std::vector<NodeId> next = current;
      raft::MemberChange mc;
      bool add = false;
      for (NodeId n : target) {
        if (std::find(current.begin(), current.end(), n) == current.end()) {
          mc.kind = raft::MemberChangeKind::kAddServer;
          mc.nodes = {n};
          next.push_back(n);
          add = true;
          break;
        }
      }
      if (!add) {
        for (NodeId n : current) {
          if (std::find(target.begin(), target.end(), n) == target.end()) {
            mc.kind = raft::MemberChangeKind::kRemoveServer;
            mc.nodes = {n};
            next.erase(std::remove(next.begin(), next.end(), n), next.end());
            break;
          }
        }
      }
      if (!w.AdminMemberChange(current, mc, 20 * kSecond).ok()) return {};
      ++steps;
      if (!Settled(w, next, 20 * kSecond)) return {};
      current = next;
      std::sort(current.begin(), current.end());
      std::sort(target.begin(), target.end());
    }
    res.steps = steps;
  } else {  // joint consensus
    raft::MemberChange mc;
    mc.kind = raft::MemberChangeKind::kJointEnter;
    mc.nodes = target;
    if (!w.AdminMemberChange(cluster, mc, 30 * kSecond).ok()) return {};
    if (!Settled(w, target, 30 * kSecond)) return {};
    res.steps = 2;  // C_old,new then C_new
  }
  res.ms = Ms(w.now() - t0);
  return res;
}

}  // namespace
}  // namespace recraft::bench

int main() {
  using namespace recraft;
  using namespace recraft::bench;
  PrintHeader("Sec VII-E: membership change — consensus steps and latency");

  // Average consensus step latency (commit of one entry under load-free
  // 3-node cluster), the paper's 11.4 ms analogue.
  {
    harness::World w(CloudProfile(7));
    auto c = w.CreateCluster(3);
    (void)w.WaitForLeader(c);
    (void)w.Put(c, "w", "x");
    TimePoint t0 = w.now();
    const int kOps = 50;
    for (int i = 0; i < kOps; ++i) {
      (void)w.Put(c, "k" + std::to_string(i), "v");
    }
    std::printf("consensus step latency: %.1f ms (paper: 11.4 ms)\n",
                Ms(w.now() - t0) / kOps);
  }

  std::printf("\n%-8s | %-18s | %-18s | %-18s\n", "change", "AR-RPC",
              "JointConsensus", "ReCraft");
  std::printf("%-8s | %-8s %-9s | %-8s %-9s | %-8s %-9s\n", "", "steps",
              "ms", "steps", "ms", "steps", "ms");
  struct Case {
    size_t from, to;
  };
  for (Case c : {Case{3, 4}, Case{3, 5}, Case{2, 5}, Case{4, 3}, Case{5, 3},
                 Case{5, 2}}) {
    auto ar = RunTransition("ar-rpc", c.from, c.to, 100 + c.from * 10 + c.to);
    auto jc = RunTransition("jc", c.from, c.to, 200 + c.from * 10 + c.to);
    auto rc =
        RunTransition("recraft", c.from, c.to, 300 + c.from * 10 + c.to);
    std::printf("%zu -> %zu   | %-8d %-9.1f | %-8d %-9.1f | %-8d %-9.1f\n",
                c.from, c.to, ar.steps, ar.ms, jc.steps, jc.ms, rc.steps,
                rc.ms);
  }
  std::printf(
      "\npaper: ReCraft <= both baselines for sizes 2..5, except 5 -> 2 "
      "(one extra step vs JC)\n");
  return 0;
}
