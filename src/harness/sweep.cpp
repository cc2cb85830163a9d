#include "harness/sweep.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <sstream>
#include <thread>

#include "harness/checkers.h"
#include "harness/client.h"
#include "harness/nemesis.h"
#include "harness/world.h"

namespace recraft::harness {

std::string WorldVerdict::ReproLine() const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "--seed=%llu --mix=%s --ticks=%llu%s digest=%016llx",
                static_cast<unsigned long long>(seed), mix.c_str(),
                static_cast<unsigned long long>(chaos_ticks),
                injected ? " --inject-divergence" : "",
                static_cast<unsigned long long>(digest));
  return buf;
}

WorldVerdict RunSweepWorld(const SweepOptions& opts, uint64_t seed) {
  WorldVerdict v;
  v.seed = seed;
  v.mix = opts.mix;
  v.chaos_ticks = opts.chaos_ticks;
  v.injected = opts.inject_divergence;

  auto mix = NemesisMix::Make(opts.mix);
  if (!mix.ok()) {
    v.violations.push_back(mix.status().ToString());
    return v;
  }

  WorldOptions wo;
  wo.seed = seed;
  wo.node.trace_applied = true;  // feeds the safety checkers
  wo.storage = StorageMode::kWal;
  // Group commit (not synchronous flush) so disk-latency and fsync-stall
  // nemeses genuinely delay the durability acks/commit votes are gated on.
  wo.wal.flush_interval = 500;
  wo.recorder = opts.recorder;
  World world(wo);

  auto snapshot_run = [&]() {
    v.digest = world.events().execution_digest();
    v.events = world.events().events_executed();
    v.sim_end = world.now();
  };

  auto members = world.CreateCluster(opts.cluster_size);
  std::vector<NodeId> spares;
  for (size_t i = 0; i < opts.spares; ++i) {
    spares.push_back(world.CreateSpareNode());
  }
  if (!world.WaitForLeader(members, 10 * kSecond)) {
    v.violations.push_back("no initial leader");
    snapshot_run();
    return v;
  }

  SafetyChecker checker(world);
  checker.AttachPeriodic();

  Router router;
  router.SetClusters({Router::Entry{members, KeyRange::Full()}});

  ClientOptions copts;
  copts.key_space = opts.key_space;
  copts.value_bytes = opts.value_bytes;
  copts.retry_timeout = 300 * kMillisecond;
  copts.get_fraction = 0.1;
  copts.scan_fraction = 0.05;
  copts.cas_fraction = 0.1;
  copts.zipf_theta = 0.9;  // skewed, so hot-key migration matters
  copts.key_offset = mix->hot_key_offset();
  copts.recorder = opts.recorder;
  ClientFleet fleet(world, router, opts.clients, copts);
  fleet.Start();

  NemesisTargets targets;
  targets.members = members;
  targets.spares = spares;
  mix->Arm(world, targets, seed);
  world.RunFor(static_cast<Duration>(opts.chaos_ticks) *
               wo.node.tick_interval);
  mix->Disarm();  // heals every outstanding fault, restarts downed nodes
  v.nemesis_activations = mix->TotalActivations();

  fleet.Stop();
  // Belt and braces: nemeses heal their own faults, but a whole world must
  // end fault-free before the convergence clock starts.
  world.net().HealAll();

  // Converge on whatever configuration the churn left behind: stable
  // config, a leader, everything committed and applied everywhere.
  raft::ConfigState cfg;
  bool settled = world.RunUntil(
      [&]() {
        cfg = world.ConfigOf(members);
        if (cfg.members.empty() || cfg.ReconfigPending() ||
            cfg.fixed_quorum != 0) {
          return false;
        }
        NodeId l = world.LeaderOf(cfg.members);
        if (l == kNoNode) return false;
        Index commit = world.node(l).commit_index();
        if (commit < world.node(l).last_log_index()) return false;
        for (NodeId id : cfg.members) {
          if (!world.HasNode(id) || world.IsCrashed(id)) return false;
          if (world.node(id).last_applied() < commit) return false;
        }
        return true;
      },
      opts.settle_timeout);
  v.converged = settled;
  if (!settled) v.violations.push_back("did not converge after heal");

  checker.Observe();
  for (const auto& viol : checker.violations()) v.violations.push_back(viol);

  if (settled) {
    auto it = checker.applied_kv().find(cfg.uid);
    std::vector<kv::Command> commands =
        it == checker.applied_kv().end() ? std::vector<kv::Command>{}
                                         : it->second;
    if (opts.inject_divergence) {
      // A phantom write the system never executed: the replayed history now
      // disagrees with every live store, which is exactly what a real
      // linearizability bug would look like to the checker.
      kv::Command phantom;
      phantom.op = kv::OpType::kPut;
      phantom.key = "k00000000";
      phantom.value = "phantom-divergence";
      commands.push_back(phantom);
    }
    KvHistoryChecker kv_checker;
    for (NodeId id : cfg.members) {
      auto diffs = kv_checker.CompareStore(commands, KvStoreOf(world.node(id)));
      for (auto& d : diffs) {
        v.violations.push_back("node " + std::to_string(id) + ": " + d);
      }
    }
  }

  v.client_ops = fleet.TotalOps();
  LatencyRecorder pooled = fleet.PooledLatency();
  v.lat_p50 = pooled.Percentile(50.0);
  v.lat_p99 = pooled.Percentile(99.0);
  v.lat_p999 = pooled.Percentile(99.9);
  snapshot_run();
  if (!v.ok()) {
    // Capture the world's terminal state alongside the verdict: by the time
    // a caller sees the violation the world is gone.
    std::ostringstream diag;
    world.DumpDiagnostics(diag);
    v.diagnostics = diag.str();
  }
  return v;
}

SweepResult RunSweep(const SweepOptions& opts, uint64_t first_seed,
                     size_t count, size_t threads) {
  SweepResult result;
  result.verdicts.resize(count);
  if (count == 0) return result;
  threads = std::max<size_t>(1, std::min(threads, count));

  // One world per worker at a time; workers touch only their claimed slots,
  // so the verdict array — digests included — is independent of how the
  // seeds landed on threads.
  std::atomic<size_t> next{0};
  auto worker = [&]() {
    for (;;) {
      size_t i = next.fetch_add(1);
      if (i >= count) return;
      result.verdicts[i] = RunSweepWorld(opts, first_seed + i);
    }
  };
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  for (const auto& verdict : result.verdicts) {
    if (!verdict.ok()) ++result.failures;
  }
  return result;
}

}  // namespace recraft::harness
