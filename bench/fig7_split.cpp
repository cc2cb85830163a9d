// Figure 7: split performance.
//  (a) Throughput over time of a 6-node (9-node) cluster splitting into two
//      (three) 3-node subclusters at the 30 s mark, under 128 closed-loop
//      clients issuing uniform-random 512 B puts.
//  (b) Split latency of ReCraft (RC) vs the TiKV/CockroachDB emulation
//      (TC, broken into remove / snapshot / restart) for 2- and 3-way
//      splits with 100 / 1 K / 10 K preloaded KV pairs.
#include "bench/bench_util.h"
#include "bench/tc/cluster_manager.h"

namespace recraft::bench {
namespace {

void ThroughputTimeline(int ways, Duration phase = 30 * kSecond) {
  auto opts = CloudProfile(70 + ways);
  // The paper's leaders are storage-bound (512 B writes on Ceph): model a
  // ~1.5 K req/s per-leader ceiling so splitting multiplies throughput.
  opts.node.max_client_requests_per_tick = 15;
  harness::World w(opts);
  size_t n = 3 * static_cast<size_t>(ways);
  auto cluster = w.CreateCluster(n);
  if (!w.WaitForLeader(cluster)) return;

  std::vector<std::string> keys = ways == 2
                                      ? std::vector<std::string>{"k00050000"}
                                      : std::vector<std::string>{"k00033000",
                                                                 "k00066000"};
  std::vector<std::vector<NodeId>> groups;
  for (int i = 0; i < ways; ++i) {
    groups.emplace_back(cluster.begin() + i * 3, cluster.begin() + (i + 1) * 3);
  }

  harness::Router router;
  router.SetClusters({harness::Router::Entry{cluster, KeyRange::Full()}});
  auto copts = PaperClient();
  // Bucket completions per subcluster range for the per-series plot.
  std::vector<ThroughputSeries> per_sub(static_cast<size_t>(ways));
  ThroughputSeries total;
  auto ranges = *KeyRange::Full().SplitAt(keys);
  copts.on_op_complete = [&](const std::string& key, TimePoint when) {
    total.Record(when);
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].Contains(key)) {
        per_sub[i].Record(when);
        break;
      }
    }
  };
  harness::ClientFleet fleet(w, router, 128, copts);
  fleet.Start();

  w.RunFor(phase);
  TimePoint split_at = w.now();
  Status s = w.AdminSplit(cluster, groups, keys, 20 * kSecond);
  // Update the routing overlay, as etcd's redirection layer would.
  std::vector<harness::Router::Entry> entries;
  for (int i = 0; i < ways; ++i) {
    entries.push_back(
        harness::Router::Entry{groups[static_cast<size_t>(i)],
                               ranges[static_cast<size_t>(i)]});
  }
  router.SetClusters(entries);
  TimePoint end = split_at + phase;
  if (w.now() < end) w.RunFor(end - w.now());
  fleet.Stop();

  std::printf("\nsplit to %d (split issued at t=%.1fs, status=%s)\n", ways,
              Sec(split_at), s.ToString().c_str());
  std::printf("%-6s %-10s", "t(s)", "All");
  for (int i = 0; i < ways; ++i) std::printf(" Csub.%-5d", i + 1);
  std::printf("  (K req/s)\n");
  uint64_t windows = 2 * static_cast<uint64_t>(Sec(phase));
  for (uint64_t t = 0; t < windows; ++t) {
    std::printf("%-6llu %-10.2f", static_cast<unsigned long long>(t),
                total.Rate(t) / 1000.0);
    for (int i = 0; i < ways; ++i) {
      std::printf(" %-10.2f", per_sub[static_cast<size_t>(i)].Rate(t) / 1000.0);
    }
    std::printf("\n");
  }
}

struct LatencyRow {
  int ways;
  size_t kv_pairs;
  double rc_ms;
  double tc_remove_ms, tc_snapshot_ms, tc_restart_ms, tc_total_ms;
};

LatencyRow LatencyPoint(int ways, size_t kv_pairs) {
  LatencyRow row{ways, kv_pairs, 0, 0, 0, 0, 0};
  std::vector<std::string> keys =
      ways == 2 ? std::vector<std::string>{"k00050000"}
                : std::vector<std::string>{"k00033000", "k00066000"};
  auto ranges = *KeyRange::Full().SplitAt(keys);

  // --- ReCraft ---
  {
    auto opts = CloudProfile(500 + static_cast<uint64_t>(ways) * 10 + kv_pairs);
    harness::World w(opts);
    size_t n = 3 * static_cast<size_t>(ways);
    auto cluster = w.CreateCluster(n);
    if (!w.WaitForLeader(cluster)) return row;
    if (!w.Preload(cluster, kv_pairs, 512).ok()) return row;
    std::vector<std::vector<NodeId>> groups;
    for (int i = 0; i < ways; ++i) {
      groups.emplace_back(cluster.begin() + i * 3,
                          cluster.begin() + (i + 1) * 3);
    }
    TimePoint t0 = w.now();
    Status s = w.AdminSplit(cluster, groups, keys, 60 * kSecond);
    // Completion: every node left the old configuration (epoch bumped).
    w.RunUntil(
        [&]() {
          for (NodeId id : cluster) {
            if (w.node(id).epoch() == 0) return false;
          }
          return true;
        },
        30 * kSecond);
    if (s.ok()) row.rc_ms = Ms(w.now() - t0);
  }

  // --- TC emulation ---
  {
    auto opts = CloudProfile(900 + static_cast<uint64_t>(ways) * 10 + kv_pairs);
    harness::World w(opts);
    size_t n = 3 * static_cast<size_t>(ways);
    auto cluster = w.CreateCluster(n);
    if (!w.WaitForLeader(cluster)) return row;
    if (!w.Preload(cluster, kv_pairs, 512).ok()) return row;
    tc::SplitOp op;
    op.source_members = cluster;
    for (int i = 0; i < ways; ++i) {
      op.groups.emplace_back(cluster.begin() + i * 3,
                             cluster.begin() + (i + 1) * 3);
    }
    op.ranges = ranges;
    auto t = tc::RunTcSplit(w, 800, op, 300 * kSecond);
    if (t.ok()) {
      row.tc_remove_ms = Ms(t->remove);
      row.tc_snapshot_ms = Ms(t->snapshot);
      row.tc_restart_ms = Ms(t->restart + t->range_change);
      row.tc_total_ms = Ms(t->total);
    }
  }
  return row;
}

}  // namespace
}  // namespace recraft::bench

int main(int argc, char** argv) {
  using namespace recraft::bench;
  // --smoke: a few-second single-config run for the CI bench-smoke job.
  bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  PrintHeader("Figure 7a: throughput before/after split (128 clients)");
  ThroughputTimeline(2, smoke ? 3 * recraft::kSecond : 30 * recraft::kSecond);
  if (!smoke) ThroughputTimeline(3);

  PrintHeader("Figure 7b: split latency, ReCraft (RC) vs TC emulation");
  std::printf("%-8s %-10s %-12s %-12s %-12s %-12s %-12s %-8s\n", "a-b",
              "RC(ms)", "TC-rm(ms)", "TC-snap(ms)", "TC-rst(ms)",
              "TC-total", "TC/RC", "");
  for (int ways : smoke ? std::vector<int>{2} : std::vector<int>{2, 3}) {
    for (size_t kv : smoke ? std::vector<size_t>{100u}
                           : std::vector<size_t>{100u, 1000u, 10000u}) {
      auto r = LatencyPoint(ways, kv);
      std::printf("%d-%-6zu %-10.1f %-12.1f %-12.1f %-12.1f %-12.1f %-12.1fx\n",
                  ways, kv, r.rc_ms, r.tc_remove_ms, r.tc_snapshot_ms,
                  r.tc_restart_ms, r.tc_total_ms,
                  r.rc_ms > 0 ? r.tc_total_ms / r.rc_ms : 0.0);
    }
  }
  std::printf("\npaper: RC nearly constant (two consensus steps); TC ~21x "
              "slower, dominated by data migration\n");
  return 0;
}
