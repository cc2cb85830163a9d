// Figure 8: merge performance.
//  (a) Throughput over time of two (three) 3-node clusters merging into one
//      6-node (9-node) cluster at the 30 s mark, under a light load
//      (2 clients) — merging is done when clusters are underutilized.
//  (b) Merge latency of ReCraft (RC, broken into 2PC transaction and
//      snapshot exchange) vs the TC emulation (snapshot coalescing and
//      node rejoin) for 2- and 3-way merges with 100 / 1 K / 10 K pairs.
#include "bench/bench_util.h"
#include "bench/tc/cluster_manager.h"

namespace recraft::bench {
namespace {

std::vector<std::vector<NodeId>> MakeAdjacentClusters(
    harness::World& w, int ways, const std::vector<KeyRange>& ranges) {
  std::vector<std::vector<NodeId>> clusters;
  for (int i = 0; i < ways; ++i) {
    clusters.push_back(w.CreateCluster(3, ranges[static_cast<size_t>(i)]));
  }
  return clusters;
}

void ThroughputTimeline(int ways, Duration phase = 30 * kSecond) {
  auto opts = CloudProfile(80 + ways);
  opts.node.max_client_requests_per_tick = 15;  // same ceiling as Fig. 7a
  harness::World w(opts);
  std::vector<std::string> keys =
      ways == 2 ? std::vector<std::string>{"k00050000"}
                : std::vector<std::string>{"k00033000", "k00066000"};
  auto ranges = *KeyRange::Full().SplitAt(keys);
  auto clusters = MakeAdjacentClusters(w, ways, ranges);
  std::vector<NodeId> all;
  for (auto& c : clusters) {
    if (!w.WaitForLeader(c)) return;
    all.insert(all.end(), c.begin(), c.end());
  }
  std::sort(all.begin(), all.end());

  harness::Router router;
  std::vector<harness::Router::Entry> entries;
  for (int i = 0; i < ways; ++i) {
    entries.push_back(harness::Router::Entry{clusters[static_cast<size_t>(i)],
                                             ranges[static_cast<size_t>(i)]});
  }
  router.SetClusters(entries);

  auto copts = PaperClient();
  std::vector<ThroughputSeries> per_sub(static_cast<size_t>(ways));
  ThroughputSeries total;
  copts.on_op_complete = [&](const std::string& key, TimePoint when) {
    total.Record(when);
    for (size_t i = 0; i < ranges.size(); ++i) {
      if (ranges[i].Contains(key)) {
        per_sub[i].Record(when);
        break;
      }
    }
  };
  harness::ClientFleet fleet(w, router, 2, copts);
  fleet.Start();

  w.RunFor(phase);
  TimePoint merge_at = w.now();
  Status s = w.AdminMerge(clusters, {}, 60 * kSecond);
  router.SetClusters({harness::Router::Entry{all, KeyRange::Full()}});
  TimePoint end = merge_at + phase;
  if (w.now() < end) w.RunFor(end - w.now());
  fleet.Stop();

  std::printf("\nmerge %d (merge issued at t=%.1fs, status=%s)\n", ways,
              Sec(merge_at), s.ToString().c_str());
  std::printf("%-6s %-10s", "t(s)", "All");
  for (int i = 0; i < ways; ++i) std::printf(" Csub.%-5d", i + 1);
  std::printf("  (K req/s)\n");
  uint64_t windows = 2 * static_cast<uint64_t>(Sec(phase));
  for (uint64_t t = 0; t < windows; ++t) {
    std::printf("%-6llu %-10.3f", static_cast<unsigned long long>(t),
                total.Rate(t) / 1000.0);
    for (int i = 0; i < ways; ++i) {
      std::printf(" %-10.3f", per_sub[static_cast<size_t>(i)].Rate(t) / 1000.0);
    }
    std::printf("\n");
  }
}

struct LatencyRow {
  int ways;
  size_t kv_pairs;
  double rc_tx_ms, rc_snapshot_ms, rc_total_ms;
  double tc_snapshot_ms, tc_rejoin_ms, tc_total_ms;
};

LatencyRow LatencyPoint(int ways, size_t kv_pairs) {
  LatencyRow row{ways, kv_pairs, 0, 0, 0, 0, 0, 0};
  std::vector<std::string> keys =
      ways == 2 ? std::vector<std::string>{"k00050000"}
                : std::vector<std::string>{"k00033000", "k00066000"};
  auto ranges = *KeyRange::Full().SplitAt(keys);

  // --- ReCraft ---
  {
    auto opts = CloudProfile(600 + static_cast<uint64_t>(ways) * 10 + kv_pairs);
    harness::World w(opts);
    auto clusters = MakeAdjacentClusters(w, ways, ranges);
    std::vector<NodeId> all;
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (!w.WaitForLeader(clusters[i])) return row;
      // Preload each cluster's share of keys within its range.
      size_t per = kv_pairs / clusters.size();
      std::string prefix =
          "k000" + std::to_string(3 + i * 3);  // keys inside range i
      // Preload directly within the right range using the range's lo.
      std::string value(512, 'v');
      for (size_t k = 0; k < per; ++k) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s%06zu",
                      (ranges[i].lo().empty() ? "k00000000" : ranges[i].lo())
                          .c_str(),
                      k);
        if (!w.Put(clusters[i], buf, value).ok()) return row;
      }
      all.insert(all.end(), clusters[i].begin(), clusters[i].end());
    }
    std::sort(all.begin(), all.end());
    TimePoint t0 = w.now();
    Status s = w.AdminMerge(clusters, {}, 120 * kSecond);
    TimePoint t1 = w.now();  // 2PC decision committed (admin reply)
    // Service resumption: the merged cluster has an elected leader that
    // completed its snapshot exchange — it serves requests from here on
    // (laggards catch up in the background, as in the paper's etcd runs).
    w.RunUntil(
        [&]() {
          NodeId l = w.LeaderOf(all);
          if (l == kNoNode) return false;
          const auto& n = w.node(l);
          return n.config().members == all && !n.merge_exchange_pending();
        },
        120 * kSecond);
    if (s.ok()) {
      row.rc_tx_ms = Ms(t1 - t0);
      row.rc_snapshot_ms = Ms(w.now() - t1);
      row.rc_total_ms = Ms(w.now() - t0);
    }
  }

  // --- TC emulation ---
  {
    auto opts = CloudProfile(700 + static_cast<uint64_t>(ways) * 10 + kv_pairs);
    harness::World w(opts);
    auto clusters = MakeAdjacentClusters(w, ways, ranges);
    for (size_t i = 0; i < clusters.size(); ++i) {
      if (!w.WaitForLeader(clusters[i])) return row;
      size_t per = kv_pairs / clusters.size();
      std::string value(512, 'v');
      for (size_t k = 0; k < per; ++k) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), "%s%06zu",
                      (ranges[i].lo().empty() ? "k00000000" : ranges[i].lo())
                          .c_str(),
                      k);
        if (!w.Put(clusters[i], buf, value).ok()) return row;
      }
    }
    tc::MergeOp op;
    op.clusters = clusters;
    op.ranges = ranges;
    auto t = tc::RunTcMerge(w, 800, op, 600 * kSecond);
    if (t.ok()) {
      row.tc_snapshot_ms = Ms(t->snapshot + t->inject);
      row.tc_rejoin_ms = Ms(t->rejoin + t->terminate);
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
  PrintHeader("Figure 8a: throughput before/after merge (2 clients)");
  ThroughputTimeline(2, smoke ? 3 * recraft::kSecond : 30 * recraft::kSecond);
  if (!smoke) ThroughputTimeline(3);

  PrintHeader("Figure 8b: merge latency, ReCraft (RC) vs TC emulation");
  std::printf("%-8s %-11s %-12s %-11s %-13s %-13s %-11s %-8s\n", "a-b",
              "RC-TX(ms)", "RC-snap(ms)", "RC-total", "TC-snap(ms)",
              "TC-rejoin(ms)", "TC-total", "TC/RC");
  for (int ways : smoke ? std::vector<int>{2} : std::vector<int>{2, 3}) {
    for (size_t kv : smoke ? std::vector<size_t>{100u}
                           : std::vector<size_t>{100u, 1000u, 10000u}) {
      auto r = LatencyPoint(ways, kv);
      std::printf(
          "%d-%-6zu %-11.1f %-12.1f %-11.1f %-13.1f %-13.1f %-11.1f %-8.1fx\n",
          ways, kv, r.rc_tx_ms, r.rc_snapshot_ms, r.rc_total_ms,
          r.tc_snapshot_ms, r.tc_rejoin_ms, r.tc_total_ms,
          r.rc_total_ms > 0 ? r.tc_total_ms / r.rc_total_ms : 0.0);
    }
  }
  std::printf("\npaper: RC 2PC constant; data exchange dominates; TC 1.7x to "
              "20x slower depending on data size\n");
  return 0;
}
