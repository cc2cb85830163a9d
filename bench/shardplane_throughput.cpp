// Shard-plane throughput: N shards (>= 8) serve a closed-loop client fleet
// while the placement driver continuously rebalances — every round splits
// the largest shard and merges the coldest adjacent pair — through either
// the native ReCraft path or the TC external-cluster-manager baseline,
// behind the same Rebalancer interface. Reports aggregate ops/s, tail
// latency, wrong-shard retries healed by map refetches, and per-op
// rebalancing counts for both modes.
//
//   $ ./shardplane_throughput [--smoke] [--mode native|tc|both]
//                             [--shards N] [--rounds R] [--clients C]
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>

#include "bench/bench_util.h"
#include "bench/tc/cluster_manager.h"
#include "shard/placement.h"

namespace recraft::bench {
namespace {

struct PlaneConfig {
  size_t shards = 8;
  size_t rounds = 4;
  size_t clients = 48;
  Duration window = 2 * kSecond;
  uint64_t key_space = 100000;
};

struct PlaneResult {
  bool ok = false;
  double ops_per_sec = 0;
  double p50_ms = 0, p99_ms = 0, p999_ms = 0;
  uint64_t splits = 0, merges = 0;
  uint64_t wrong_shard = 0;
  std::string error;
};

PlaneResult RunPlane(const char* mode, const PlaneConfig& cfg) {
  PlaneResult res;
  harness::WorldOptions opts;
  opts.seed = 0x5ead + cfg.shards;
  opts.net.base_latency = 1 * kMillisecond;
  // A modest per-leader admission ceiling (the paper's storage-bound
  // leaders): aggregate throughput then actually depends on shard count.
  opts.node.max_client_requests_per_tick = 50;
  harness::World w(opts);

  auto boundaries =
      shard::UniformKeyBoundaries("k", cfg.key_space, cfg.shards);
  auto ids = w.BootstrapShards(cfg.shards, 3, boundaries);
  if (!ids.ok()) {
    res.error = "bootstrap: " + ids.status().ToString();
    return res;
  }

  std::unique_ptr<shard::Rebalancer> rb;
  if (std::strcmp(mode, "native") == 0) {
    rb = std::make_unique<shard::NativeRebalancer>(w, 120 * kSecond);
  } else {
    rb = std::make_unique<tc::TcRebalancer>(w, 120 * kSecond);
  }
  shard::PlacementOptions popts;
  // Force continuous rebalancing: any shard is big enough to split, any
  // adjacent pair cold enough to merge; the min/max window keeps the plane
  // oscillating around its configured size without dropping below it.
  popts.split_threshold_keys = 1;
  popts.merge_threshold_keys = std::numeric_limits<size_t>::max() / 2;
  popts.min_shards = cfg.shards;
  popts.max_shards = cfg.shards + 2;
  shard::PlacementDriver driver(w, w.shard_map(), *rb, popts);

  harness::Router router(&w.shard_map());
  auto copts = PaperClient();
  copts.key_space = cfg.key_space;
  copts.batch_size = 4;  // rounds grouped per shard
  copts.on_op_complete = [&](const std::string& key, TimePoint) {
    driver.RecordOp(key);
  };
  harness::ClientFleet fleet(w, router, cfg.clients, copts);
  fleet.Start();

  // Warmup: populate stores so median split keys exist.
  w.RunFor(cfg.window);
  uint64_t ops_start = fleet.TotalOps();
  TimePoint t_start = w.now();

  for (size_t r = 0; r < cfg.rounds; ++r) {
    auto report = driver.Step();  // clients keep running during the ops
    for (const auto& a : report.actions) {
      std::printf("    [%s r%zu] %s\n", mode, r, a.c_str());
    }
    w.RunFor(cfg.window);
  }
  fleet.Stop();

  double secs = Sec(w.now() - t_start);
  res.ok = true;
  res.ops_per_sec =
      secs > 0 ? static_cast<double>(fleet.TotalOps() - ops_start) / secs : 0;
  auto lat = fleet.PooledLatency();
  if (lat.count() > 0) {
    res.p50_ms = Ms(lat.Percentile(50));
    res.p99_ms = Ms(lat.Percentile(99));
    res.p999_ms = Ms(lat.Percentile(99.9));
  }
  res.splits = driver.splits_done();
  res.merges = driver.merges_done();
  res.wrong_shard = fleet.TotalWrongShardRetries();
  if (w.shard_map().size() < cfg.shards) {
    res.ok = false;
    res.error = "plane shrank below configured shard count";
  }
  if (Status s = w.shard_map().CheckInvariants(); !s.ok()) {
    res.ok = false;
    res.error = "map invariants: " + s.ToString();
  }
  return res;
}

void PrintRow(const char* mode, const PlaneResult& r) {
  if (!r.ok) {
    std::printf("%-8s FAILED: %s\n", mode, r.error.c_str());
    return;
  }
  std::printf("%-8s %10.0f %9.2f %9.2f %9.2f %7llu %7llu %11llu\n", mode,
              r.ops_per_sec, r.p50_ms, r.p99_ms, r.p999_ms,
              static_cast<unsigned long long>(r.splits),
              static_cast<unsigned long long>(r.merges),
              static_cast<unsigned long long>(r.wrong_shard));
}

}  // namespace
}  // namespace recraft::bench

int main(int argc, char** argv) {
  using namespace recraft::bench;
  PlaneConfig cfg;
  const char* mode = "both";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      cfg.rounds = 2;
      cfg.clients = 12;
      cfg.window = 1 * recraft::kSecond;
    } else if (std::strcmp(argv[i], "--mode") == 0 && i + 1 < argc) {
      mode = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      cfg.shards = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--rounds") == 0 && i + 1 < argc) {
      cfg.rounds = static_cast<size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--clients") == 0 && i + 1 < argc) {
      cfg.clients = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }

  PrintHeader("Shard plane: throughput under continuous split/merge "
              "rebalancing (" +
              std::to_string(cfg.shards) + " shards, " +
              std::to_string(cfg.clients) + " clients)");
  std::printf("%-8s %10s %9s %9s %9s %7s %7s %11s\n", "mode", "ops/s",
              "p50(ms)", "p99(ms)", "p99.9(ms)", "splits", "merges",
              "wrong-shard");
  bool all_ok = true;
  if (std::strcmp(mode, "both") == 0 || std::strcmp(mode, "native") == 0) {
    auto r = RunPlane("native", cfg);
    PrintRow("native", r);
    all_ok = all_ok && r.ok;
  }
  if (std::strcmp(mode, "both") == 0 || std::strcmp(mode, "tc") == 0) {
    auto r = RunPlane("tc", cfg);
    PrintRow("tc", r);
    all_ok = all_ok && r.ok;
  }
  std::printf("\nnative rebalances through the groups' own consensus; tc "
              "re-runs the same policy through the external cluster-manager "
              "script.\n");
  return all_ok ? 0 : 1;
}
