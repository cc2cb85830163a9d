// recraftd — the ReCraft node daemon: one core::Node run as a real process.
//
//   recraftd --id 1 --hosts phonebook.txt --data /var/lib/recraft/n1
//            --cluster 1,2,3 [--seed 1] [--tick-ms 10] [--snapshot 4096]
//
// The daemon is the thinnest possible shell around the deterministic core:
// every seam the simulator plugs fake implementations into gets the real
// one here, and nothing else changes —
//
//   net::Clock      -> net::SystemClock   (CLOCK_MONOTONIC + timer heap)
//   net::Transport  -> net::UdpTransport  (reliable-UDP links, phonebook)
//   storage::Disk   -> storage::FileDisk  (append/fdatasync/rename in --data)
//
// core::Node, WalStorage and the KV machine are byte-for-byte the code the
// seeded simulation suite verifies. Boot inspects the data directory: a
// durable image means this is a restart (recover from the WAL, rejoin);
// a blank one means genesis (--cluster required, and every member must be
// started with the same --cluster/--seed so they derive the same cluster
// uid). Crash = die: there is no graceful state handoff, kill -9 is the
// supported shutdown, and recovery is the WAL's job — that is the point.
//
// Event loop: net::PollOnce (shared with KvClient); timers (ticks, WAL
// group-commit flushes — and thus the node's durability callback) fire from
// the top of the loop, never from inside a mutation, matching the
// asynchrony contract the simulator enforces.
#include <signal.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "core/node.h"
#include "kv/kv_machine.h"
#include "net/phonebook.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"
#include "storage/file_disk.h"
#include "storage/wal_storage.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --id N --hosts FILE --data DIR [--cluster 1,2,3]\n"
      "          [--seed S] [--tick-ms MS] [--snapshot N] [--verbose]\n"
      "  --id N         this node's id (must appear in --hosts)\n"
      "  --hosts FILE   phonebook: '<id> <host>:<port>' per line\n"
      "  --data DIR     WAL directory (created if missing); a non-empty\n"
      "                 directory means restart-and-recover\n"
      "  --cluster IDS  genesis members (required for a blank --data;\n"
      "                 identical on every member)\n"
      "  --seed S       genesis uid seed, identical on every member (1)\n"
      "  --tick-ms MS   tick interval in real milliseconds (10)\n"
      "  --snapshot N   snapshot/compact every N applied entries (4096)\n",
      argv0);
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

bool ParseIdList(const std::string& s, std::vector<recraft::NodeId>* out) {
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    uint64_t id = 0;
    if (!ParseU64(s.substr(pos, comma - pos).c_str(), &id) ||
        id > 0xffffffffull) {
      return false;
    }
    out->push_back(static_cast<recraft::NodeId>(id));
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recraft;

  uint64_t id64 = 0;
  bool have_id = false;
  std::string hosts_path;
  std::string data_dir;
  std::vector<NodeId> cluster;
  uint64_t seed = 1;
  uint64_t tick_ms = 10;
  uint64_t snapshot_every = 4096;
  bool verbose = false;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--id") {
      const char* v = next();
      if (v == nullptr || !ParseU64(v, &id64)) return Usage(argv[0]);
      have_id = true;
    } else if (a == "--hosts") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      hosts_path = v;
    } else if (a == "--data") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      data_dir = v;
    } else if (a == "--cluster") {
      const char* v = next();
      if (v == nullptr || !ParseIdList(v, &cluster)) return Usage(argv[0]);
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr || !ParseU64(v, &seed)) return Usage(argv[0]);
    } else if (a == "--tick-ms") {
      const char* v = next();
      if (v == nullptr || !ParseU64(v, &tick_ms) || tick_ms == 0) {
        return Usage(argv[0]);
      }
    } else if (a == "--snapshot") {
      const char* v = next();
      if (v == nullptr || !ParseU64(v, &snapshot_every)) return Usage(argv[0]);
    } else if (a == "--verbose" || a == "-v") {
      verbose = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (!have_id || hosts_path.empty() || data_dir.empty()) {
    return Usage(argv[0]);
  }
  NodeId id = static_cast<NodeId>(id64);

  Logger::Global().set_level(verbose ? LogLevel::kDebug : LogLevel::kInfo);

  auto book = net::Phonebook::Load(hosts_path);
  if (!book.ok()) {
    std::fprintf(stderr, "recraftd: %s\n", book.status().message().c_str());
    return 1;
  }

  net::SystemClock clock;
  MetricRegistry metrics;
  net::UdpTransport transport(id, *book, &clock, &metrics);
  if (!transport.status().ok()) {
    std::fprintf(stderr, "recraftd: %s\n",
                 transport.status().message().c_str());
    return 1;
  }
  // A short buffer drops datagrams whenever a drain stalls (see
  // UdpTransport::kRcvBufTarget); each drop costs its link a full RTO.
  if (transport.rcvbuf_bytes() < 2 * net::UdpTransport::kRcvBufTarget) {
    RLOG_WARN("recraftd",
              "n%u UDP receive buffer is %d B, below the %d B target; "
              "raise net.core.rmem_max to %d (or grant CAP_NET_ADMIN)",
              id, transport.rcvbuf_bytes(),
              2 * net::UdpTransport::kRcvBufTarget,
              net::UdpTransport::kRcvBufTarget);
  } else {
    RLOG_INFO("recraftd", "n%u UDP receive buffer %d B", id,
              transport.rcvbuf_bytes());
  }

  auto disk = std::make_shared<storage::FileDisk>(data_dir);
  storage::WalStorage storage(disk, &clock);

  // A durable image in --data decides restart vs genesis before the node
  // constructor re-Loads it (Load is idempotent: its only mutation is the
  // torn-tail cut, which recovery would make anyway).
  auto probe = storage.Load();
  if (!probe.ok()) {
    std::fprintf(stderr, "recraftd: unreadable WAL in %s: %s\n",
                 data_dir.c_str(), probe.status().message().c_str());
    return 1;
  }
  bool restart = probe->present;
  if (!restart && cluster.empty()) {
    std::fprintf(stderr,
                 "recraftd: blank --data and no --cluster: nothing to boot\n");
    return Usage(argv[0]);
  }

  core::Options opts;
  opts.tick_interval = tick_ms * kMillisecond;
  opts.snapshot_threshold = snapshot_every;
  opts.machine_factory = kv::KvMachineFactory();

  auto send = [&transport, id](NodeId to, raft::MessagePtr msg) {
    transport.Send(id, to, std::move(msg));
  };
  // Per-incarnation RNG stream (election jitter must not replay across a
  // restart); the transport session token is already boot-unique.
  Rng rng(Mix64(Mix64(seed, transport.session()), id));

  std::unique_ptr<core::Node> node;
  if (restart) {
    node = std::make_unique<core::Node>(id, opts, &storage, std::move(rng),
                                        send);
    RLOG_INFO("recraftd", "n%u recovered from %s: uid=%llu commit=%llu", id,
              data_dir.c_str(),
              static_cast<unsigned long long>(node->cluster_uid()),
              static_cast<unsigned long long>(node->commit_index()));
  } else {
    raft::ConfigState genesis;
    genesis.members = cluster;
    genesis.range = KeyRange::Full();
    genesis.uid = Mix64(seed, cluster.front());
    node = std::make_unique<core::Node>(id, opts, genesis, std::move(rng),
                                        send, &storage);
    RLOG_INFO("recraftd", "n%u genesis: %zu members uid=%llu", id,
              cluster.size(),
              static_cast<unsigned long long>(genesis.uid));
  }

  transport.Bind(id, [&node](NodeId from, const raft::Message& m,
                             obs::TraceCtx ctx) {
    node->Receive(from, m, ctx);
  });

  // Self-rearming tick, the real-time analogue of World::ScheduleTick.
  std::function<void()> tick = [&]() {
    node->Tick();
    clock.CallAfter(opts.tick_interval, tick);
  };
  clock.CallAfter(opts.tick_interval, tick);

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);

  RLOG_INFO("recraftd", "n%u serving on port %u (pid %d)", id,
            transport.bound_port(), getpid());

  // Said once, at the first drop: the benchmark and deploy_smoke stop
  // daemons with SIGKILL, so a summary at exit would never be seen.
  const CounterSet::Id overflow_drops =
      metrics.counters().Intern("net.rx_overflow_drops");
  bool overflow_warned = false;
  while (g_stop == 0) {
    net::PollOnce(transport, clock, /*max_ms=*/100);
    if (!overflow_warned && metrics.counters().Get(overflow_drops) != 0) {
      overflow_warned = true;
      RLOG_WARN("recraftd",
                "n%u kernel dropped %llu datagrams: UDP receive buffer "
                "(%d B) overflowed; see net.core.rmem_max",
                id,
                static_cast<unsigned long long>(
                    metrics.counters().Get(overflow_drops)),
                transport.rcvbuf_bytes());
    }
  }

  // Graceful-ish exit for SIGTERM/SIGINT: make pending WAL bytes durable so
  // a polite shutdown never loses acked work. SIGKILL skips this, and the
  // WAL is designed to take it.
  storage.Sync();
  RLOG_INFO("recraftd", "n%u stopped", id);
  return 0;
}
