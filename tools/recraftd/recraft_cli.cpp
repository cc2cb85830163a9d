// recraft-cli — client tooling for a recraftd cluster.
//
//   recraft-cli --hosts FILE put KEY VALUE
//   recraft-cli --hosts FILE get KEY
//   recraft-cli --hosts FILE del KEY
//   recraft-cli --hosts FILE cas KEY EXPECTED VALUE
//   recraft-cli --hosts FILE scan LO HI
//   recraft-cli --hosts FILE leader
//   recraft-cli --hosts FILE load  --clients N --ops M [--history FILE]
//                                  [--prefix P] [--value-bytes B]
//   recraft-cli --hosts FILE check --history FILE
//
// `load` runs N closed-loop clients (a thread + KvClient each) over
// disjoint key prefixes. Every client keeps a local model of its own keys
// and issues CAS against the model value: with one writer per key, a CAS
// conflict is impossible unless the cluster double-applied or lost a write
// — so the workload is itself a consistency probe. Acked writes are
// appended to --history in ack order (per-client seq order within it).
// Writes retry until acked (the dedup session makes retries exactly-once),
// so the history is exactly the set of applied client writes.
//
// `check` replays a history through harness::KvHistoryChecker and compares
// every replayed key against a live read of the cluster — the same
// verification the simulated crash/recovery suite applies, pointed at real
// processes. Exit 0 only if every key matches.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "harness/checkers.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_client.h"
#include "net/udp_clock.h"

namespace {

using namespace recraft;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --hosts FILE [--client ID] COMMAND ...\n"
               "  put KEY VALUE | get KEY | del KEY | cas KEY EXPECTED VALUE\n"
               "  scan LO HI | leader\n"
               "  load --clients N --ops M [--history FILE] [--prefix P]\n"
               "       [--value-bytes B]\n"
               "  check --history FILE\n",
               argv0);
  return 2;
}

struct LoadStats {
  uint64_t ops = 0;
  uint64_t cas_conflicts = 0;
  uint64_t errors = 0;
  LatencyRecorder latency;
};

/// One closed-loop client: disjoint key space `<prefix>c<id>/k<j>`, local
/// model, CAS-against-model, retry-until-acked writes.
void RunLoadClient(NodeId client_id, const net::Phonebook& book,
                   uint64_t ops, const std::string& prefix,
                   size_t value_bytes, uint64_t key_space,
                   std::ofstream* history, std::mutex* history_mu,
                   LoadStats* out) {
  net::KvClient client(client_id, book);
  net::SystemClock clock;
  std::mt19937_64 rng(client_id * 0x9e3779b97f4a7c15ull + 1);
  std::map<std::string, std::string> model;  // this client's keys only
  uint64_t next_seq = 0;  // stamped here, not in Do(): history needs it

  auto value_for = [&](uint64_t seq) {
    std::string v = "v" + std::to_string(client_id) + "-" +
                    std::to_string(seq) + "-";
    while (v.size() < value_bytes) v.push_back('x');
    return v;
  };

  for (uint64_t j = 0; j < ops; ++j) {
    std::string key = prefix + "c" + std::to_string(client_id) + "/k" +
                      std::to_string(rng() % key_space);
    uint64_t dice = rng() % 100;

    kv::Command cmd;
    cmd.key = key;
    auto have = model.find(key);
    if (dice < 60 || have == model.end()) {
      cmd.op = kv::OpType::kPut;
      cmd.value = value_for(j);
    } else if (dice < 75) {
      cmd.op = kv::OpType::kCas;
      cmd.expected = have->second;
      cmd.value = value_for(j);
    } else if (dice < 85) {
      cmd.op = kv::OpType::kDelete;
    } else {
      cmd.op = kv::OpType::kGet;
    }
    if (!kv::IsReadOnly(cmd.op)) {
      cmd.client_id = client_id;
      cmd.seq = ++next_seq;
    }

    // Writes must land: the history's accuracy depends on never abandoning
    // an op that might have been applied. 10 minutes of retries covers any
    // leader kill + re-election the smoke test throws at us.
    Duration timeout = kv::IsReadOnly(cmd.op) ? 5 * kSecond : 600 * kSecond;
    TimePoint t0 = clock.Now();
    kv::Response r = client.Do(cmd, timeout);
    out->latency.Record(clock.Now() - t0);

    switch (cmd.op) {
      case kv::OpType::kGet:
        if (!r.status.ok() && r.status.code() != Code::kNotFound) {
          ++out->errors;
        } else {
          // Read-your-writes against the local model: a single-writer key
          // must read as the model value.
          std::string expect =
              have == model.end() ? std::string() : have->second;
          std::string got = r.status.ok() ? r.value : std::string();
          if (got != expect) ++out->errors;
        }
        ++out->ops;
        continue;
      case kv::OpType::kCas:
        if (r.status.code() == Code::kConflict) {
          // Impossible with one writer per key unless the cluster lost or
          // double-applied a write.
          ++out->cas_conflicts;
          ++out->ops;
          continue;
        }
        break;
      default:
        break;
    }
    if (!r.status.ok()) {
      ++out->errors;
      ++out->ops;
      continue;
    }

    // Acked write: commit to model + history.
    if (cmd.op == kv::OpType::kDelete) {
      model.erase(key);
    } else {
      model[key] = cmd.value;
    }
    if (history != nullptr) {
      std::ostringstream line;
      switch (cmd.op) {
        case kv::OpType::kPut:
          line << "put " << cmd.client_id << ' ' << cmd.seq << ' ' << key
               << ' ' << cmd.value;
          break;
        case kv::OpType::kDelete:
          line << "del " << cmd.client_id << ' ' << cmd.seq << ' ' << key;
          break;
        case kv::OpType::kCas:
          line << "cas " << cmd.client_id << ' ' << cmd.seq << ' ' << key
               << ' ' << cmd.value << ' ' << cmd.expected;
          break;
        default:
          break;
      }
      std::lock_guard<std::mutex> lock(*history_mu);
      *history << line.str() << '\n';
      history->flush();
    }
    ++out->ops;
  }
}

int RunLoad(const net::Phonebook& book, uint64_t clients, uint64_t ops,
            const std::string& history_path, const std::string& prefix,
            size_t value_bytes) {
  std::ofstream history;
  if (!history_path.empty()) {
    history.open(history_path, std::ios::app);
    if (!history) {
      std::fprintf(stderr, "recraft-cli: cannot open %s\n",
                   history_path.c_str());
      return 1;
    }
  }
  std::mutex history_mu;
  std::vector<LoadStats> stats(clients);
  std::vector<std::thread> threads;

  net::SystemClock clock;

  for (uint64_t i = 0; i < clients; ++i) {
    NodeId cid = static_cast<NodeId>(1000 + i);
    threads.emplace_back(RunLoadClient, cid, std::cref(book), ops, prefix,
                         value_bytes, /*key_space=*/64,
                         history_path.empty() ? nullptr : &history,
                         &history_mu, &stats[i]);
  }
  for (auto& t : threads) t.join();


  LoadStats total;
  for (const auto& s : stats) {
    total.ops += s.ops;
    total.cas_conflicts += s.cas_conflicts;
    total.errors += s.errors;
    total.latency.Merge(s.latency);
  }
  double secs = double(clock.Now()) / 1e6;
  std::printf(
      "load: ops=%llu secs=%.2f ops_per_sec=%.0f p50_us=%llu p99_us=%llu "
      "cas_conflicts=%llu errors=%llu\n",
      (unsigned long long)total.ops, secs,
      secs > 0 ? double(total.ops) / secs : 0.0,
      (unsigned long long)total.latency.Percentile(50),
      (unsigned long long)total.latency.Percentile(99),
      (unsigned long long)total.cas_conflicts,
      (unsigned long long)total.errors);
  return (total.cas_conflicts == 0 && total.errors == 0) ? 0 : 1;
}

int RunCheck(const net::Phonebook& book, const std::string& history_path) {
  std::ifstream in(history_path);
  if (!in) {
    std::fprintf(stderr, "recraft-cli: cannot open %s\n",
                 history_path.c_str());
    return 1;
  }
  std::vector<kv::Command> commands;
  std::string op;
  while (in >> op) {
    kv::Command c;
    in >> c.client_id >> c.seq >> c.key;
    if (op == "put") {
      c.op = kv::OpType::kPut;
      in >> c.value;
    } else if (op == "del") {
      c.op = kv::OpType::kDelete;
    } else if (op == "cas") {
      c.op = kv::OpType::kCas;
      in >> c.value >> c.expected;
    } else {
      std::fprintf(stderr, "recraft-cli: bad history op '%s'\n", op.c_str());
      return 1;
    }
    commands.push_back(std::move(c));
  }
  harness::KvHistoryChecker checker;
  std::map<std::string, std::string> expect = checker.Replay(commands);

  // Collect every key the history ever touched: keys the replay ends
  // without must read as absent.
  std::map<std::string, bool> touched;
  for (const auto& c : commands) touched[c.key] = true;

  net::KvClient client(static_cast<NodeId>(990), book);
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  for (const auto& [key, unused] : touched) {
    (void)unused;
    kv::Command get;
    get.op = kv::OpType::kGet;
    get.key = key;
    kv::Response r = client.Do(get, 30 * kSecond);
    auto it = expect.find(key);
    bool should_exist = it != expect.end();
    if (r.status.code() == Code::kTimeout) {
      std::fprintf(stderr, "check: read of '%s' timed out\n", key.c_str());
      ++mismatches;
    } else if (should_exist &&
               (!r.status.ok() || r.value != it->second)) {
      std::fprintf(stderr, "check: '%s' expected '%s' got '%s' (%s)\n",
                   key.c_str(), it->second.c_str(), r.value.c_str(),
                   r.status.message().c_str());
      ++mismatches;
    } else if (!should_exist && r.status.code() != Code::kNotFound) {
      std::fprintf(stderr, "check: '%s' expected absent, got '%s' (%s)\n",
                   key.c_str(), r.value.c_str(),
                   r.status.message().c_str());
      ++mismatches;
    }
    ++checked;
  }
  std::printf("check: replayed=%zu keys=%llu mismatches=%llu\n",
              commands.size(), (unsigned long long)checked,
              (unsigned long long)mismatches);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string hosts_path;
  // The kv dedup session is keyed by client_id: two invocations sharing an
  // id would alias each other's (id, seq) pairs and have their writes
  // swallowed as "already applied" retries. Default to a per-process id
  // well above any server or load-generator id; --client overrides.
  uint64_t client_id = (1u << 20) + (static_cast<uint32_t>(getpid()) & 0xfffff);
  std::vector<std::string> rest;

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--hosts" && i + 1 < argc) {
      hosts_path = argv[++i];
    } else if (a == "--client" && i + 1 < argc) {
      client_id = strtoull(argv[++i], nullptr, 10);
    } else {
      rest.push_back(std::move(a));
    }
  }
  if (hosts_path.empty() || rest.empty()) return Usage(argv[0]);

  auto book = net::Phonebook::Load(hosts_path);
  if (!book.ok()) {
    std::fprintf(stderr, "recraft-cli: %s\n", book.status().message().c_str());
    return 1;
  }

  const std::string& cmd = rest[0];

  if (cmd == "load" || cmd == "check") {
    uint64_t clients = 4;
    uint64_t ops = 1000;
    std::string history_path;
    std::string prefix;
    uint64_t value_bytes = 64;
    for (size_t i = 1; i < rest.size(); ++i) {
      const std::string& a = rest[i];
      auto next = [&]() -> const char* {
        return i + 1 < rest.size() ? rest[++i].c_str() : nullptr;
      };
      if (a == "--clients") {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        clients = strtoull(v, nullptr, 10);
      } else if (a == "--ops") {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        ops = strtoull(v, nullptr, 10);
      } else if (a == "--history") {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        history_path = v;
      } else if (a == "--prefix") {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        prefix = v;
      } else if (a == "--value-bytes") {
        const char* v = next();
        if (v == nullptr) return Usage(argv[0]);
        value_bytes = strtoull(v, nullptr, 10);
      } else {
        return Usage(argv[0]);
      }
    }
    if (cmd == "load") {
      if (clients == 0 || ops == 0) return Usage(argv[0]);
      return RunLoad(*book, clients, ops, history_path, prefix, value_bytes);
    }
    if (history_path.empty()) return Usage(argv[0]);
    return RunCheck(*book, history_path);
  }

  net::KvClient client(static_cast<recraft::NodeId>(client_id), *book);
  kv::Command c;
  if (cmd == "put" && rest.size() == 3) {
    c.op = kv::OpType::kPut;
    c.key = rest[1];
    c.value = rest[2];
  } else if (cmd == "get" && rest.size() == 2) {
    c.op = kv::OpType::kGet;
    c.key = rest[1];
  } else if (cmd == "del" && rest.size() == 2) {
    c.op = kv::OpType::kDelete;
    c.key = rest[1];
  } else if (cmd == "cas" && rest.size() == 4) {
    c.op = kv::OpType::kCas;
    c.key = rest[1];
    c.expected = rest[2];
    c.value = rest[3];
  } else if (cmd == "scan" && rest.size() == 3) {
    c.op = kv::OpType::kScan;
    c.key = rest[1];
    c.scan_hi = rest[2];
  } else if (cmd == "leader" && rest.size() == 1) {
    c.op = kv::OpType::kGet;  // any answered read names the leader
    c.key = "\x01__leader_probe";
  } else {
    return Usage(argv[0]);
  }

  kv::Response r = client.Do(c);
  if (!r.status.ok() && r.status.code() != Code::kNotFound) {
    std::fprintf(stderr, "%s: %s\n", cmd.c_str(),
                 r.status.message().c_str());
    return 1;
  }
  if (cmd == "leader") {
    std::printf("%u\n", client.last_leader());
  } else if (cmd == "get") {
    if (r.status.code() == Code::kNotFound) {
      std::fprintf(stderr, "(not found)\n");
      return 1;
    }
    std::printf("%s\n", r.value.c_str());
  } else if (cmd == "scan") {
    for (const auto& [k, v] : r.entries) {
      std::printf("%s\t%s\n", k.c_str(), v.c_str());
    }
  } else {
    std::printf("ok\n");
  }
  return 0;
}
