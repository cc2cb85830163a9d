#include "harness/client.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace recraft::harness {

namespace {
/// zeta(n, theta) = sum_{i=1..n} 1/i^theta — computed once per fleet.
double Zetan(uint64_t n, double theta) {
  double z = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    z += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  return z;
}
}  // namespace

ZipfConstants ZipfConstants::For(uint64_t key_space, double theta) {
  ZipfConstants z;
  if (theta <= 0.0) return z;
  const double n = static_cast<double>(key_space);
  z.zetan = Zetan(key_space, theta);
  const double zeta2 = Zetan(2, theta);
  z.alpha = 1.0 / (1.0 - theta);
  z.eta = (1.0 - std::pow(2.0 / n, 1.0 - theta)) / (1.0 - zeta2 / z.zetan);
  return z;
}

ClosedLoopClient::ClosedLoopClient(World& world, Router& router, NodeId id,
                                   ClientOptions opts,
                                   const ZipfConstants& zipf,
                                   ThroughputSeries* throughput)
    : world_(world),
      id_(id),
      opts_(opts),
      throughput_(throughput),
      rng_(Mix64(0xc11e47, id)),
      zipf_(zipf),
      session_(id, world.transport(), world.clock(), router,
               client::SessionOptions{opts.retry_timeout, opts.reads_via_log,
                                      opts.recorder},
               [this](const client::Session::Op& op,
                      const raft::ClientReply&) { OnDone(op); },
               [&world] { return world.NextReqId(); }) {
  if (opts_.batch_size == 0) opts_.batch_size = 1;
}

uint64_t ClosedLoopClient::NextKey() {
  uint64_t rank;
  if (opts_.zipf_theta <= 0.0) {
    rank = rng_.Uniform(0, opts_.key_space - 1);
  } else {
    // One uniform draw per key, deterministic given the client RNG.
    const double u = rng_.NextDouble();
    const double uz = u * zipf_.zetan;
    if (uz < 1.0) {
      rank = 0;
    } else if (uz < 1.0 + std::pow(0.5, opts_.zipf_theta)) {
      rank = 1;
    } else {
      const double n = static_cast<double>(opts_.key_space);
      auto k = static_cast<uint64_t>(
          n * std::pow(zipf_.eta * u - zipf_.eta + 1.0, zipf_.alpha));
      rank = std::min<uint64_t>(k, opts_.key_space - 1);
    }
  }
  // Rotation happens after the draw, so a live offset change redirects the
  // hot set without perturbing any RNG stream.
  if (opts_.key_offset != nullptr) {
    rank = (rank + *opts_.key_offset) % opts_.key_space;
  }
  return rank;
}

void ClosedLoopClient::IssueNext() {
  if (!running_) return;
  std::vector<kv::Command> round(opts_.batch_size);
  char buf[48];
  for (kv::Command& cmd : round) {
    uint64_t k = NextKey();
    std::snprintf(buf, sizeof(buf), "%s%08llu", opts_.key_prefix.c_str(),
                  static_cast<unsigned long long>(k));
    cmd.key = buf;
    cmd.client_id = id_;
    cmd.seq = next_seq_++;
    // Draw order is load-bearing for deterministic schedules: with the new
    // fractions at their 0 defaults this consumes exactly the historical
    // RNG stream (one key draw, plus one Chance when get_fraction > 0).
    if (opts_.get_fraction > 0 && rng_.Chance(opts_.get_fraction)) {
      cmd.op = kv::OpType::kGet;
    } else if (opts_.scan_fraction > 0 && rng_.Chance(opts_.scan_fraction)) {
      cmd.op = kv::OpType::kScan;
      cmd.scan_hi.clear();  // to the shard's end, capped by the limit
      cmd.scan_limit = opts_.scan_limit;
    } else if (opts_.cas_fraction > 0 && rng_.Chance(opts_.cas_fraction)) {
      cmd.op = kv::OpType::kCas;
      cmd.value.assign(opts_.value_bytes, 'x');
      // Alternate between expect-present and expect-absent so both CAS
      // outcomes (OK and kConflict) occur under load.
      if (cmd.seq % 2 == 0) cmd.expected.assign(opts_.value_bytes, 'x');
    } else {
      cmd.op = kv::OpType::kPut;
      cmd.value.assign(opts_.value_bytes, 'x');
    }
  }
  session_.Submit(std::move(round));
}

void ClosedLoopClient::OnDone(const client::Session::Op& op) {
  ++ops_done_;
  if (kv::IsReadOnly(op.cmd.op)) ++reads_done_;
  Duration lat = world_.now() - op.issued_at;
  latency_.Record(lat);
  if (opts_.latency != nullptr) opts_.latency->Record(lat);
  throughput_->Record(world_.now());
  if (opts_.on_op_complete) opts_.on_op_complete(op.cmd.key, world_.now());
  if (session_.open() == 0) IssueNext();
}

// ---------------------------------------------------------------------------

ClientFleet::ClientFleet(World& world, Router& router, size_t n,
                         ClientOptions opts) {
  const ZipfConstants zipf =
      ZipfConstants::For(opts.key_space, opts.zipf_theta);
  for (size_t i = 0; i < n; ++i) {
    clients_.push_back(std::make_unique<ClosedLoopClient>(
        world, router, static_cast<NodeId>(kFirstClientId + i), opts, zipf,
        &throughput_));
  }
}

void ClientFleet::Start() {
  for (auto& c : clients_) c->Start();
}

void ClientFleet::Stop() {
  for (auto& c : clients_) c->Stop();
}

uint64_t ClientFleet::TotalOps() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->ops_done();
  return n;
}

uint64_t ClientFleet::TotalReads() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->reads_done();
  return n;
}

uint64_t ClientFleet::TotalWrongShardRetries() const {
  uint64_t n = 0;
  for (const auto& c : clients_) n += c->wrong_shard_retries();
  return n;
}

LatencyRecorder ClientFleet::PooledLatency() const {
  LatencyRecorder pooled;
  for (const auto& c : clients_) pooled.Merge(c->latency());
  return pooled;
}

}  // namespace recraft::harness
