// The simulator's workload clients. A ClosedLoopClient is the workload
// half of a client: key and op draws, rounds, and the latency/throughput
// sinks. Routing, retries and reply matching are client::Session's job
// (src/client/), which it drives over World::transport()/World::clock() —
// the same session recraft-cli runs over UDP.
//
// Each client keeps a bounded round of outstanding requests (one per round
// by default, as in the paper's etcd benchmark clients); rounds with
// batch_size > 1 are grouped per shard so ops to the same group go out
// back-to-back. Retries preserve sequence numbers, so the kv session layer
// deduplicates re-executions.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "client/router.h"
#include "client/session.h"
#include "common/metrics.h"
#include "harness/world.h"

namespace recraft::harness {

/// The overlay's view of the sharded key space (see client/router.h).
using Router = client::Router;

struct ClientOptions {
  uint64_t key_space = 100000;
  size_t value_bytes = 512;       // the paper uses 512 B requests
  std::string key_prefix = "k";
  Duration retry_timeout = 1 * kSecond;  // the session's round timeout
  double get_fraction = 0.0;      // paper evaluates writes
  /// Fractions of the remaining (non-get) ops issued as bounded range
  /// reads and compare-and-swaps. Gets and scans use the leader's
  /// ReadIndex path (no log entry) unless reads_via_log is set.
  double scan_fraction = 0.0;
  double cas_fraction = 0.0;
  uint32_t scan_limit = 8;
  /// Zipfian key skew (YCSB-style): 0 = uniform; theta in (0,1), e.g. 0.99
  /// concentrates most traffic on a few hot keys.
  double zipf_theta = 0.0;
  /// When set, the drawn key rank is rotated by *key_offset (mod key_space)
  /// before naming the key. The hot-key-migration nemesis points every
  /// client here and rewrites the offset live, moving the Zipfian hot set
  /// around the key space without touching client RNG streams.
  const uint64_t* key_offset = nullptr;
  /// Legacy read path: route gets/scans through the log as commands.
  bool reads_via_log = false;
  /// Requests issued per round, grouped per shard. 1 = classic closed loop.
  size_t batch_size = 1;
  /// Record a completion into this series (shared across clients for the
  /// throughput-over-time figures). May be null.
  ThroughputSeries* throughput = nullptr;
  LatencyRecorder* latency = nullptr;  // may be null; per-client otherwise
  /// Invoked on every completed op, e.g. to bucket throughput per
  /// subcluster by key (Figs. 7a/8a) or feed the placement driver's load
  /// accounting.
  std::function<void(const std::string& key, TimePoint when)> on_op_complete;
  /// Armed flight recorder: every issued op gets a trace id and a
  /// client.op span, and requests carry the causal context into the
  /// cluster. Null = disarmed (no trace ids are drawn). Observation only.
  obs::Recorder* recorder = nullptr;
};

/// Zipfian generator constants (Gray et al., "Quickly generating
/// billion-record synthetic databases") for one key space and theta. They
/// cost key_space pow() calls, so a fleet computes them once and every
/// client keeps its own copy. All zero when theta <= 0 (uniform keys).
struct ZipfConstants {
  double zetan = 0.0;
  double eta = 0.0;
  double alpha = 0.0;

  static ZipfConstants For(uint64_t key_space, double theta);
};

/// A closed-loop client: draws one round of requests, hands it to its
/// session, and draws the next round once the session completed them all.
class ClosedLoopClient {
 public:
  /// `zipf` must be ZipfConstants::For(opts.key_space, opts.zipf_theta).
  ClosedLoopClient(World& world, Router& router, NodeId id, ClientOptions opts,
                   const ZipfConstants& zipf);

  void Start() {
    running_ = true;
    IssueNext();
  }
  void Stop() {
    running_ = false;
    session_.Abandon();
  }

  uint64_t ops_done() const { return ops_done_; }
  uint64_t reads_done() const { return reads_done_; }
  uint64_t wrong_shard_retries() const {
    return session_.wrong_shard_retries();
  }
  const LatencyRecorder& latency() const { return latency_; }

 private:
  void IssueNext();
  void OnDone(const client::Session::Op& op);
  uint64_t NextKey();

  World& world_;
  const NodeId id_;
  ClientOptions opts_;
  Rng rng_;
  bool running_ = false;

  uint64_t next_seq_ = 1;
  const ZipfConstants zipf_;

  uint64_t ops_done_ = 0;
  uint64_t reads_done_ = 0;
  LatencyRecorder latency_;
  client::Session session_;  // last: its callbacks reach the members above
};

/// A fleet of closed-loop clients sharing a router and a throughput series.
class ClientFleet {
 public:
  ClientFleet(World& world, Router& router, size_t n, ClientOptions opts);

  void Start();
  void Stop();
  uint64_t TotalOps() const;
  uint64_t TotalReads() const;
  uint64_t TotalWrongShardRetries() const;
  /// Pooled latency across all clients.
  LatencyRecorder PooledLatency() const;
  ThroughputSeries& throughput() { return throughput_; }

 private:
  ThroughputSeries throughput_;
  std::vector<std::unique_ptr<ClosedLoopClient>> clients_;
};

}  // namespace recraft::harness
