// client::Session — the one KV client state machine, over any
// net::Transport + net::Clock: the simulator's fleet runs it on
// SimTransport/SimClock (harness/client.*), recraft-cli on
// UdpTransport/SystemClock (net/udp_client.*). Routing, reply matching by
// req_id, leader hints, the 10 ms backoff on kNotLeader/kBusy/kUnavailable,
// the router refetch on kWrongShard/kOutOfRange and the round timeout that
// drops hints and rotates all live here, and nowhere else. Resends keep the
// command's client_id/seq, so the kv dedup session applies a write once.
//
// A session has one *round* open at a time: the ops submitted together,
// sharing one round timer. Timers are never cancelled: a stale one (its
// round done or abandoned) fires as a no-op, which keeps every simulated
// schedule, and so every execution digest, as it was before the session.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "client/router.h"
#include "common/types.h"
#include "kv/service.h"
#include "net/clock.h"
#include "net/transport.h"
#include "obs/trace.h"
#include "raft/messages.h"

namespace recraft::client {

struct SessionOptions {
  /// Resend every open op, hints dropped, when the round is not done this
  /// long after it started or last timed out.
  Duration round_timeout = 1 * kSecond;
  bool reads_via_log = false;  // gets/scans through the log, not ReadIndex
  /// Armed flight recorder (client.op spans, client.retry records); null =
  /// disarmed. Observation only.
  obs::Recorder* recorder = nullptr;
};

class Session {
 public:
  struct Op {
    kv::Command cmd;
    uint64_t req_id = 0;     // of the latest transmission
    TimePoint issued_at = 0; // of the first transmission
    bool done = false;
    uint64_t trace_id = 0;   // flight-recorder causality (0 when disarmed)
    uint64_t span = 0;       // open client.op span
    uint32_t attempts = 0;
  };

  /// Called once per op, with its final reply. `op` is valid until the
  /// callback returns or calls Submit, whichever comes first.
  using DoneFn = std::function<void(const Op& op, const raft::ClientReply&)>;
  /// Source of request ids; the default counts up from 1.
  using ReqIdFn = std::function<uint64_t()>;

  /// Binds `self` on `transport` for the session's lifetime.
  Session(NodeId self, net::Transport& transport, net::Clock& clock,
          Router& router, SessionOptions opts, DoneFn on_done,
          ReqIdFn next_req_id = nullptr);
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Start a round: open a span per op (in the given order), group the ops
  /// by shard, send them all and arm the round timer. The previous round
  /// must be done or abandoned.
  void Submit(std::vector<kv::Command> cmds);
  /// Drop the open round. Its pending timers and late replies become no-ops.
  void Abandon();

  /// Ops of the current round still waiting for their final reply.
  size_t open() const { return open_; }
  /// Retries caused specifically by stale routing (kWrongShard or a command
  /// applied outside the executing group's range).
  uint64_t wrong_shard_retries() const { return wrong_shard_retries_; }

 private:
  void SendOp(size_t idx);
  void ScheduleResend(size_t idx, Duration delay);
  void ArmRoundTimeout();
  void OnRoundTimeout(uint64_t generation);
  void OnReply(const raft::ClientReply& reply);

  const NodeId self_;
  net::Transport& transport_;
  net::Clock& clock_;
  Router& router_;
  SessionOptions opts_;
  DoneFn on_done_;
  ReqIdFn next_req_id_;
  uint64_t req_counter_ = 0;

  uint64_t generation_ = 0;  // bumped per round; invalidates stale timers
  std::vector<Op> round_;
  size_t open_ = 0;
  uint64_t wrong_shard_retries_ = 0;
  /// Liveness token: timers hold a weak_ptr so they become no-ops when the
  /// session is destroyed before they fire.
  std::shared_ptr<int> alive_ = std::make_shared<int>(0);
};

}  // namespace recraft::client
