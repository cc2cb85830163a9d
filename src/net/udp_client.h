// Synchronous KV client over UdpTransport — the client half of the
// real-process deployment mode. One KvClient = one client identity: its
// own UDP socket (bound ephemerally; servers learn the reply address from
// the first datagram), its own kv session (client_id/seq dedup, so retried
// writes apply exactly once), and a blocking Do() that submits one op to a
// client::Session — the routing/retry/reply-matching state machine the
// simulator's fleet runs too — and pumps the socket and timers (PollOnce)
// until the op completes or the deadline passes. The session routes through
// a one-entry Router listing the phonebook: it follows leader hints, and
// rotates to another node when a 250 ms round goes unanswered.
//
// recraft-cli sits on this, one KvClient (and thread) per load client.
// Lives under the src/net/udp_ determinism-gate exemption (sockets, real
// clock) like the transport it wraps.
#pragma once

#include <optional>

#include "client/router.h"
#include "client/session.h"
#include "common/status.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"

namespace recraft::net {

class KvClient {
 public:
  /// `client_id` must not collide with any server id in `book` (servers
  /// key reliable links by peer id). `book` lists the cluster to talk to.
  KvClient(NodeId client_id, Phonebook book);

  /// Execute one op (a failed socket bind fails every op). Writes get this session's client_id/seq stamped
  /// (unless the caller pre-set them) and are retried — across leader
  /// changes — until acked or `timeout` elapses; the dedup session makes
  /// the retries exactly-once. Reads retry the same way but carry no
  /// session (they never mutate).
  kv::Response Do(kv::Command cmd, Duration timeout = 5 * kSecond);

  /// The node that served the last successful op (kNoNode before any).
  NodeId last_leader() const { return router_.clusters().front().leader_hint; }

 private:
  /// No reply to any transmission of the op for this long: drop the leader
  /// hint and resend to the next node.
  static constexpr Duration kRoundTimeout = 250 * kMillisecond;

  NodeId self_;
  uint64_t next_seq_ = 0;
  std::optional<raft::ClientReply> reply_;  // the submitted op's, once done
  SystemClock clock_;
  UdpTransport transport_;
  client::Router router_;
  client::Session session_;  // last: binds transport_, routes via router_
};

}  // namespace recraft::net
