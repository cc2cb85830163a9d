// net::UdpTransport — the real-network implementation of the net::Transport
// seam: one non-blocking UDP socket bound at this process's phonebook
// endpoint, with a ReliableLink per peer turning the lossy datagram channel
// into the exactly-once ordered delivery core::Node was written against.
//
// Wire shape per application message (before the link fragments it):
//
//   [u64 trace_id][u64 parent_span][net::EncodeMessage bytes]
//
// so causal tracing survives the process boundary. Peer addresses come from
// the phonebook; peers NOT in the phonebook (clients) are learned from the
// source address of their first datagram — the reply path needs no client
// registry. Session tokens (boot-time ^ pid) let links detect a restarted
// peer and reset ordering state instead of discarding its fresh seq space.
//
// Threading/asynchrony: single-threaded, poll-driven. The owner's event
// loop calls OnReadable() when fd() is readable and OnTimer() at (or after)
// NextDeadline(); receive callbacks fire from inside OnReadable, never from
// Send — the same no-synchronous-delivery contract the simulator provides.
//
// Per-link counters (send/recv/retransmit/dedup/...) are folded into the
// MetricRegistry after every socket interaction, under pre-interned ids,
// together with the kernel's count of datagrams it dropped because the
// socket's receive buffer was full (net.rx_overflow_drops).
//
// This file is under the src/net/udp_ determinism-gate exemption: syscalls,
// wall clocks and kernel buffering make it inherently nondeterministic;
// everything protocol-shaped lives in ReliableLink/wire (in-gate, pure).
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "net/clock.h"
#include "net/phonebook.h"
#include "net/reliable_link.h"
#include "net/transport.h"

namespace recraft::net {

class SystemClock;

class UdpTransport final : public Transport {
 public:
  struct Options {
    ReliableLink::Options link;
  };

  /// Receive buffer each socket requests, so that it holds its peers'
  /// in-flight link windows while the owner is busy elsewhere (a leader
  /// drains its socket behind inline WAL fdatasyncs); a datagram the
  /// kernel drops costs its link a retransmission timeout. The kernel
  /// charges a queued datagram its skb truesize, not its length: on
  /// loopback a full ~1.2 KiB DATA frame (1,200 B payload + 30 B header)
  /// costs 2,304 B and a 29 B ACK 832 B. One peer's full 64-chunk window
  /// plus the ACKs for our window toward it is 64 x (2,304 + 832) B
  /// ~= 196 KiB, so the kernel's 208 KiB default holds one peer — and a
  /// leader has its followers plus one link per client session. The
  /// kernel doubles the request to cover the skb overhead, so 4 MiB grants
  /// 8 MiB: ~40 full peer windows, which leaves room for a drain that
  /// stalls for tens of milliseconds. Tried with SO_RCVBUFFORCE, then with
  /// SO_RCVBUF (which net.core.rmem_max clamps).
  static constexpr int kRcvBufTarget = 4 << 20;

  /// Binds a UDP socket at `book`'s entry for `self`, or ephemerally when
  /// `self` has no entry (clients: servers learn the reply address from
  /// the datagram source). status() reports failures — callers must check
  /// before polling. `clock` supplies `now` for the links; `metrics`
  /// (optional) receives the per-link counters.
  UdpTransport(NodeId self, Phonebook book, Clock* clock,
               MetricRegistry* metrics, Options opts = {});
  ~UdpTransport() override;

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Socket/bind outcome; not ok() means fd() is unusable.
  const Status& status() const { return status_; }

  // --- net::Transport -------------------------------------------------------
  // One process serves one bound node; a second Bind replaces the first.
  void Bind(NodeId id, ReceiveFn fn) override;
  void Unbind(NodeId id) override;
  void Send(NodeId from, NodeId to, const raft::MessagePtr& msg) override;

  // --- event-loop surface ---------------------------------------------------
  int fd() const { return fd_; }
  /// Drain the socket; delivers complete messages to the bound receiver.
  void OnReadable();
  /// Retransmit expired chunks across all links.
  void OnTimer();
  /// Earliest link retransmission deadline, or 0 when nothing is in flight.
  TimePoint NextDeadline() const;

  // --- test shim ------------------------------------------------------------
  /// The path a finished datagram takes to the kernel. Tests interpose a
  /// shim to drop, duplicate, or stash-and-release datagrams; `forward` is
  /// the real sendto. Production leaves this unset.
  using RawSendFn =
      std::function<void(NodeId to, const std::vector<uint8_t>& datagram)>;
  using SendShim = std::function<void(NodeId to, std::vector<uint8_t> datagram,
                                      const RawSendFn& forward)>;
  void set_send_shim(SendShim shim) { shim_ = std::move(shim); }

  uint64_t session() const { return session_; }
  /// Link state toward `peer` (nullptr before any traffic). Test-facing.
  const ReliableLink* link(NodeId peer) const;
  /// Local port the socket is bound to: the ephemeral one for clients and
  /// tests, the phonebook's for daemons (useful for logging).
  uint16_t bound_port() const { return bound_port_; }
  /// Receive buffer the kernel granted, as getsockopt(SO_RCVBUF) reports
  /// it (already doubled): 2 x kRcvBufTarget when the request was honoured
  /// in full, 0 when the socket could not be opened.
  int rcvbuf_bytes() const { return rcvbuf_bytes_; }

 private:
  struct Peer {
    sockaddr_in addr{};
    bool addr_known = false;
    ReliableLink link;
    ReliableLink::Counters synced;  // last values folded into metrics_

    Peer(NodeId self, uint64_t session, const ReliableLink::Options& o)
        : link(self, session, o) {}
  };

  struct CounterIds {
    CounterSet::Id datagrams_sent = 0;
    CounterSet::Id datagrams_received = 0;
    CounterSet::Id retransmits = 0;
    CounterSet::Id acks_sent = 0;
    CounterSet::Id acks_received = 0;
    CounterSet::Id duplicates_dropped = 0;
    CounterSet::Id out_of_window_dropped = 0;
    CounterSet::Id messages_sent = 0;
    CounterSet::Id messages_delivered = 0;
    CounterSet::Id sessions_reset = 0;
    CounterSet::Id chunks_abandoned = 0;
    CounterSet::Id messages_skipped = 0;
    CounterSet::Id decode_errors = 0;
    CounterSet::Id garbage_dropped = 0;
    CounterSet::Id unknown_peer_dropped = 0;
    CounterSet::Id send_errors = 0;
    CounterSet::Id rx_overflow_drops = 0;
  };

  Peer* GetPeer(NodeId id, const sockaddr_in* learned);
  void Transmit(NodeId to, const std::vector<uint8_t>& datagram);
  void RawSend(NodeId to, const std::vector<uint8_t>& datagram);
  void Deliver(NodeId from, std::vector<uint8_t> message);
  void SyncCounters();
  void SyncKernelDrops();

  NodeId self_;
  Phonebook book_;
  Clock* clock_;
  MetricRegistry* metrics_;  // may be null
  Options opts_;
  uint64_t session_ = 0;

  int fd_ = -1;
  uint16_t bound_port_ = 0;
  int rcvbuf_bytes_ = 0;
  uint32_t kernel_drops_ = 0;  // SK_MEMINFO_DROPS at the last read
  Status status_ = OkStatus();

  NodeId bound_id_ = kNoNode;
  ReceiveFn receive_;
  std::map<NodeId, Peer> peers_;
  SendShim shim_;
  CounterIds ids_;
};

/// One turn of a single-socket event loop, shared by recraftd and KvClient:
/// poll(2) until the socket is readable, the next `clock` timer or link
/// retransmission is due, or `max_ms` passes (millisecond resolution,
/// rounded up); then drain the socket, retransmit, and fire due timers —
/// in that order, so timers never run from inside a receive callback.
void PollOnce(UdpTransport& transport, SystemClock& clock, int max_ms);

}  // namespace recraft::net
