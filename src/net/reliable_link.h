// Retransmitting perfect-link protocol over one unordered, lossy,
// duplicating datagram channel to a single peer — the classic reliable-link
// layer under UdpTransport. Per direction it provides exactly-once,
// in-order message delivery via:
//
//   * sequence numbers per chunk, a fixed in-flight window (64, matching
//     the 64-bit selective-ack bitmap),
//   * cumulative + selective acks: every DATA received triggers an ACK
//     carrying (highest in-order seq, bitmap of the 64 seqs above it),
//   * retransmission with exponential backoff: unacked chunks retransmit at
//     rto_initial, doubling up to rto_max, abandoned after
//     max_transmissions attempts (the peer is gone or has moved on),
//   * a dedup window on the receive side: seqs at or below the cumulative
//     point (or already buffered) are acked again and dropped,
//   * session tokens: a restarted sender picks a new session value, and the
//     receiver resets its ordering state instead of discarding the reborn
//     peer's fresh seq space as duplicates. Stale-session ACKs are ignored.
//   * a stream base in every DATA frame: the lowest seq the sender can
//     still retransmit. A receiver with no state for the sender's session
//     — it restarted, or the sender predates it — joins the stream at the
//     base instead of waiting forever for seqs consumed by a previous
//     incarnation (the one deadlock sessions alone cannot break: a
//     long-lived sender whose peer rebooted mid-stream). A synced receiver
//     uses base advances to jump gaps the sender abandoned.
//
// The window stays loss-free only if the receiving socket can hold every
// peer's window at once (their DATA plus the ACKs for our own window) while
// its owner is busy elsewhere. A datagram the kernel drops for want of
// buffer space is a loss like any other: it waits out an RTO, and in-order
// delivery holds every later message on the link behind it. UdpTransport
// sizes its socket for this (UdpTransport::kRcvBufTarget).
//
// Messages larger than max_payload fragment into consecutive chunks (the
// more-fragments flag); in-order delivery makes reassembly a concatenation.
// The first-fragment flag marks message starts, so a receiver joining
// mid-stream discards headless tails instead of splicing them into the
// next message. Whole messages are delivered or dropped, never truncated.
//
// This class is a PURE protocol engine — no sockets, no clocks, no RNG; it
// lives inside the recraft-determinism gate. Time enters exclusively
// through `now` parameters, datagrams leave through an EmitFn, decoded
// messages leave through a DeliverFn. UdpTransport owns the impure half
// (src/net/udp_transport.*, exempt by path); tests drive this engine
// directly with scripted clocks and channels.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "common/status.h"
#include "common/types.h"

namespace recraft::net {

class ReliableLink {
 public:
  struct Options {
    /// Max chunk payload bytes per datagram (header excluded). Keeps each
    /// frame under a loopback/LAN-safe UDP size.
    size_t max_payload = 1200;
    /// First retransmission timeout; doubles per retry up to rto_max.
    Duration rto_initial = 50 * kMillisecond;
    Duration rto_max = 2 * kSecond;
    /// In-flight chunk window. Capped at 64 (the SACK bitmap width).
    size_t window = 64;
    /// Give up on a chunk after this many transmissions (~50s at the
    /// default rto ladder). The stream base then advances past it, so a
    /// live receiver skips the gap instead of wedging.
    uint32_t max_transmissions = 30;
  };

  struct Counters {
    uint64_t datagrams_sent = 0;     // DATA frames (first transmissions)
    uint64_t datagrams_received = 0; // DATA frames accepted or deduped
    uint64_t retransmits = 0;        // DATA frames re-sent after timeout
    uint64_t acks_sent = 0;
    uint64_t acks_received = 0;
    uint64_t duplicates_dropped = 0; // dedup-window hits
    uint64_t out_of_window_dropped = 0;
    uint64_t messages_sent = 0;      // application messages queued
    uint64_t messages_delivered = 0; // application messages reassembled
    uint64_t sessions_reset = 0;     // peer restarts observed
    uint64_t chunks_abandoned = 0;   // gave up after max_transmissions
    uint64_t messages_skipped = 0;   // receiver discarded a headless tail
  };

  /// Datagram kinds (first header byte).
  enum FrameType : uint8_t { kData = 1, kAck = 2 };

  /// DATA flag bits.
  enum Flags : uint8_t {
    kMoreFragments = 1,  // message continues in the next seq
    kFirstFragment = 2,  // this chunk starts a message
  };

  struct Header {
    FrameType type = kData;
    NodeId src = kNoNode;
    uint64_t session = 0;
  };
  static constexpr size_t kHeaderBytes = 1 + 4 + 8;  // type, src, session
  // DATA adds seq, stream base, flags.
  static constexpr size_t kDataHeaderBytes = kHeaderBytes + 8 + 8 + 1;

  /// Parse the common frame header (the transport routes on src).
  static Result<Header> PeekHeader(const uint8_t* data, size_t len);

  /// Hand a finished outbound datagram to the channel (the transport's
  /// sendto, or a test's scripted lossy queue).
  using EmitFn = std::function<void(const std::vector<uint8_t>& datagram)>;
  /// Hand a reassembled inbound message up the stack.
  using DeliverFn = std::function<void(std::vector<uint8_t> message)>;

  /// `self` stamps outgoing frames; `session` must be fresh per process
  /// incarnation (the transport derives it from boot time + pid).
  ReliableLink(NodeId self, uint64_t session, Options opts);

  /// Queue one message for reliable delivery and transmit whatever the
  /// window admits. Never delivers synchronously.
  void SendMessage(const std::vector<uint8_t>& message, TimePoint now,
                   const EmitFn& emit);

  /// Process one inbound datagram from the peer (either direction's frame:
  /// DATA delivers + acks, ACK clears in-flight + frees window).
  void OnDatagram(const uint8_t* data, size_t len, TimePoint now,
                  const EmitFn& emit, const DeliverFn& deliver);

  /// Retransmit expired chunks and fill the window from the backlog.
  /// Call at (or after) NextDeadline().
  void OnTimer(TimePoint now, const EmitFn& emit);

  /// Earliest retransmission deadline, or 0 when nothing is in flight.
  TimePoint NextDeadline() const;

  const Counters& counters() const { return counters_; }
  size_t in_flight() const { return in_flight_.size(); }
  size_t backlog() const { return backlog_.size(); }

 private:
  struct Chunk {
    std::vector<uint8_t> frame;  // fully framed datagram, ready to re-send
    TimePoint sent_at = 0;
    Duration rto = 0;
    uint32_t transmissions = 0;
  };

  std::vector<uint8_t> FrameChunk(uint64_t seq, uint8_t flags,
                                  const uint8_t* payload, size_t len) const;
  /// Lowest seq still retransmittable (next_seq_ when nothing is queued).
  uint64_t StreamBase() const;
  void Emit(std::vector<uint8_t>& frame, const EmitFn& emit);
  void SendAck(const EmitFn& emit);
  void TransmitFromBacklog(TimePoint now, const EmitFn& emit);
  void HandleData(const uint8_t* data, size_t len, uint64_t session,
                  const EmitFn& emit, const DeliverFn& deliver);
  void HandleAck(const uint8_t* data, size_t len, uint64_t session);
  void AdvanceTo(uint64_t new_cum);
  void DeliverInOrder(const DeliverFn& deliver);

  NodeId self_;
  uint64_t session_;  // our send-side incarnation token
  Options opts_;

  // --- send side -----------------------------------------------------------
  uint64_t next_seq_ = 1;
  std::map<uint64_t, Chunk> in_flight_;  // seq -> chunk awaiting ack
  /// Framed chunks (seq pre-assigned) waiting for window space.
  std::deque<std::pair<uint64_t, std::vector<uint8_t>>> backlog_;

  // --- receive side --------------------------------------------------------
  uint64_t peer_session_ = 0;      // 0 = none seen yet
  /// False until the first DATA of the peer's session anchors cum_received_
  /// at its stream base.
  bool synced_ = false;
  uint64_t cum_received_ = 0;      // highest in-order seq received
  /// True while partial_ holds a message whose first fragment we saw; a
  /// tail collected without its head (mid-stream join, abandoned gap) is
  /// discarded at the final fragment instead of delivered truncated.
  bool collecting_ = false;
  std::map<uint64_t, std::vector<uint8_t>> ooo_;  // out-of-order payloads
  std::map<uint64_t, uint8_t> ooo_flags_;
  std::vector<uint8_t> partial_;   // fragments of the message being rebuilt

  Counters counters_;
};

}  // namespace recraft::net
