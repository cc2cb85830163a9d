#include "net/udp_transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <linux/sock_diag.h>
#include <netdb.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "common/codec.h"
#include "common/logging.h"
#include "net/udp_clock.h"
#include "net/wire.h"

namespace recraft::obs {

// Every message frame leads with the sender's trace context.
template <class IO>
void Fields(IO& io, TraceCtx& c) {
  io(c.trace_id, c.parent_span);
}

}  // namespace recraft::obs

namespace recraft::net {

namespace {

// Fresh per process incarnation: a restarted daemon must not look like a
// continuation of its previous seq space to peers (see ReliableLink's
// session handling).
uint64_t FreshSession() {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  uint64_t t = static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
               static_cast<uint64_t>(ts.tv_nsec);
  uint64_t s = t ^ (static_cast<uint64_t>(getpid()) << 32);
  return s == 0 ? 1 : s;  // 0 is the link's "no session yet" sentinel
}

Result<sockaddr_in> Resolve(const Endpoint& ep) {
  sockaddr_in out{};
  out.sin_family = AF_INET;
  out.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &out.sin_addr) == 1) return out;

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_DGRAM;
  addrinfo* res = nullptr;
  int rc = getaddrinfo(ep.host.c_str(), nullptr, &hints, &res);
  if (rc != 0 || res == nullptr) {
    return Unavailable(StrFormat("resolve %s: %s", ep.host.c_str(),
                                 gai_strerror(rc)));
  }
  out.sin_addr = reinterpret_cast<sockaddr_in*>(res->ai_addr)->sin_addr;
  freeaddrinfo(res);
  return out;
}

bool SameAddr(const sockaddr_in& a, const sockaddr_in& b) {
  return a.sin_addr.s_addr == b.sin_addr.s_addr && a.sin_port == b.sin_port;
}

// Requests UdpTransport::kRcvBufTarget, past net.core.rmem_max when the
// process may (CAP_NET_ADMIN), and returns what the kernel granted.
int SizeReceiveBuffer(int fd) {
  int want = UdpTransport::kRcvBufTarget;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVBUFFORCE, &want, sizeof(want)) != 0) {
    setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &want, sizeof(want));
  }
  int got = 0;
  socklen_t len = sizeof(got);
  if (getsockopt(fd, SOL_SOCKET, SO_RCVBUF, &got, &len) != 0) return 0;
  return got;
}

}  // namespace

UdpTransport::UdpTransport(NodeId self, Phonebook book, Clock* clock,
                           MetricRegistry* metrics, Options opts)
    : self_(self),
      book_(std::move(book)),
      clock_(clock),
      metrics_(metrics),
      opts_(opts),
      session_(FreshSession()) {
  if (metrics_ != nullptr) {
    CounterSet& c = metrics_->counters();
    ids_.datagrams_sent = c.Intern("net.datagrams_sent");
    ids_.datagrams_received = c.Intern("net.datagrams_received");
    ids_.retransmits = c.Intern("net.retransmits");
    ids_.acks_sent = c.Intern("net.acks_sent");
    ids_.acks_received = c.Intern("net.acks_received");
    ids_.duplicates_dropped = c.Intern("net.duplicates_dropped");
    ids_.out_of_window_dropped = c.Intern("net.out_of_window_dropped");
    ids_.messages_sent = c.Intern("net.messages_sent");
    ids_.messages_delivered = c.Intern("net.messages_delivered");
    ids_.sessions_reset = c.Intern("net.sessions_reset");
    ids_.chunks_abandoned = c.Intern("net.chunks_abandoned");
    ids_.messages_skipped = c.Intern("net.messages_skipped");
    ids_.decode_errors = c.Intern("net.decode_errors");
    ids_.garbage_dropped = c.Intern("net.garbage_dropped");
    ids_.unknown_peer_dropped = c.Intern("net.unknown_peer_dropped");
    ids_.send_errors = c.Intern("net.send_errors");
    ids_.rx_overflow_drops = c.Intern("net.rx_overflow_drops");
  }

  // Daemons bind at their phonebook endpoint; ids with no entry (clients)
  // bind ephemerally — servers learn their reply address from the source
  // of the first datagram.
  sockaddr_in bind_addr{};
  bind_addr.sin_family = AF_INET;
  const Endpoint* me = book_.Find(self_);
  if (me != nullptr) {
    auto addr = Resolve(*me);
    if (!addr.ok()) {
      status_ = addr.status();
      return;
    }
    bind_addr = *addr;
  }

  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    status_ = Internal(StrFormat("socket: %s", strerror(errno)));
    return;
  }
  rcvbuf_bytes_ = SizeReceiveBuffer(fd_);
  // No SO_REUSEADDR: on UDP it permits a second daemon to double-bind the
  // port and silently split the datagram stream with a stale incarnation.
  // A loud bind failure is the correct outcome.
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&bind_addr),
           sizeof(bind_addr)) != 0) {
    status_ = Internal(StrFormat(
        "bind %s:%u: %s", me != nullptr ? me->host.c_str() : "*",
        me != nullptr ? me->port : 0, strerror(errno)));
    close(fd_);
    fd_ = -1;
    return;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof(bound);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &blen) == 0) {
    bound_port_ = ntohs(bound.sin_port);
  }
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) close(fd_);
}

void UdpTransport::Bind(NodeId id, ReceiveFn fn) {
  bound_id_ = id;
  receive_ = std::move(fn);
}

void UdpTransport::Unbind(NodeId id) {
  if (id != bound_id_) return;
  bound_id_ = kNoNode;
  receive_ = nullptr;
}

UdpTransport::Peer* UdpTransport::GetPeer(NodeId id,
                                          const sockaddr_in* learned) {
  auto it = peers_.find(id);
  if (it == peers_.end()) {
    it = peers_
             .emplace(std::piecewise_construct, std::forward_as_tuple(id),
                      std::forward_as_tuple(self_, session_, opts_.link))
             .first;
    if (const Endpoint* ep = book_.Find(id)) {
      auto addr = Resolve(*ep);
      if (addr.ok()) {
        it->second.addr = *addr;
        it->second.addr_known = true;
      }
    }
  }
  Peer& p = it->second;
  if (learned != nullptr &&
      (!p.addr_known || !SameAddr(p.addr, *learned))) {
    // First contact from a non-phonebook peer (a client), or a peer that
    // came back on a different port. The datagram's source is the truth.
    p.addr = *learned;
    p.addr_known = true;
  }
  return &p;
}

void UdpTransport::Transmit(NodeId to, const std::vector<uint8_t>& datagram) {
  if (shim_) {
    shim_(to, datagram, [this](NodeId t, const std::vector<uint8_t>& d) {
      RawSend(t, d);
    });
  } else {
    RawSend(to, datagram);
  }
}

void UdpTransport::RawSend(NodeId to, const std::vector<uint8_t>& datagram) {
  auto it = peers_.find(to);
  if (it == peers_.end() || !it->second.addr_known || fd_ < 0) {
    if (metrics_ != nullptr) {
      metrics_->counters().Add(ids_.unknown_peer_dropped);
    }
    return;
  }
  ssize_t n = sendto(fd_, datagram.data(), datagram.size(), 0,
                     reinterpret_cast<const sockaddr*>(&it->second.addr),
                     sizeof(it->second.addr));
  if (n < 0 && metrics_ != nullptr) {
    // EAGAIN (full socket buffer) behaves like loss; the link retransmits.
    metrics_->counters().Add(ids_.send_errors);
  }
}

void UdpTransport::Send(NodeId from, NodeId to, const raft::MessagePtr& msg) {
  (void)from;  // frames carry self_; one process speaks for one node
  if (!msg || fd_ < 0) return;

  Encoder enc;
  Encode(enc, msg.trace_ctx());
  EncodeMessage(enc, *msg);

  Peer* p = GetPeer(to, nullptr);
  if (!p->addr_known) {
    // No phonebook entry and never heard from them: undeliverable.
    if (metrics_ != nullptr) {
      metrics_->counters().Add(ids_.unknown_peer_dropped);
    }
    return;
  }
  p->link.SendMessage(enc.buffer(), clock_->Now(),
                      [this, to](const std::vector<uint8_t>& d) {
                        Transmit(to, d);
                      });
  SyncCounters();
}

void UdpTransport::Deliver(NodeId from, std::vector<uint8_t> message) {
  Decoder dec(message.data(), message.size());
  auto ctx = Decode<obs::TraceCtx>(dec);
  if (!ctx.ok()) {
    if (metrics_ != nullptr) metrics_->counters().Add(ids_.decode_errors);
    return;
  }
  auto decoded = DecodeMessage(dec);
  if (!decoded.ok()) {
    if (metrics_ != nullptr) metrics_->counters().Add(ids_.decode_errors);
    RLOG_WARN("udp", "undecodable message from %u: %s", from,
              decoded.status().message().c_str());
    return;
  }
  decoded->set_trace_ctx(*ctx);
  if (receive_) receive_(from, **decoded, *ctx);
}

void UdpTransport::OnReadable() {
  if (fd_ < 0) return;
  uint8_t buf[65536];
  for (;;) {
    sockaddr_in src{};
    socklen_t slen = sizeof(src);
    ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0,
                         reinterpret_cast<sockaddr*>(&src), &slen);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN: drained
    }
    auto h = ReliableLink::PeekHeader(buf, static_cast<size_t>(n));
    if (!h.ok()) {
      if (metrics_ != nullptr) metrics_->counters().Add(ids_.garbage_dropped);
      continue;
    }
    NodeId peer = h->src;
    Peer* p = GetPeer(peer, &src);
    p->link.OnDatagram(
        buf, static_cast<size_t>(n), clock_->Now(),
        [this, peer](const std::vector<uint8_t>& d) { Transmit(peer, d); },
        [this, peer](std::vector<uint8_t> m) { Deliver(peer, std::move(m)); });
  }
  SyncKernelDrops();
  SyncCounters();
}

void UdpTransport::OnTimer() {
  TimePoint now = clock_->Now();
  for (auto& [id, p] : peers_) {
    p.link.OnTimer(now, [this, id = id](const std::vector<uint8_t>& d) {
      Transmit(id, d);
    });
  }
  SyncCounters();
}

TimePoint UdpTransport::NextDeadline() const {
  TimePoint best = 0;
  for (const auto& [id, p] : peers_) {
    TimePoint dl = p.link.NextDeadline();
    if (dl != 0 && (best == 0 || dl < best)) best = dl;
  }
  return best;
}

const ReliableLink* UdpTransport::link(NodeId peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : &it->second.link;
}

void UdpTransport::SyncCounters() {
  if (metrics_ == nullptr) return;
  CounterSet& c = metrics_->counters();
  for (auto& [id, p] : peers_) {
    const ReliableLink::Counters& now = p.link.counters();
    ReliableLink::Counters& old = p.synced;
    c.Add(ids_.datagrams_sent, now.datagrams_sent - old.datagrams_sent);
    c.Add(ids_.datagrams_received,
          now.datagrams_received - old.datagrams_received);
    c.Add(ids_.retransmits, now.retransmits - old.retransmits);
    c.Add(ids_.acks_sent, now.acks_sent - old.acks_sent);
    c.Add(ids_.acks_received, now.acks_received - old.acks_received);
    c.Add(ids_.duplicates_dropped,
          now.duplicates_dropped - old.duplicates_dropped);
    c.Add(ids_.out_of_window_dropped,
          now.out_of_window_dropped - old.out_of_window_dropped);
    c.Add(ids_.messages_sent, now.messages_sent - old.messages_sent);
    c.Add(ids_.messages_delivered,
          now.messages_delivered - old.messages_delivered);
    c.Add(ids_.sessions_reset, now.sessions_reset - old.sessions_reset);
    c.Add(ids_.chunks_abandoned, now.chunks_abandoned - old.chunks_abandoned);
    c.Add(ids_.messages_skipped, now.messages_skipped - old.messages_skipped);
    old = now;
  }
}

// The socket's exact drop count. Not the SO_RXQ_OVFL cmsg: the kernel
// stamps it only on datagrams that arrive after a drop, so it misses the
// drops at the tail of a burst.
void UdpTransport::SyncKernelDrops() {
  if (metrics_ == nullptr) return;
  uint32_t mem[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(mem);
  if (getsockopt(fd_, SOL_SOCKET, SO_MEMINFO, mem, &len) != 0 ||
      len <= SK_MEMINFO_DROPS * sizeof(uint32_t)) {
    return;
  }
  // The kernel's counter is 32 bits; unsigned subtraction survives a wrap.
  uint32_t drops = mem[SK_MEMINFO_DROPS];
  metrics_->counters().Add(ids_.rx_overflow_drops, drops - kernel_drops_);
  kernel_drops_ = drops;
}

void PollOnce(UdpTransport& transport, SystemClock& clock, int max_ms) {
  int timeout_ms = max_ms;
  TimePoint now = clock.Now();
  for (TimePoint due : {clock.NextDeadline(), transport.NextDeadline()}) {
    if (due == 0) continue;  // nothing armed
    uint64_t ms = due <= now ? 0 : (due - now + 999) / 1000;
    if (ms < static_cast<uint64_t>(timeout_ms)) {
      timeout_ms = static_cast<int>(ms);
    }
  }
  pollfd p{};
  p.fd = transport.fd();
  p.events = POLLIN;
  poll(&p, 1, timeout_ms);
  if ((p.revents & POLLIN) != 0) transport.OnReadable();
  transport.OnTimer();
  // Top of the loop: timers fire here and only here.
  clock.RunDue();
}

}  // namespace recraft::net
