// The networking layer in isolation: the wire codec (every raft::Message
// variant must round-trip bit-faithfully — a real deployment serializes
// where the simulator passed pointers), the ReliableLink pure protocol
// engine under scripted loss/reorder/duplication, and UdpTransport over a
// real loopback socket pair with a fault-injecting send shim.
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <deque>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "common/codec.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/reliable_link.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"
#include "net/wire.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"
#include "storage/codec.h"
#include "tests/codec_corpus.h"

namespace recraft {
namespace {

using net::ReliableLink;

// --- wire codec -----------------------------------------------------------

raft::MessagePtr RoundTrip(const raft::MessagePtr& in) {
  Encoder enc;
  net::EncodeMessage(enc, *in);
  Decoder dec(enc.buffer());
  auto out = net::DecodeMessage(dec);
  EXPECT_TRUE(out.ok()) << out.status().message();
  if (!out.ok()) return raft::MessagePtr();
  EXPECT_TRUE(dec.AtEnd()) << "decoder left trailing bytes";
  return *out;
}

raft::EntrySpan MakeEntries(uint64_t first_index, uint64_t term, size_t n) {
  auto slab = std::make_shared<raft::EntrySlab>(n);
  for (size_t i = 0; i < n; ++i) {
    raft::LogEntry e;
    e.index = first_index + i;
    e.term = term;
    sm::Command c;
    c.key = "k" + std::to_string(i);
    c.body = {1, 2, 3, static_cast<uint8_t>(i)};
    c.wire_hint = 32;
    e.payload = std::move(c);
    slab->PushBack(std::move(e));
  }
  raft::EntrySpan span;
  span.PushSegment(slab, 0, n);
  return span;
}

TEST(WireCodec, RequestVoteRoundTrip) {
  raft::RequestVote v;
  v.et = raft::EpochTerm::Make(2, 7).raw();
  v.candidate = 3;
  v.last_idx = 41;
  v.last_term = raft::EpochTerm::Make(2, 6).raw();
  auto out = RoundTrip(raft::MakeMessage(v));
  ASSERT_TRUE(out);
  const auto& d = std::get<raft::RequestVote>(*out);
  EXPECT_EQ(d.et, v.et);
  EXPECT_EQ(d.candidate, v.candidate);
  EXPECT_EQ(d.last_idx, v.last_idx);
  EXPECT_EQ(d.last_term, v.last_term);
}

TEST(WireCodec, AppendEntriesRoundTrip) {
  raft::AppendEntries v;
  v.et = raft::EpochTerm::Make(1, 4).raw();
  v.leader = 2;
  v.prev_idx = 10;
  v.prev_term = raft::EpochTerm::Make(1, 3).raw();
  v.entries = MakeEntries(11, v.et, 5);
  v.commit = 9;
  auto out = RoundTrip(raft::MakeMessage(std::move(v)));
  ASSERT_TRUE(out);
  const auto& d = std::get<raft::AppendEntries>(*out);
  EXPECT_EQ(d.leader, 2u);
  EXPECT_EQ(d.prev_idx, 10u);
  EXPECT_EQ(d.commit, 9u);
  ASSERT_EQ(d.entries.size(), 5u);
  size_t i = 0;
  for (const raft::LogEntry& e : d.entries) {
    EXPECT_EQ(e.index, 11 + i);
    const auto* cmd = std::get_if<sm::Command>(&e.payload);
    ASSERT_NE(cmd, nullptr);
    EXPECT_EQ(cmd->key, "k" + std::to_string(i));
    ++i;
  }
}

TEST(WireCodec, ClientRequestWriteRoundTrip) {
  kv::Command kvc;
  kvc.op = kv::OpType::kPut;
  kvc.key = "alpha";
  kvc.value = "beta";
  kvc.client_id = 77;
  kvc.seq = 5;
  raft::ClientRequest v;
  v.req_id = 99;
  v.from = 1000;
  v.body = kv::EncodeCommand(kvc);
  auto out = RoundTrip(raft::MakeMessage(std::move(v)));
  ASSERT_TRUE(out);
  const auto& d = std::get<raft::ClientRequest>(*out);
  EXPECT_EQ(d.req_id, 99u);
  EXPECT_EQ(d.from, 1000u);
  const auto* cmd = std::get_if<sm::Command>(&d.body);
  ASSERT_NE(cmd, nullptr);
  auto back = kv::DecodeCommand(*cmd);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->key, "alpha");
  EXPECT_EQ(back->value, "beta");
  EXPECT_EQ(back->client_id, 77u);
  EXPECT_EQ(back->seq, 5u);
}

TEST(WireCodec, ClientRequestReadRoundTrip) {
  kv::Command kvc;
  kvc.op = kv::OpType::kGet;
  kvc.key = "alpha";
  raft::ClientRequest v;
  v.req_id = 7;
  v.from = 1001;
  v.body = raft::ReadRequest{kv::EncodeCommand(kvc)};
  auto out = RoundTrip(raft::MakeMessage(std::move(v)));
  ASSERT_TRUE(out);
  const auto& d = std::get<raft::ClientRequest>(*out);
  const auto* rr = std::get_if<raft::ReadRequest>(&d.body);
  ASSERT_NE(rr, nullptr);
  auto back = kv::DecodeCommand(rr->query);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->op, kv::OpType::kGet);
  EXPECT_EQ(back->key, "alpha");
}

TEST(WireCodec, ClientReplyRoundTrip) {
  raft::ClientReply v;
  v.req_id = 4;
  v.from = 2;
  v.status = NotLeader("try 3");
  v.value = "payload";
  v.leader_hint = 3;
  v.serving_range = KeyRange::Full();
  v.epoch = 6;
  auto out = RoundTrip(raft::MakeMessage(v));
  ASSERT_TRUE(out);
  const auto& d = std::get<raft::ClientReply>(*out);
  EXPECT_EQ(d.req_id, 4u);
  EXPECT_EQ(d.status.code(), Code::kNotLeader);
  EXPECT_EQ(d.status.message(), "try 3");
  EXPECT_EQ(d.value, "payload");
  EXPECT_EQ(d.leader_hint, 3u);
  EXPECT_EQ(d.epoch, 6u);
}

TEST(WireCodec, ReadIndexProbeAckRoundTrip) {
  raft::ReadIndexProbe p;
  p.et = raft::EpochTerm::Make(3, 9).raw();
  p.from = 1;
  p.seq = 12;
  auto pout = RoundTrip(raft::MakeMessage(p));
  ASSERT_TRUE(pout);
  const auto& pd = std::get<raft::ReadIndexProbe>(*pout);
  EXPECT_EQ(pd.seq, 12u);

  raft::ReadIndexAck a;
  a.et = p.et;
  a.from = 2;
  a.seq = 12;
  a.ok = true;
  auto aout = RoundTrip(raft::MakeMessage(a));
  ASSERT_TRUE(aout);
  const auto& ad = std::get<raft::ReadIndexAck>(*aout);
  EXPECT_EQ(ad.seq, 12u);
  EXPECT_TRUE(ad.ok);
}

// Every message tag and every client-body tag, fully populated, encodes to
// the bytes pinned in codec_golden.inc, and those bytes decode back to a
// message that re-encodes to them.
TEST(WireCodec, EveryVariantMatchesGoldenBytes) {
  std::vector<raft::MessagePtr> msgs = corpus::Messages();
  ASSERT_EQ(msgs.size(), 33u);  // 28 message tags + 5 more client bodies
  for (size_t i = 0; i < msgs.size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "message/%02zu", i);
    SCOPED_TRACE(name);
    const std::vector<uint8_t> golden = corpus::Golden(name);
    ASSERT_FALSE(golden.empty());
    Encoder enc;
    net::EncodeMessage(enc, *msgs[i]);
    EXPECT_EQ(corpus::Hex(enc.buffer()), corpus::Hex(golden));

    Decoder dec(golden);
    auto back = net::DecodeMessage(dec);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(dec.AtEnd());
    EXPECT_EQ((*back)->index(), msgs[i]->index());
    Encoder again;
    net::EncodeMessage(again, **back);
    EXPECT_EQ(corpus::Hex(again.buffer()), corpus::Hex(golden));
  }
}

// Every strict prefix of every golden message fails to decode, and every
// single-byte flip decodes to a value or a Status — never an exception.
TEST(WireCodec, CorruptedMessagesNeverThrow) {
  for (size_t i = 0; i < corpus::Messages().size(); ++i) {
    char name[32];
    std::snprintf(name, sizeof(name), "message/%02zu", i);
    SCOPED_TRACE(name);
    corpus::ForEachCorruption(
        corpus::Golden(name), [](const std::vector<uint8_t>& bytes,
                                 bool prefix) {
          Decoder dec(bytes);
          Result<raft::MessagePtr> out = Internal("not decoded");
          EXPECT_NO_THROW(out = net::DecodeMessage(dec));
          if (prefix) {
            EXPECT_FALSE(out.ok()) << "decoded a " << bytes.size()
                                   << "-byte prefix";
          }
        });
  }
}

// A count field is checked against the bytes left before it sizes an
// allocation: a 33-byte AppendEntries claiming 2^32-1 entries is an error.
TEST(WireCodec, HugeEntryCountIsRejected) {
  Encoder enc;
  enc.PutU8(3);  // AppendEntries
  enc.PutU64(1);
  enc.PutU32(1);
  enc.PutU64(0);
  enc.PutU64(0);
  enc.PutU32(0xffffffffu);  // entry count
  ASSERT_EQ(enc.size(), 33u);
  Decoder dec(enc.buffer());
  auto out = net::DecodeMessage(dec);
  EXPECT_FALSE(out.ok());
}

// The same for a member list: a 17-byte NamingRegister claiming 2^32-1
// members.
TEST(WireCodec, HugeMemberCountIsRejected) {
  Encoder enc;
  enc.PutU8(26);  // NamingRegister
  enc.PutU64(1);
  enc.PutU32(1);
  enc.PutU32(0xffffffffu);  // member count
  ASSERT_EQ(enc.size(), 17u);
  Decoder dec(enc.buffer());
  auto out = net::DecodeMessage(dec);
  EXPECT_FALSE(out.ok());
}

// --- ReliableLink pure engine ---------------------------------------------

struct LinkPair {
  ReliableLink a;
  ReliableLink b;
  std::deque<std::vector<uint8_t>> a_to_b;  // emitted by a, not yet given to b
  std::deque<std::vector<uint8_t>> b_to_a;
  std::vector<std::vector<uint8_t>> a_delivered;
  std::vector<std::vector<uint8_t>> b_delivered;

  explicit LinkPair(ReliableLink::Options opts = {})
      : a(1, 0xa, opts), b(2, 0xb, opts) {}

  ReliableLink::EmitFn EmitA() {
    return [this](const std::vector<uint8_t>& d) { a_to_b.push_back(d); };
  }
  ReliableLink::EmitFn EmitB() {
    return [this](const std::vector<uint8_t>& d) { b_to_a.push_back(d); };
  }

  /// Shuttle queued datagrams both ways until quiescent.
  void Pump(TimePoint now) {
    while (!a_to_b.empty() || !b_to_a.empty()) {
      if (!a_to_b.empty()) {
        auto d = std::move(a_to_b.front());
        a_to_b.pop_front();
        b.OnDatagram(d.data(), d.size(), now, EmitB(),
                     [this](std::vector<uint8_t> m) {
                       b_delivered.push_back(std::move(m));
                     });
      }
      if (!b_to_a.empty()) {
        auto d = std::move(b_to_a.front());
        b_to_a.pop_front();
        a.OnDatagram(d.data(), d.size(), now, EmitA(),
                     [this](std::vector<uint8_t> m) {
                       a_delivered.push_back(std::move(m));
                     });
      }
    }
  }
};

std::vector<uint8_t> Msg(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

TEST(ReliableLink, LosslessDelivery) {
  LinkPair p;
  for (int i = 0; i < 100; ++i) {
    p.a.SendMessage(Msg("m" + std::to_string(i)), /*now=*/1000, p.EmitA());
  }
  p.Pump(1000);
  ASSERT_EQ(p.b_delivered.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.b_delivered[i], Msg("m" + std::to_string(i)));
  }
  EXPECT_EQ(p.a.in_flight(), 0u);
  EXPECT_EQ(p.a.counters().retransmits, 0u);
}

TEST(ReliableLink, FragmentationReassembles) {
  ReliableLink::Options opts;
  opts.max_payload = 16;
  LinkPair p(opts);
  std::string big(1000, 'x');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char('a' + i % 26);
  p.a.SendMessage(Msg(big), 1, p.EmitA());
  // 1000/16 = 63 chunks, window 64: everything flies at once.
  p.Pump(1);
  ASSERT_EQ(p.b_delivered.size(), 1u);
  EXPECT_EQ(p.b_delivered[0], Msg(big));
}

TEST(ReliableLink, WindowHoldsBacklog) {
  ReliableLink::Options opts;
  opts.max_payload = 8;
  opts.window = 4;
  LinkPair p(opts);
  std::string big(100, 'q');  // 13 chunks > window 4
  p.a.SendMessage(Msg(big), 1, p.EmitA());
  EXPECT_EQ(p.a.in_flight(), 4u);
  EXPECT_GT(p.a.backlog(), 0u);
  p.Pump(1);  // acks free the window; backlog drains during the pump
  ASSERT_EQ(p.b_delivered.size(), 1u);
  EXPECT_EQ(p.b_delivered[0], Msg(big));
  EXPECT_EQ(p.a.backlog(), 0u);
}

TEST(ReliableLink, RetransmitsThroughTotalLoss) {
  LinkPair p;
  p.a.SendMessage(Msg("payload"), 1000, p.EmitA());
  ASSERT_EQ(p.a_to_b.size(), 1u);
  p.a_to_b.clear();  // first transmission lost

  // Nothing due before the initial RTO.
  TimePoint dl = p.a.NextDeadline();
  EXPECT_EQ(dl, 1000 + 50 * kMillisecond);
  p.a.OnTimer(dl - 1, p.EmitA());
  EXPECT_TRUE(p.a_to_b.empty());

  p.a.OnTimer(dl, p.EmitA());
  ASSERT_EQ(p.a_to_b.size(), 1u);
  EXPECT_EQ(p.a.counters().retransmits, 1u);
  p.Pump(dl);
  ASSERT_EQ(p.b_delivered.size(), 1u);
  EXPECT_EQ(p.b_delivered[0], Msg("payload"));
  EXPECT_EQ(p.a.in_flight(), 0u);
}

TEST(ReliableLink, BackoffDoublesAndCaps) {
  ReliableLink::Options opts;
  ReliableLink link(1, 0xa, opts);
  std::deque<std::vector<uint8_t>> out;
  auto emit = [&out](const std::vector<uint8_t>& d) { out.push_back(d); };

  TimePoint now = 1000;
  link.SendMessage(Msg("x"), now, emit);
  Duration expect_rto = opts.rto_initial;
  for (int i = 0; i < 10; ++i) {
    TimePoint dl = link.NextDeadline();
    EXPECT_EQ(dl, now + expect_rto) << "retry " << i;
    now = dl;
    link.OnTimer(now, emit);
    expect_rto = std::min(expect_rto * 2, opts.rto_max);
  }
  EXPECT_EQ(link.counters().retransmits, 10u);
}

TEST(ReliableLink, DuplicatesAndReorderingDeliverExactlyOnce) {
  LinkPair p;
  for (int i = 0; i < 20; ++i) {
    p.a.SendMessage(Msg("m" + std::to_string(i)), 1, p.EmitA());
  }
  // Adversarial channel: duplicate everything, deliver in reverse order.
  std::vector<std::vector<uint8_t>> wire(p.a_to_b.begin(), p.a_to_b.end());
  p.a_to_b.clear();
  std::vector<std::vector<uint8_t>> mangled;
  for (auto it = wire.rbegin(); it != wire.rend(); ++it) {
    mangled.push_back(*it);
    mangled.push_back(*it);  // duplicate
  }
  for (const auto& d : mangled) {
    p.b.OnDatagram(d.data(), d.size(), 2, p.EmitB(),
                   [&p](std::vector<uint8_t> m) {
                     p.b_delivered.push_back(std::move(m));
                   });
  }
  ASSERT_EQ(p.b_delivered.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(p.b_delivered[i], Msg("m" + std::to_string(i)));
  }
  EXPECT_GT(p.b.counters().duplicates_dropped, 0u);
}

TEST(ReliableLink, DedupWindowRejectsStaleSeqs) {
  LinkPair p;
  p.a.SendMessage(Msg("one"), 1, p.EmitA());
  std::vector<uint8_t> first = p.a_to_b.front();
  p.Pump(1);
  ASSERT_EQ(p.b_delivered.size(), 1u);

  // Replay the already-delivered datagram: dropped, but re-acked.
  size_t acks_before = p.b.counters().acks_sent;
  p.b.OnDatagram(first.data(), first.size(), 2, p.EmitB(),
                 [&p](std::vector<uint8_t> m) {
                   p.b_delivered.push_back(std::move(m));
                 });
  EXPECT_EQ(p.b_delivered.size(), 1u);
  EXPECT_EQ(p.b.counters().duplicates_dropped, 1u);
  EXPECT_EQ(p.b.counters().acks_sent, acks_before + 1);
}

TEST(ReliableLink, SessionChangeResetsReceiver) {
  ReliableLink::Options opts;
  ReliableLink b(2, 0xb, opts);
  std::deque<std::vector<uint8_t>> acks;
  auto emit = [&acks](const std::vector<uint8_t>& d) { acks.push_back(d); };
  std::vector<std::vector<uint8_t>> delivered;
  auto deliver = [&delivered](std::vector<uint8_t> m) {
    delivered.push_back(std::move(m));
  };

  {
    ReliableLink a1(1, /*session=*/0x111, opts);
    std::deque<std::vector<uint8_t>> out;
    a1.SendMessage(Msg("first life"), 1,
                   [&out](const std::vector<uint8_t>& d) { out.push_back(d); });
    for (const auto& d : out) b.OnDatagram(d.data(), d.size(), 1, emit, deliver);
  }
  ASSERT_EQ(delivered.size(), 1u);

  // The peer restarts: new session, seq starts over at 1. Without the
  // session reset these frames would be deduped as stale.
  {
    ReliableLink a2(1, /*session=*/0x222, opts);
    std::deque<std::vector<uint8_t>> out;
    a2.SendMessage(Msg("second life"), 2,
                   [&out](const std::vector<uint8_t>& d) { out.push_back(d); });
    for (const auto& d : out) b.OnDatagram(d.data(), d.size(), 2, emit, deliver);
  }
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[1], Msg("second life"));
  EXPECT_EQ(b.counters().sessions_reset, 1u);
}

TEST(ReliableLink, StaleSessionAcksIgnored) {
  ReliableLink::Options opts;
  ReliableLink a(1, 0x111, opts);
  std::deque<std::vector<uint8_t>> out;
  a.SendMessage(Msg("x"), 1,
                [&out](const std::vector<uint8_t>& d) { out.push_back(d); });
  ASSERT_EQ(a.in_flight(), 1u);

  // Forge an ack echoing a WRONG session (as if meant for a previous
  // incarnation of `a`): must not clear in-flight state.
  ReliableLink b(2, 0xb, opts);
  std::deque<std::vector<uint8_t>> acks;
  // Feed b a datagram with a's frame but then rewrite... simpler: craft the
  // ack by having b ack a modified frame. Take a's frame, bump its session.
  std::vector<uint8_t> frame = out.front();
  frame[5] ^= 0xff;  // corrupt the session field
  b.OnDatagram(frame.data(), frame.size(), 1,
               [&acks](const std::vector<uint8_t>& d) { acks.push_back(d); },
               [](std::vector<uint8_t>) {});
  ASSERT_FALSE(acks.empty());
  for (const auto& d : acks) {
    a.OnDatagram(d.data(), d.size(), 2, [](const std::vector<uint8_t>&) {},
                 [](std::vector<uint8_t>) {});
  }
  EXPECT_EQ(a.in_flight(), 1u);  // stale-session ack changed nothing
}

TEST(ReliableLink, RestartedReceiverJoinsMidStream) {
  // THE deployment bug this layer exists to prevent: a long-lived server
  // whose client restarts. The server's sender seq space is past 1 (it
  // replied to the first incarnation); the reborn client must not wait
  // forever for seqs consumed by its predecessor.
  ReliableLink::Options opts;
  ReliableLink server(1, 0xaaaa, opts);
  std::deque<std::vector<uint8_t>> wire;
  auto emit = [&wire](const std::vector<uint8_t>& d) { wire.push_back(d); };

  // First client incarnation: request/reply consumes server seq 1.
  {
    ReliableLink c1(2, 0x111, opts);
    std::deque<std::vector<uint8_t>> c1_out;
    c1.SendMessage(Msg("req1"), 1,
                   [&](const std::vector<uint8_t>& d) { c1_out.push_back(d); });
    for (auto& d : c1_out) {
      server.OnDatagram(d.data(), d.size(), 1, emit,
                        [](std::vector<uint8_t>) {});
    }
    wire.clear();
    server.SendMessage(Msg("reply1"), 1, emit);
    std::vector<std::vector<uint8_t>> to_c1(wire.begin(), wire.end());
    wire.clear();
    int delivered = 0;
    for (auto& d : to_c1) {
      c1.OnDatagram(d.data(), d.size(), 1,
                    [&](const std::vector<uint8_t>& a) {
                      server.OnDatagram(a.data(), a.size(), 1, emit,
                                        [](std::vector<uint8_t>) {});
                    },
                    [&](std::vector<uint8_t>) { ++delivered; });
    }
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(server.in_flight(), 0u);  // reply1 acked; server seq space at 2
  }

  // Second incarnation: fresh session, fresh receiver expecting... whatever
  // the server's stream base says — which is 2, not 1.
  ReliableLink c2(2, 0x222, opts);
  std::deque<std::vector<uint8_t>> c2_out;
  c2.SendMessage(Msg("req2"), 5,
                 [&](const std::vector<uint8_t>& d) { c2_out.push_back(d); });
  for (auto& d : c2_out) {
    server.OnDatagram(d.data(), d.size(), 5, emit, [](std::vector<uint8_t>) {});
  }
  wire.clear();
  server.SendMessage(Msg("reply2"), 5, emit);  // server seq 2
  std::vector<uint8_t> got;
  for (auto& d : wire) {
    c2.OnDatagram(d.data(), d.size(), 5, [](const std::vector<uint8_t>&) {},
                  [&got](std::vector<uint8_t> m) { got = std::move(m); });
  }
  EXPECT_EQ(got, Msg("reply2"));  // delivered despite starting at seq 2
}

TEST(ReliableLink, RestartedServerCatchesUpFromClientBase) {
  // The mirror case: a client mid-stream (seqs 1..2 acked by the old
  // server) keeps sending to a rebooted server. The fresh receiver joins
  // at the client's base instead of waiting for the consumed prefix.
  ReliableLink::Options opts;
  ReliableLink client(2, 0x999, opts);
  std::deque<std::vector<uint8_t>> wire;
  auto emit = [&wire](const std::vector<uint8_t>& d) { wire.push_back(d); };

  {
    ReliableLink s1(1, 0xaaa, opts);
    client.SendMessage(Msg("old1"), 1, emit);
    client.SendMessage(Msg("old2"), 1, emit);
    for (auto& d : wire) {
      s1.OnDatagram(d.data(), d.size(), 1,
                    [&client](const std::vector<uint8_t>& a) {
                      client.OnDatagram(a.data(), a.size(), 1,
                                        [](const std::vector<uint8_t>&) {},
                                        [](std::vector<uint8_t>) {});
                    },
                    [](std::vector<uint8_t>) {});
    }
    wire.clear();
    EXPECT_EQ(client.in_flight(), 0u);  // old server acked seqs 1..2
  }

  ReliableLink s2(1, 0xbbb, opts);  // reboot: blank receiver state
  client.SendMessage(Msg("fresh"), 9, emit);  // client seq 3
  std::vector<uint8_t> got;
  for (auto& d : wire) {
    s2.OnDatagram(d.data(), d.size(), 9, [](const std::vector<uint8_t>&) {},
                  [&got](std::vector<uint8_t> m) { got = std::move(m); });
  }
  EXPECT_EQ(got, Msg("fresh"));
}

TEST(ReliableLink, AbandonedGapSkipsNotWedges) {
  // Sender gives up on a chunk after max_transmissions; the receiver must
  // jump the gap via the stream base and keep delivering later messages.
  ReliableLink::Options opts;
  opts.max_transmissions = 3;
  LinkPair p(opts);

  p.a.SendMessage(Msg("doomed"), 1000, p.EmitA());
  p.a_to_b.clear();  // never arrives
  TimePoint now = 1000;
  while (p.a.in_flight() > 0) {
    now = p.a.NextDeadline();
    p.a.OnTimer(now, p.EmitA());
    p.a_to_b.clear();  // every retransmission lost too
  }
  EXPECT_EQ(p.a.counters().chunks_abandoned, 1u);

  // Channel heals; the next message must get through even though seq 1
  // will never be (re)sent.
  p.a.SendMessage(Msg("survivor"), now, p.EmitA());
  p.Pump(now);
  ASSERT_EQ(p.b_delivered.size(), 1u);
  EXPECT_EQ(p.b_delivered[0], Msg("survivor"));
}

TEST(ReliableLink, MidStreamJoinDiscardsHeadlessTail) {
  // A receiver that joins at a base pointing into the middle of a
  // fragmented message must discard the tail, not deliver a truncation.
  ReliableLink::Options opts;
  opts.max_payload = 4;
  ReliableLink sender(1, 0xaaa, opts);
  std::deque<std::vector<uint8_t>> wire;
  auto emit = [&wire](const std::vector<uint8_t>& d) { wire.push_back(d); };

  // Old receiver acks the first 2 of 4 fragments, then dies.
  {
    ReliableLink r1(2, 0x111, opts);
    sender.SendMessage(Msg("0123456789abcdef"), 1, emit);  // 4 chunks
    std::vector<std::vector<uint8_t>> frames(wire.begin(), wire.end());
    wire.clear();
    for (size_t i = 0; i < 2; ++i) {
      r1.OnDatagram(frames[i].data(), frames[i].size(), 1,
                    [&sender, &emit](const std::vector<uint8_t>& a) {
                      sender.OnDatagram(a.data(), a.size(), 1, emit,
                                        [](std::vector<uint8_t>) {});
                    },
                    [](std::vector<uint8_t>) {});
    }
    wire.clear();
    EXPECT_EQ(sender.in_flight(), 2u);  // fragments 3,4 unacked
  }

  // New receiver: base is 3 (mid-message). Tail discarded, next message
  // delivered whole.
  ReliableLink r2(2, 0x222, opts);
  sender.OnTimer(sender.NextDeadline(), emit);  // retransmit 3,4
  sender.SendMessage(Msg("next"), 99, emit);
  std::vector<std::vector<uint8_t>> delivered;
  for (auto& d : wire) {
    r2.OnDatagram(d.data(), d.size(), 99, [](const std::vector<uint8_t>&) {},
                  [&delivered](std::vector<uint8_t> m) {
                    delivered.push_back(std::move(m));
                  });
  }
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0], Msg("next"));
  EXPECT_GT(r2.counters().messages_skipped, 0u);
}

TEST(ReliableLink, RandomizedLossyChannelConvergence) {
  // Property-flavored: under 20% loss + 10% duplication + reordering, every
  // message still arrives exactly once, in order.
  std::mt19937_64 rng(42);
  ReliableLink::Options opts;
  opts.max_payload = 64;
  opts.rto_initial = 10 * kMillisecond;
  LinkPair p(opts);

  const int kMessages = 200;
  int sent = 0;
  TimePoint now = 1000;
  std::vector<std::vector<uint8_t>> channel;

  while (p.b_delivered.size() < kMessages && now < 100 * kSecond) {
    // Offer a few new messages while the window allows.
    while (sent < kMessages && p.a.in_flight() + p.a.backlog() < 32) {
      std::string body(1 + size_t(rng() % 150), char('a' + sent % 26));
      body += "#" + std::to_string(sent);
      p.a.SendMessage(Msg(body), now, p.EmitA());
      ++sent;
    }
    p.a.OnTimer(now, p.EmitA());

    // Channel a->b: lose 20%, duplicate 10%, shuffle.
    channel.assign(p.a_to_b.begin(), p.a_to_b.end());
    p.a_to_b.clear();
    std::vector<std::vector<uint8_t>> arriving;
    for (auto& d : channel) {
      if (rng() % 100 < 20) continue;
      arriving.push_back(d);
      if (rng() % 100 < 10) arriving.push_back(d);
    }
    std::shuffle(arriving.begin(), arriving.end(), rng);
    for (const auto& d : arriving) {
      p.b.OnDatagram(d.data(), d.size(), now, p.EmitB(),
                     [&p](std::vector<uint8_t> m) {
                       p.b_delivered.push_back(std::move(m));
                     });
    }
    // Acks b->a: lose 20% too.
    channel.assign(p.b_to_a.begin(), p.b_to_a.end());
    p.b_to_a.clear();
    for (const auto& d : channel) {
      if (rng() % 100 < 20) continue;
      p.a.OnDatagram(d.data(), d.size(), now, p.EmitA(),
                     [](std::vector<uint8_t>) {});
    }
    now += 5 * kMillisecond;
  }

  ASSERT_EQ(p.b_delivered.size(), kMessages);
  for (int i = 0; i < kMessages; ++i) {
    std::string s(p.b_delivered[i].begin(), p.b_delivered[i].end());
    EXPECT_TRUE(s.ends_with("#" + std::to_string(i)))
        << "out of order at " << i << ": " << s;
  }
  EXPECT_GT(p.a.counters().retransmits, 0u);
  EXPECT_GT(p.b.counters().duplicates_dropped, 0u);
}

// --- phonebook ------------------------------------------------------------

TEST(Phonebook, ParsesAndRejects) {
  auto ok = net::Phonebook::Parse(
      "# cluster\n1 127.0.0.1:7101\n\n2 localhost:7102\n");
  ASSERT_TRUE(ok.ok()) << ok.status().message();
  EXPECT_EQ(ok->size(), 2u);
  ASSERT_NE(ok->Find(1), nullptr);
  EXPECT_EQ(ok->Find(1)->host, "127.0.0.1");
  EXPECT_EQ(ok->Find(1)->port, 7101);
  EXPECT_EQ(ok->Find(3), nullptr);
  EXPECT_EQ(ok->ids(), (std::vector<NodeId>{1, 2}));

  EXPECT_FALSE(net::Phonebook::Parse("").ok());
  EXPECT_FALSE(net::Phonebook::Parse("1 nohost\n").ok());
  EXPECT_FALSE(net::Phonebook::Parse("1 h:0\n").ok());
  EXPECT_FALSE(net::Phonebook::Parse("1 h:99999\n").ok());
  EXPECT_FALSE(net::Phonebook::Parse("x h:1\n").ok());
  EXPECT_FALSE(net::Phonebook::Parse("1 h:1\n1 g:2\n").ok());
  EXPECT_FALSE(net::Phonebook::Parse("1 h:1 junk\n").ok());
}

// --- UdpTransport over real loopback sockets ------------------------------

class UdpTransportTest : public ::testing::Test {
 protected:
  // Two transports on ephemeral loopback ports, phonebooks pointing at each
  // other. Ports are discovered after bind via bound_port().
  void Boot(net::UdpTransport::Options opts = {}) {
    // First bind both ephemerally to learn ports, then rebuild phonebooks.
    net::Phonebook empty =
        *net::Phonebook::Parse("9 127.0.0.1:1\n");  // placeholder, unused id
    auto probe1 = std::make_unique<net::UdpTransport>(1, empty, &clock_,
                                                      nullptr, opts);
    auto probe2 = std::make_unique<net::UdpTransport>(2, empty, &clock_,
                                                      nullptr, opts);
    ASSERT_TRUE(probe1->status().ok()) << probe1->status().message();
    uint16_t port1 = probe1->bound_port();
    uint16_t port2 = probe2->bound_port();
    probe1.reset();
    probe2.reset();
    std::string book = "1 127.0.0.1:" + std::to_string(port1) +
                       "\n2 127.0.0.1:" + std::to_string(port2) + "\n";
    auto parsed = net::Phonebook::Parse(book);
    ASSERT_TRUE(parsed.ok());
    t1_ = std::make_unique<net::UdpTransport>(1, *parsed, &clock_, &metrics1_,
                                              opts);
    t2_ = std::make_unique<net::UdpTransport>(2, *parsed, &clock_, &metrics2_,
                                              opts);
    ASSERT_TRUE(t1_->status().ok()) << t1_->status().message();
    ASSERT_TRUE(t2_->status().ok()) << t2_->status().message();
  }

  /// Pump both sockets until `pred` or ~`budget_ms` of real time.
  bool PumpUntil(const std::function<bool()>& pred, int budget_ms = 5000) {
    for (int spent = 0; spent < budget_ms && !pred(); ++spent) {
      t1_->OnReadable();
      t2_->OnReadable();
      t1_->OnTimer();
      t2_->OnTimer();
      usleep(1000);
    }
    return pred();
  }

  net::SystemClock clock_;
  MetricRegistry metrics1_, metrics2_;
  std::unique_ptr<net::UdpTransport> t1_, t2_;
};

TEST_F(UdpTransportTest, MessagesCrossRealSockets) {
  Boot();
  std::vector<uint64_t> got;
  t2_->Bind(2, [&got](NodeId from, const raft::Message& m, obs::TraceCtx) {
    EXPECT_EQ(from, 1u);
    got.push_back(std::get<raft::RequestVote>(m).last_idx);
  });
  for (uint64_t i = 0; i < 50; ++i) {
    raft::RequestVote v;
    v.candidate = 1;
    v.last_idx = i;
    t1_->Send(1, 2, raft::MakeMessage(v));
  }
  ASSERT_TRUE(PumpUntil([&] { return got.size() == 50; }));
  for (uint64_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST_F(UdpTransportTest, TraceCtxSurvivesTheWire) {
  Boot();
  obs::TraceCtx seen;
  t2_->Bind(2, [&seen](NodeId, const raft::Message&, obs::TraceCtx ctx) {
    seen = ctx;
  });
  raft::MessagePtr msg = raft::MakeMessage(raft::RequestVote{});
  obs::TraceCtx ctx;
  ctx.trace_id = 0xdeadbeef;
  ctx.parent_span = 42;
  msg.set_trace_ctx(ctx);
  t1_->Send(1, 2, msg);
  ASSERT_TRUE(PumpUntil([&] { return seen.trace_id != 0; }));
  EXPECT_EQ(seen.trace_id, 0xdeadbeefu);
  EXPECT_EQ(seen.parent_span, 42u);
}

TEST_F(UdpTransportTest, LossyShimStillDeliversInOrder) {
  net::UdpTransport::Options opts;
  opts.link.rto_initial = 5 * kMillisecond;  // fast retransmits for the test
  Boot(opts);
  // Drop 30%, duplicate 15%, and swap-reorder adjacent datagrams, both ways.
  // A "held then never released" datagram is indistinguishable from loss, so
  // the delay branch just drops too — the link's retransmission covers it.
  std::mt19937_64 rng(7);
  auto shim = [&rng](NodeId to, std::vector<uint8_t> d,
                     const net::UdpTransport::RawSendFn& forward) {
    uint64_t dice = rng() % 100;
    if (dice < 30) return;  // lost
    forward(to, d);
    if (dice >= 85) forward(to, d);  // duplicated
  };
  t1_->set_send_shim(shim);
  t2_->set_send_shim(shim);

  std::vector<uint64_t> got;
  t2_->Bind(2, [&got](NodeId, const raft::Message& m, obs::TraceCtx) {
    got.push_back(std::get<raft::AppendReply>(m).match);
  });
  const uint64_t kCount = 100;
  for (uint64_t i = 0; i < kCount; ++i) {
    raft::AppendReply v;
    v.from = 1;
    v.match = i;
    t1_->Send(1, 2, raft::MakeMessage(v));
  }
  ASSERT_TRUE(PumpUntil([&] { return got.size() == kCount; }, 20000));
  for (uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(got[i], i);
  // The channel was genuinely lossy: retransmits happened, duplicates were
  // dropped on the receive side.
  const net::ReliableLink* l1 = t1_->link(2);
  ASSERT_NE(l1, nullptr);
  EXPECT_GT(l1->counters().retransmits, 0u);
}

TEST_F(UdpTransportTest, ReceiveBufferHoldsLinkWindows) {
  net::Phonebook book = *net::Phonebook::Parse("9 127.0.0.1:1\n");
  net::UdpTransport t(1, book, &clock_, nullptr);
  ASSERT_TRUE(t.status().ok()) << t.status().message();

  // Without CAP_NET_ADMIN the request falls back to SO_RCVBUF, which the
  // kernel clamps at net.core.rmem_max before doubling.
  int probe = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(probe, 0);
  int want = net::UdpTransport::kRcvBufTarget;
  bool forced =
      setsockopt(probe, SOL_SOCKET, SO_RCVBUFFORCE, &want, sizeof(want)) == 0;
  close(probe);
  if (forced) {
    EXPECT_GE(t.rcvbuf_bytes(), 2 * net::UdpTransport::kRcvBufTarget);
  } else {
    std::ifstream in("/proc/sys/net/core/rmem_max");
    int rmem_max = 0;
    ASSERT_TRUE(in >> rmem_max);
    EXPECT_GE(t.rcvbuf_bytes(),
              2 * std::min(rmem_max, net::UdpTransport::kRcvBufTarget));
  }
}

TEST_F(UdpTransportTest, KernelOverflowDropsAreCounted) {
  net::Phonebook book = *net::Phonebook::Parse("9 127.0.0.1:1\n");
  MetricRegistry metrics;
  net::UdpTransport t(1, book, &clock_, &metrics);
  ASSERT_TRUE(t.status().ok()) << t.status().message();

  // Far more than any receive buffer holds, sent while nobody reads. The
  // payload is not a link frame, so every datagram that reaches the
  // transport counts as garbage and every other one as a kernel drop.
  const uint64_t kSent = 20000;
  int raw = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(raw, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(t.bound_port());
  dst.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::vector<uint8_t> junk(1400, 0);
  for (uint64_t i = 0; i < kSent; ++i) {
    ASSERT_EQ(sendto(raw, junk.data(), junk.size(), 0,
                     reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)),
              static_cast<ssize_t>(junk.size()));
  }
  close(raw);

  // Loopback delivery can trail sendto by a softirq; drain until every
  // datagram is accounted for or the budget runs out.
  const CounterSet& c = metrics.counters();
  auto accounted = [&c] {
    return c.Get("net.garbage_dropped") + c.Get("net.rx_overflow_drops");
  };
  for (int spent = 0; spent < 2000 && accounted() < kSent; ++spent) {
    t.OnReadable();
    usleep(1000);
  }
  EXPECT_EQ(accounted(), kSent);
  EXPECT_GT(c.Get("net.rx_overflow_drops"), 0u);
}

}  // namespace
}  // namespace recraft
