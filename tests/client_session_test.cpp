// client::Session behaviour suite: one client state machine, every
// transport. The same TEST_P bodies run the session over
// sim::SimTransport + sim::SimClock and over net::UdpTransport +
// net::SystemClock (real loopback sockets), against scripted fake servers
// that answer each ClientRequest with a chosen reply — or stay silent. Each
// test pins one rule of src/client/session.h:
//
//   * a kNotLeader hint is followed;
//   * kBusy resends to the same node after the 10 ms backoff;
//   * a silent node triggers the round timeout, which drops the hint and
//     rotates to another member;
//   * kWrongShard refetches a map-driven router and drops the hint on a
//     manual one;
//   * every retransmission carries the command's client_id/seq;
//   * a late reply for an abandoned op is ignored and arms no timer.
//
// A last, unparameterized test drives net::KvClient::Do itself against
// fake servers on a second thread.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "client/router.h"
#include "client/session.h"
#include "common/rng.h"
#include "kv/service.h"
#include "net/phonebook.h"
#include "net/udp_client.h"
#include "net/udp_clock.h"
#include "net/udp_transport.h"
#include "shard/shard_map.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/transport.h"

namespace recraft {
namespace {

constexpr NodeId kServers[] = {1, 2, 3};
constexpr NodeId kClient = 100;
constexpr Duration kRoundTimeout = 200 * kMillisecond;
constexpr Duration kBackoff = 10 * kMillisecond;

/// Counts what the transport delivers to the endpoint bound through it.
class CountingTransport final : public net::Transport {
 public:
  explicit CountingTransport(net::Transport* inner) : inner_(inner) {}

  void Bind(NodeId node, net::ReceiveFn fn) override {
    inner_->Bind(node, [this, fn = std::move(fn)](NodeId from,
                                                  const raft::Message& m,
                                                  obs::TraceCtx ctx) {
      ++delivered;
      fn(from, m, ctx);
    });
  }
  void Unbind(NodeId node) override { inner_->Unbind(node); }
  void Send(NodeId from, NodeId to, const raft::MessagePtr& msg) override {
    inner_->Send(from, to, msg);
  }

  size_t delivered = 0;

 private:
  net::Transport* inner_;
};

/// The session's side (one transport, one clock) and the servers' side of
/// a network, plus a way to drive both.
class Net {
 public:
  virtual ~Net() = default;
  virtual net::Transport& client_transport() = 0;
  virtual net::Clock& clock() = 0;
  virtual net::Transport& server(NodeId id) = 0;
  /// Drive delivery and timers until `pred()` or a generous budget runs out.
  virtual bool PumpUntil(const std::function<bool()>& pred) = 0;
  /// Armed timers (the simulator also counts in-flight deliveries).
  virtual size_t pending() const = 0;

  void PumpFor(Duration d) {
    TimePoint until = clock().Now() + d;
    PumpUntil([this, until] { return clock().Now() >= until; });
  }
};

class SimNet final : public Net {
 public:
  SimNet() : net_(events_, sim::NetworkOptions{}, Rng(1)) {}

  net::Transport& client_transport() override { return transport_; }
  net::Clock& clock() override { return clock_; }
  net::Transport& server(NodeId) override { return transport_; }
  bool PumpUntil(const std::function<bool()>& pred) override {
    return events_.RunUntilPred(pred, events_.now() + 60 * kSecond);
  }
  size_t pending() const override { return events_.pending(); }

 private:
  sim::EventQueue events_;
  sim::Network net_;
  sim::SimTransport transport_{&net_};
  sim::SimClock clock_{&events_};
};

/// Binds fake servers 1..3 on real loopback sockets; returns their
/// phonebook.
net::Phonebook BindServers(
    net::SystemClock* clock,
    std::map<NodeId, std::unique_ptr<net::UdpTransport>>* servers) {
  // Bind ephemerally to learn ports, then rebuild the transports from the
  // phonebook (same discovery dance as transport_conformance_test.cpp).
  net::Phonebook placeholder = *net::Phonebook::Parse("9 127.0.0.1:1\n");
  std::string text;
  for (NodeId id : kServers) {
    net::UdpTransport probe(id, placeholder, clock, nullptr);
    EXPECT_TRUE(probe.status().ok()) << probe.status().message();
    text += std::to_string(id) + " 127.0.0.1:" +
            std::to_string(probe.bound_port()) + "\n";
  }
  net::Phonebook book = *net::Phonebook::Parse(text);
  for (NodeId id : kServers) {
    (*servers)[id] =
        std::make_unique<net::UdpTransport>(id, book, clock, nullptr);
    EXPECT_TRUE((*servers)[id]->status().ok());
  }
  return book;
}

class UdpNet final : public Net {
 public:
  UdpNet() {
    net::Phonebook book = BindServers(&clock_, &servers_);
    client_ = std::make_unique<net::UdpTransport>(kClient, book, &clock_,
                                                  nullptr);
    EXPECT_TRUE(client_->status().ok());
  }

  net::Transport& client_transport() override { return *client_; }
  net::Clock& clock() override { return clock_; }
  net::Transport& server(NodeId id) override { return *servers_[id]; }
  bool PumpUntil(const std::function<bool()>& pred) override {
    TimePoint give_up = clock_.Now() + 10 * kSecond;
    while (!pred() && clock_.Now() < give_up) {
      for (auto& [id, t] : servers_) {
        t->OnReadable();
        t->OnTimer();
      }
      client_->OnReadable();
      client_->OnTimer();
      clock_.RunDue();
      usleep(200);
    }
    return pred();
  }
  size_t pending() const override { return clock_.pending(); }

 private:
  net::SystemClock clock_;
  std::map<NodeId, std::unique_ptr<net::UdpTransport>> servers_;
  std::unique_ptr<net::UdpTransport> client_;
};

enum class Impl { kSim, kUdp };

std::string ImplName(const ::testing::TestParamInfo<Impl>& info) {
  return info.param == Impl::kSim ? "Sim" : "Udp";
}

raft::ClientReply Reply(Status status, NodeId hint = kNoNode) {
  raft::ClientReply r;
  r.status = std::move(status);
  r.leader_hint = hint;
  return r;
}

kv::Command Put(uint64_t seq) {
  kv::Command c;
  c.op = kv::OpType::kPut;
  c.key = "k";
  c.value = "v";
  c.client_id = kClient;
  c.seq = seq;
  return c;
}

class ClientSession : public ::testing::TestWithParam<Impl> {
 protected:
  /// One request as a fake server saw it.
  struct Seen {
    NodeId node = kNoNode;
    TimePoint at = 0;
    uint64_t req_id = 0;
    kv::Command cmd;
  };
  /// The reply node `node` gives to its `nth` request (0-based), or nullopt
  /// to stay silent.
  using Script =
      std::function<std::optional<raft::ClientReply>(NodeId node, size_t nth)>;

  void SetUp() override {
    if (GetParam() == Impl::kSim) {
      net_ = std::make_unique<SimNet>();
    } else {
      net_ = std::make_unique<UdpNet>();
    }
    spy_ = std::make_unique<CountingTransport>(&net_->client_transport());
    for (NodeId id : kServers) {
      net_->server(id).Bind(id, [this, id](NodeId from,
                                           const raft::Message& m,
                                           obs::TraceCtx) {
        const auto* req = std::get_if<raft::ClientRequest>(&m);
        if (req == nullptr) return;
        const auto* cmd = std::get_if<sm::Command>(&req->body);
        ASSERT_NE(cmd, nullptr) << "puts travel as log commands";
        Seen s;
        s.node = id;
        s.at = net_->clock().Now();
        s.req_id = req->req_id;
        s.cmd = *kv::DecodeCommand(*cmd);
        seen_.push_back(s);
        std::optional<raft::ClientReply> reply = script_(id, nth_[id]++);
        if (reply) SendReply(id, from, req->req_id, *reply);
      });
    }
    router_.SetClusters({client::Router::Entry{{1, 2, 3}, KeyRange::Full()}});
  }

  void TearDown() override {
    session_.reset();  // unbinds before the transports go
    for (NodeId id : kServers) net_->server(id).Unbind(id);
  }

  void SendReply(NodeId server, NodeId to, uint64_t req_id,
                 raft::ClientReply reply) {
    reply.req_id = req_id;
    reply.from = server;
    net_->server(server).Send(server, to,
                              raft::MakeMessage(raft::Message(reply)));
  }

  void StartSession(client::Router* router = nullptr) {
    client::SessionOptions opts;
    opts.round_timeout = kRoundTimeout;
    session_ = std::make_unique<client::Session>(
        kClient, *spy_, net_->clock(), router ? *router : router_, opts,
        [this](const client::Session::Op&, const raft::ClientReply& r) {
          done_.push_back(r);
        });
  }

  void Submit(kv::Command cmd) {
    std::vector<kv::Command> round;
    round.push_back(std::move(cmd));
    session_->Submit(std::move(round));
  }

  bool PumpUntilDone() {
    return net_->PumpUntil([this] { return !done_.empty(); });
  }

  std::vector<NodeId> Targets() const {
    std::vector<NodeId> out;
    for (const Seen& s : seen_) out.push_back(s.node);
    return out;
  }

  std::unique_ptr<Net> net_;
  std::unique_ptr<CountingTransport> spy_;
  client::Router router_;
  std::unique_ptr<client::Session> session_;
  Script script_;
  std::map<NodeId, size_t> nth_;
  std::vector<Seen> seen_;
  std::vector<raft::ClientReply> done_;
};

TEST_P(ClientSession, FollowsNotLeaderHint) {
  script_ = [](NodeId node, size_t) -> std::optional<raft::ClientReply> {
    if (node == 1) return Reply(NotLeader(), /*hint=*/3);
    return Reply(OkStatus());
  };
  StartSession();
  Submit(Put(1));
  ASSERT_TRUE(PumpUntilDone());
  EXPECT_EQ(Targets(), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(done_[0].from, 3u);
  EXPECT_EQ(router_.clusters()[0].leader_hint, 3u);
}

TEST_P(ClientSession, BusyResendsToSameNodeAfterBackoff) {
  script_ = [](NodeId node, size_t nth) -> std::optional<raft::ClientReply> {
    if (nth == 0) return Reply(Busy(), /*hint=*/node);  // a busy leader
    return Reply(OkStatus());
  };
  StartSession();
  Submit(Put(1));
  ASSERT_TRUE(PumpUntilDone());
  ASSERT_EQ(Targets(), (std::vector<NodeId>{1, 1}));
  EXPECT_GE(seen_[1].at - seen_[0].at, kBackoff);
  EXPECT_LT(seen_[1].at - seen_[0].at, kRoundTimeout);
}

TEST_P(ClientSession, SilentNodeTimesOutDropsHintAndRotates) {
  router_.SetClusters(
      {client::Router::Entry{{1, 2, 3}, KeyRange::Full(), /*hint=*/3}});
  script_ = [](NodeId node, size_t) -> std::optional<raft::ClientReply> {
    if (node == 3) return std::nullopt;  // dead leader
    return Reply(OkStatus());
  };
  StartSession();
  Submit(Put(1));
  ASSERT_TRUE(PumpUntilDone());
  ASSERT_EQ(Targets(), (std::vector<NodeId>{3, 1}));
  EXPECT_GE(seen_[1].at - seen_[0].at, kRoundTimeout);
  EXPECT_EQ(router_.clusters()[0].leader_hint, 1u);
}

TEST_P(ClientSession, WrongShardRefetchesMapDrivenRouter) {
  shard::ShardMap map;
  shard::ShardInfo only;
  only.range = KeyRange::Full();
  only.members = {1};
  ASSERT_TRUE(map.Bootstrap({only}).ok());
  client::Router router(&map);
  const shard::ShardId id = map.Shards()[0].id;
  script_ = [&map, id](NodeId node,
                       size_t) -> std::optional<raft::ClientReply> {
    if (node != 1) return Reply(OkStatus());
    // The shard moved to node 2 before node 1 rejected the op.
    EXPECT_TRUE(map.UpdateMembership(id, {2}, /*epoch=*/2).ok());
    return Reply(WrongShard());
  };
  StartSession(&router);
  Submit(Put(1));
  ASSERT_TRUE(PumpUntilDone());
  EXPECT_EQ(Targets(), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(router.fetched_version(), map.version());
  EXPECT_EQ(session_->wrong_shard_retries(), 1u);
}

TEST_P(ClientSession, WrongShardDropsHintOnManualRouter) {
  router_.SetClusters(
      {client::Router::Entry{{1, 2, 3}, KeyRange::Full(), /*hint=*/2}});
  script_ = [](NodeId node, size_t) -> std::optional<raft::ClientReply> {
    if (node == 2) return Reply(WrongShard());
    return Reply(OkStatus());
  };
  StartSession();
  Submit(Put(1));
  ASSERT_TRUE(PumpUntilDone());
  // With the hint kept, the resend would have gone back to node 2.
  EXPECT_EQ(Targets(), (std::vector<NodeId>{2, 1}));
  EXPECT_EQ(session_->wrong_shard_retries(), 1u);
}

TEST_P(ClientSession, RetransmissionsKeepClientIdAndSeq) {
  // busy at 1 -> not-leader pointing at 2 -> 2 silent -> round timeout
  // rotates back to 2, which answers.
  script_ = [](NodeId node, size_t nth) -> std::optional<raft::ClientReply> {
    if (node == 1 && nth == 0) return Reply(Busy(), 1);
    if (node == 1) return Reply(NotLeader(), 2);
    if (node == 2 && nth == 0) return std::nullopt;
    return Reply(OkStatus());
  };
  StartSession();
  Submit(Put(7));
  ASSERT_TRUE(PumpUntilDone());
  ASSERT_EQ(Targets(), (std::vector<NodeId>{1, 1, 2, 2}));
  std::set<uint64_t> req_ids;
  for (const Seen& s : seen_) {
    req_ids.insert(s.req_id);
    EXPECT_EQ(s.cmd.client_id, kClient);
    EXPECT_EQ(s.cmd.seq, 7u);
    EXPECT_EQ(s.cmd.key, "k");
  }
  EXPECT_EQ(req_ids.size(), seen_.size()) << "one req_id per transmission";
}

TEST_P(ClientSession, LateReplyToAbandonedOpIsIgnored) {
  script_ = [](NodeId, size_t) -> std::optional<raft::ClientReply> {
    return std::nullopt;  // answer nothing on our own
  };
  StartSession();
  Submit(Put(1));
  ASSERT_TRUE(net_->PumpUntil([this] { return seen_.size() == 1; }));
  session_->Abandon();  // what KvClient::Do does at its deadline
  const size_t timers = net_->pending();

  SendReply(1, kClient, seen_[0].req_id, Reply(OkStatus()));
  ASSERT_TRUE(net_->PumpUntil([this] { return spy_->delivered == 1; }));
  EXPECT_EQ(net_->pending(), timers) << "the late reply armed a timer";
  EXPECT_TRUE(done_.empty());

  // The abandoned round's timer fires as a no-op: nothing is resent.
  net_->PumpFor(kRoundTimeout + 50 * kMillisecond);
  EXPECT_EQ(seen_.size(), 1u);
  EXPECT_TRUE(done_.empty());
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ClientSession,
                         ::testing::Values(Impl::kSim, Impl::kUdp), ImplName);

// KvClient::Do end to end: a Do that times out leaves nothing behind, so a
// late reply to its op cannot complete the next Do.
TEST(KvClient, LateReplyAfterDeadlineDoesNotLeakIntoNextOp) {
  net::SystemClock server_clock;
  std::map<NodeId, std::unique_ptr<net::UdpTransport>> servers;
  net::Phonebook book = BindServers(&server_clock, &servers);

  // Server-thread state (read by the test only after join).
  std::vector<std::pair<NodeId, kv::Command>> seen;
  std::optional<uint64_t> stalled_put;
  for (auto& [id, t] : servers) {
    net::UdpTransport* self = t.get();
    NodeId node = id;
    t->Bind(node, [&, self, node](NodeId from, const raft::Message& m,
                                  obs::TraceCtx) {
      const auto* req = std::get_if<raft::ClientRequest>(&m);
      if (req == nullptr) return;
      kv::Command cmd;
      if (const auto* c = std::get_if<sm::Command>(&req->body)) {
        cmd = *kv::DecodeCommand(*c);
      } else {
        cmd = *kv::DecodeCommand(std::get<raft::ReadRequest>(req->body).query);
      }
      seen.emplace_back(node, cmd);
      auto send = [&](uint64_t req_id, raft::ClientReply r) {
        r.req_id = req_id;
        r.from = node;
        self->Send(node, from, raft::MakeMessage(raft::Message(r)));
      };
      if (node != 2) {
        send(req->req_id, Reply(NotLeader(), 2));
      } else if (cmd.op == kv::OpType::kPut) {
        stalled_put = req->req_id;  // never answered in time
      } else {
        // The put's reply arrives late, just ahead of the get's.
        raft::ClientReply late = Reply(OkStatus());
        late.value = "stale";
        if (stalled_put) send(*stalled_put, late);
        raft::ClientReply fresh = Reply(OkStatus());
        fresh.value = "fresh";
        send(req->req_id, fresh);
      }
    });
  }
  std::atomic<bool> stop{false};
  std::thread server_loop([&] {
    while (!stop.load()) {
      for (auto& [id, t] : servers) {
        t->OnReadable();
        t->OnTimer();
      }
      usleep(200);
    }
  });

  net::KvClient client(kClient, book);
  kv::Command put;
  put.op = kv::OpType::kPut;
  put.key = "k";
  put.value = "v";
  kv::Response r1 = client.Do(put, 100 * kMillisecond);
  kv::Command get;
  get.op = kv::OpType::kGet;
  get.key = "k";
  kv::Response r2 = client.Do(get, 5 * kSecond);
  stop = true;
  server_loop.join();

  EXPECT_EQ(r1.status.code(), Code::kTimeout);
  ASSERT_TRUE(r2.status.ok()) << r2.status.message();
  EXPECT_EQ(r2.value, "fresh");
  EXPECT_EQ(client.last_leader(), 2u);
  ASSERT_GE(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, 1u);  // no hint yet: the first phonebook node
  EXPECT_EQ(seen[1].first, 2u);  // the not-leader hint, followed
  for (const auto& [node, cmd] : seen) {
    if (cmd.op != kv::OpType::kPut) continue;
    EXPECT_EQ(cmd.client_id, kClient);
    EXPECT_EQ(cmd.seq, 1u);
  }
}

}  // namespace
}  // namespace recraft
