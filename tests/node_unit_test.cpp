// White-box unit tests of core::Node: messages are crafted and delivered by
// hand through a capturing send function, with no simulator in between —
// covering stale-term handling, vote rules, append consistency checks and
// admission control at the RPC level.
#include <gtest/gtest.h>

#include <functional>
#include <optional>
#include <string>

#include "core/node.h"
#include "kv/kv_machine.h"
#include "kv/service.h"

namespace recraft::core {
namespace {

using raft::EpochTerm;

const kv::Store& StoreOf(const Node& n) {
  return static_cast<const kv::KvMachine&>(n.machine()).store();
}

struct Captured {
  NodeId to;
  raft::MessagePtr msg;
};

/// One node under test plus a mailbox of everything it sent.
struct NodeHarness {
  explicit NodeHarness(NodeId id, std::vector<NodeId> members,
                       Options opts = {}) {
    if (!opts.machine_factory) opts.machine_factory = kv::KvMachineFactory();
    raft::ConfigState genesis;
    genesis.members = std::move(members);
    genesis.range = KeyRange::Full();
    genesis.uid = 99;
    node = std::make_unique<Node>(
        id, opts, genesis, Rng(7),
        [this](NodeId to, raft::MessagePtr m) { outbox.push_back({to, m}); });
  }

  /// Tick until the node starts an election (it will, eventually).
  void TickUntilCandidate(int max_ticks = 100) {
    for (int i = 0; i < max_ticks && node->role() != Role::kCandidate; ++i) {
      node->Tick();
    }
  }

  template <typename T>
  std::vector<T> Sent() {
    std::vector<T> out;
    for (const auto& c : outbox) {
      if (const auto* m = std::get_if<T>(c.msg.get())) out.push_back(*m);
    }
    return out;
  }
  void Clear() { outbox.clear(); }

  std::unique_ptr<Node> node;
  std::vector<Captured> outbox;
};

TEST(NodeUnit, SingleNodeClusterSelfElects) {
  NodeHarness h(1, {1});
  h.TickUntilCandidate();
  EXPECT_TRUE(h.node->IsLeader());  // single-node quorum: instant win
}

TEST(NodeUnit, CandidateRequestsVotesFromAllPeers) {
  NodeHarness h(1, {1, 2, 3});
  h.TickUntilCandidate();
  auto rvs = h.Sent<raft::RequestVote>();
  ASSERT_EQ(rvs.size(), 2u);
  EXPECT_EQ(rvs[0].candidate, 1u);
  EXPECT_EQ(EpochTerm(rvs[0].et).term(), 1u);
}

TEST(NodeUnit, WinsElectionWithMajorityVotes) {
  NodeHarness h(1, {1, 2, 3, 4, 5});
  h.TickUntilCandidate();
  uint64_t et = h.node->current_et().raw();
  raft::VoteReply grant;
  grant.et = et;
  grant.granted = true;
  grant.from = 2;
  h.node->Receive(2, grant);
  EXPECT_FALSE(h.node->IsLeader());  // self + 1 vote < 3
  grant.from = 3;
  h.node->Receive(3, grant);
  EXPECT_TRUE(h.node->IsLeader());  // self + 2 = majority of 5
}

TEST(NodeUnit, IgnoresStaleVoteReplies) {
  NodeHarness h(1, {1, 2, 3});
  h.TickUntilCandidate();
  raft::VoteReply stale;
  stale.et = EpochTerm::Make(0, 0).raw();  // from an ancient term
  stale.granted = true;
  stale.from = 2;
  h.node->Receive(2, stale);
  EXPECT_FALSE(h.node->IsLeader());
}

TEST(NodeUnit, GrantsVoteOncePerTerm) {
  NodeHarness h(1, {1, 2, 3});
  raft::RequestVote rv;
  rv.et = EpochTerm::Make(0, 5).raw();
  rv.candidate = 2;
  rv.last_idx = 10;
  rv.last_term = EpochTerm::Make(0, 4).raw();
  h.node->Receive(2, rv);
  auto replies = h.Sent<raft::VoteReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].granted);
  // A different candidate at the same term is refused.
  h.Clear();
  rv.candidate = 3;
  h.node->Receive(3, rv);
  replies = h.Sent<raft::VoteReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].granted);
}

TEST(NodeUnit, RefusesVoteForStaleLog) {
  NodeHarness h(1, {1, 2, 3});
  // Give the node a longer log via an append from a legitimate leader.
  raft::AppendEntries ae;
  ae.et = EpochTerm::Make(0, 2).raw();
  ae.leader = 2;
  ae.prev_idx = 1;  // matches the ConfInit genesis entry
  ae.prev_term = 0;
  raft::LogEntry e;
  e.index = 2;
  e.term = ae.et;
  e.payload = raft::NoOp{};
  ae.entries = {e};
  ae.commit = 2;
  h.node->Receive(2, ae);
  ASSERT_EQ(h.node->last_log_index(), 2u);
  h.Clear();
  // A candidate at a higher term but with a SHORTER log is refused.
  raft::RequestVote rv;
  rv.et = EpochTerm::Make(0, 3).raw();
  rv.candidate = 3;
  rv.last_idx = 1;
  rv.last_term = 0;
  h.node->Receive(3, rv);
  auto replies = h.Sent<raft::VoteReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].granted);
  // But the node still adopted the higher term.
  EXPECT_EQ(h.node->current_et().term(), 3u);
}

TEST(NodeUnit, AppendFromStaleTermRejected) {
  NodeHarness h(1, {1, 2, 3});
  raft::AppendEntries modern;
  modern.et = EpochTerm::Make(0, 5).raw();
  modern.leader = 2;
  modern.prev_idx = 1;
  modern.prev_term = 0;
  h.node->Receive(2, modern);
  h.Clear();
  raft::AppendEntries stale;
  stale.et = EpochTerm::Make(0, 3).raw();
  stale.leader = 3;
  stale.prev_idx = 1;
  stale.prev_term = 0;
  h.node->Receive(3, stale);
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(EpochTerm(replies[0].et).term(), 5u);  // teaches the stale leader
}

TEST(NodeUnit, AppendMismatchReturnsConflictHint) {
  NodeHarness h(1, {1, 2, 3});
  raft::AppendEntries ae;
  ae.et = EpochTerm::Make(0, 2).raw();
  ae.leader = 2;
  ae.prev_idx = 7;  // far beyond the follower's log
  ae.prev_term = ae.et;
  h.node->Receive(2, ae);
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(replies[0].conflict_hint, 2u);  // next after the genesis entry
}

TEST(NodeUnit, FollowerAppendsAndCommits) {
  NodeHarness h(1, {1, 2, 3});
  raft::AppendEntries ae;
  ae.et = EpochTerm::Make(0, 1).raw();
  ae.leader = 2;
  ae.prev_idx = 1;
  ae.prev_term = 0;
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "x";
  cmd.value = "1";
  raft::LogEntry e;
  e.index = 2;
  e.term = ae.et;
  e.payload = kv::EncodeCommand(cmd);
  ae.entries = {e};
  ae.commit = 2;
  h.node->Receive(2, ae);
  EXPECT_EQ(h.node->commit_index(), 2u);
  EXPECT_EQ(h.node->last_applied(), 2u);
  EXPECT_EQ(*StoreOf(*h.node).Get("x"), "1");
  EXPECT_EQ(h.node->leader_hint(), 2u);
}

// --- Appends that overtake a gap -------------------------------------------
// The network may deliver a small AE ahead of a larger one sent before it.
// The follower holds such an AE until the gap fills rather than nacking it
// (a nack would make the leader rewind and resend its whole window).

raft::LogEntry PutEntry(Index index, uint64_t term) {
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "k" + std::to_string(index);
  cmd.value = "v";
  raft::LogEntry e;
  e.index = index;
  e.term = term;
  e.payload = kv::EncodeCommand(cmd);
  return e;
}

/// An AE from `leader` at `et` carrying entry `prev_idx + 1` (none if
/// `empty`), whose predecessor claims `prev_term` (default: `et`; the
/// genesis entry at index 1 has term 0).
raft::AppendEntries AppendAfter(NodeId leader, uint64_t et, Index prev_idx,
                                bool empty = false,
                                std::optional<uint64_t> prev_term = {}) {
  raft::AppendEntries ae;
  ae.et = et;
  ae.leader = leader;
  ae.prev_idx = prev_idx;
  ae.prev_term = prev_term ? *prev_term : (prev_idx <= 1 ? 0 : et);
  if (!empty) ae.entries = {PutEntry(prev_idx + 1, et)};
  return ae;
}

const uint64_t kT1 = EpochTerm::Make(0, 1).raw();

TEST(NodeUnit, AppendAheadOfGapIsHeldWithoutReply) {
  NodeHarness h(1, {1, 2, 3});
  h.node->Receive(2, AppendAfter(2, kT1, 2));  // entry 3 before entry 2
  EXPECT_TRUE(h.outbox.empty());
  EXPECT_EQ(h.node->log().last_index(), 1u);
  EXPECT_EQ(h.node->leader_hint(), 2u);  // still a valid leader contact
  EXPECT_EQ(h.node->counters().Get("repl.append_held"), 1u);
  EXPECT_EQ(h.node->counters().Get("repl.append_gap_nack"), 0u);
}

TEST(NodeUnit, FillingTheGapReleasesHeldAppendsInOrder) {
  NodeHarness h(1, {1, 2, 3});
  h.node->Receive(2, AppendAfter(2, kT1, 3));  // entry 4
  h.node->Receive(2, AppendAfter(2, kT1, 2));  // entry 3
  ASSERT_TRUE(h.outbox.empty());
  h.node->Receive(2, AppendAfter(2, kT1, 1));  // entry 2 fills the gap
  EXPECT_EQ(h.node->log().last_index(), 4u);
  for (Index i = 2; i <= 4; ++i) EXPECT_EQ(h.node->log().TermAt(i), kT1);
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 3u);
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_TRUE(replies[i].ok);
    EXPECT_EQ(replies[i].match, 2 + i);  // one ack per AE, lowest first
  }
  EXPECT_EQ(replies.back().match, 4u);  // the last ack covers held entries
}

TEST(NodeUnit, EmptyAppendWithGapStillNacks) {
  NodeHarness h(1, {1, 2, 3});
  h.node->Receive(2, AppendAfter(2, kT1, 2));  // held
  h.node->Receive(2, AppendAfter(2, kT1, 4, /*empty=*/true));
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(replies[0].conflict_hint, 2u);  // last + 1
  EXPECT_EQ(h.node->counters().Get("repl.append_gap_nack"), 1u);
  // The nack did not discard the held AE.
  h.Clear();
  h.node->Receive(2, AppendAfter(2, kT1, 1));
  EXPECT_EQ(h.node->log().last_index(), 3u);
  EXPECT_EQ(h.Sent<raft::AppendReply>().size(), 2u);
}

/// Holds entry 3's AE from leader 2 at term 1, runs `discard`, then lets
/// `filler` (from node `via`) extend the log through index 2: no trace of
/// the held AE may remain — no append, no reply to it.
void ExpectHeldAppendDiscarded(
    NodeHarness& h, const std::function<void()>& discard, NodeId via,
    const raft::AppendEntries& filler) {
  h.node->Receive(2, AppendAfter(2, kT1, 2));
  discard();
  h.Clear();
  h.node->Receive(via, filler);
  EXPECT_EQ(h.node->log().last_index(), 2u);
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].ok);
  EXPECT_EQ(replies[0].match, 2u);
  EXPECT_EQ(h.outbox.size(), 1u);
}

TEST(NodeUnit, HeldAppendsDroppedOnNewTermRestartOrSnapshot) {
  const uint64_t t2 = EpochTerm::Make(0, 2).raw();
  {
    SCOPED_TRACE("higher term, same leader");
    NodeHarness h(1, {1, 2, 3});
    ExpectHeldAppendDiscarded(
        h, [&] { h.node->Receive(2, AppendAfter(2, t2, 1, true)); }, 2,
        AppendAfter(2, t2, 1));
  }
  {
    SCOPED_TRACE("new leader");
    NodeHarness h(1, {1, 2, 3});
    ExpectHeldAppendDiscarded(
        h, [&] { h.node->Receive(3, AppendAfter(3, t2, 1, true)); }, 3,
        AppendAfter(3, t2, 1));
  }
  {
    SCOPED_TRACE("campaign");
    NodeHarness h(1, {1, 2, 3});
    ExpectHeldAppendDiscarded(
        h,
        [&] {
          h.TickUntilCandidate();
          ASSERT_EQ(h.node->current_et().raw(), t2);
        },
        3, AppendAfter(3, t2, 1));
  }
  {
    SCOPED_TRACE("restart");
    NodeHarness h(1, {1, 2, 3});
    ExpectHeldAppendDiscarded(
        h,
        [&] {
          h.node->OnCrash();
          h.node->OnRestart();
        },
        2, AppendAfter(2, kT1, 1));
  }
  {
    SCOPED_TRACE("snapshot install");
    NodeHarness h(1, {1, 2, 3});
    auto snap = std::make_shared<raft::RaftSnapshot>();
    snap->last_index = 2;
    snap->last_term = kT1;
    auto kvsnap = std::make_shared<kv::Snapshot>();
    kvsnap->range = KeyRange::Full();
    snap->state = kv::KvMachine::Wrap(kvsnap);
    snap->config.members = {1, 2, 3};
    snap->config.range = KeyRange::Full();
    snap->config.uid = 99;
    raft::InstallSnapshot is;
    is.et = kT1;
    is.leader = 2;
    is.snap = snap;
    // The snapshot itself reaches index 2; an empty AE then exercises the
    // release path, which must find nothing held.
    ExpectHeldAppendDiscarded(
        h, [&] { h.node->Receive(2, is); }, 2,
        AppendAfter(2, kT1, 2, /*empty=*/true));
  }
}

TEST(NodeUnit, GappedAppendBeyondHoldCapNacks) {
  Options opts;
  opts.max_inflight_appends = 2;
  NodeHarness h(1, {1, 2, 3}, opts);
  h.node->Receive(2, AppendAfter(2, kT1, 2));
  h.node->Receive(2, AppendAfter(2, kT1, 3));
  EXPECT_TRUE(h.outbox.empty());
  h.node->Receive(2, AppendAfter(2, kT1, 4));  // third: over the cap
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_EQ(replies[0].conflict_hint, 2u);
  EXPECT_EQ(h.node->counters().Get("repl.append_held"), 2u);
  EXPECT_EQ(h.node->counters().Get("repl.append_gap_nack"), 1u);
}

TEST(NodeUnit, ReleasedAppendWithStalePrevTermGetsConflictNack) {
  NodeHarness h(1, {1, 2, 3});
  const uint64_t t2 = EpochTerm::Make(0, 2).raw();
  // Held AE claims entry 2 is from term 1; the filler writes it at term 2.
  h.node->Receive(2, AppendAfter(2, t2, 2, false, kT1));
  ASSERT_TRUE(h.outbox.empty());
  h.node->Receive(2, AppendAfter(2, t2, 1));
  EXPECT_EQ(h.node->log().last_index(), 2u);
  auto replies = h.Sent<raft::AppendReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].ok);
  EXPECT_FALSE(replies[1].ok);
  EXPECT_EQ(replies[1].conflict_hint, 2u);
}

TEST(NodeUnit, HigherEpochVoteTriggersPull) {
  NodeHarness h(1, {1, 2, 3});
  raft::RequestVote rv;
  rv.et = EpochTerm::Make(2, 1).raw();  // two epochs ahead of us
  rv.candidate = 2;
  rv.last_idx = 5;
  rv.last_term = rv.et;
  h.node->Receive(2, rv);
  // The node cannot bridge the gap: it must have started pull recovery.
  auto pulls = h.Sent<raft::PullRequest>();
  ASSERT_EQ(pulls.size(), 1u);
  EXPECT_EQ(pulls[0].epoch, 0u);
  EXPECT_EQ(pulls[0].next_idx, h.node->commit_index() + 1);
}

TEST(NodeUnit, LowerEpochCandidateToldToPull) {
  NodeHarness h(1, {1, 2, 3});
  // Pretend we completed a reconfiguration: install a snapshot at epoch 1.
  auto snap = std::make_shared<raft::RaftSnapshot>();
  snap->last_index = 5;
  snap->last_term = EpochTerm::Make(1, 1).raw();
  auto kvsnap = std::make_shared<kv::Snapshot>();
  kvsnap->range = KeyRange::Full();
  snap->state = kv::KvMachine::Wrap(kvsnap);
  snap->config.members = {1, 2, 3};
  snap->config.range = KeyRange::Full();
  snap->config.uid = 99;
  raft::InstallSnapshot is;
  is.et = EpochTerm::Make(1, 1).raw();
  is.leader = 2;
  is.snap = snap;
  h.node->Receive(2, is);
  ASSERT_EQ(h.node->epoch(), 1u);
  h.Clear();
  // An epoch-0 candidate gets the PULL hint, not a vote.
  raft::RequestVote rv;
  rv.et = EpochTerm::Make(0, 9).raw();
  rv.candidate = 3;
  rv.last_idx = 9;
  rv.last_term = rv.et;
  h.node->Receive(3, rv);
  auto replies = h.Sent<raft::VoteReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].granted);
  EXPECT_TRUE(replies[0].pull);
}

TEST(NodeUnit, ClientRequestToFollowerGetsLeaderHint) {
  NodeHarness h(1, {1, 2, 3});
  raft::AppendEntries ae;  // learn about leader 2
  ae.et = EpochTerm::Make(0, 1).raw();
  ae.leader = 2;
  ae.prev_idx = 1;
  ae.prev_term = 0;
  h.node->Receive(2, ae);
  h.Clear();
  raft::ClientRequest req;
  req.req_id = 42;
  req.from = 1000;
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "k";
  req.body = kv::EncodeCommand(cmd);
  h.node->Receive(1000, req);
  auto replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].status.code(), Code::kNotLeader);
  EXPECT_EQ(replies[0].leader_hint, 2u);
}

TEST(NodeUnit, AdmissionBudgetDefersExcessRequests) {
  Options opts;
  opts.max_client_requests_per_tick = 2;
  NodeHarness h(1, {1}, opts);
  h.TickUntilCandidate();
  ASSERT_TRUE(h.node->IsLeader());
  h.node->Tick();  // fresh budget
  h.Clear();
  for (uint64_t i = 0; i < 5; ++i) {
    raft::ClientRequest req;
    req.req_id = 100 + i;
    req.from = 1000;
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = "k" + std::to_string(i);
    cmd.value = "v";
    req.body = kv::EncodeCommand(cmd);
    h.node->Receive(1000, req);
  }
  // Only 2 served this tick (single-node: replies are immediate).
  EXPECT_EQ(h.Sent<raft::ClientReply>().size(), 2u);
  h.node->Tick();
  EXPECT_EQ(h.Sent<raft::ClientReply>().size(), 4u);
  h.node->Tick();
  EXPECT_EQ(h.Sent<raft::ClientReply>().size(), 5u);
}

TEST(NodeUnit, LeaderStepsDownWithoutQuorumAcks) {
  Options opts;
  NodeHarness h(1, {1, 2, 3}, opts);
  h.TickUntilCandidate();
  uint64_t et = h.node->current_et().raw();
  raft::VoteReply grant;
  grant.et = et;
  grant.granted = true;
  grant.from = 2;
  h.node->Receive(2, grant);
  ASSERT_TRUE(h.node->IsLeader());
  // No follower ever acknowledges: CheckQuorum demotes the leader.
  for (int i = 0; i < 2 * opts.election_timeout_max_ticks + 2; ++i) {
    h.node->Tick();
  }
  EXPECT_FALSE(h.node->IsLeader());
}

TEST(NodeUnit, RetiredNodeNeverCampaigns) {
  raft::ConfigState genesis;  // empty membership = spare/retired node
  genesis.members = {};
  genesis.range = KeyRange::Empty();
  std::vector<Captured> outbox;
  Options opts;
  opts.machine_factory = kv::KvMachineFactory();
  Node node(7, opts, genesis, Rng(3),
            [&outbox](NodeId to, raft::MessagePtr m) {
              outbox.push_back({to, m});
            });
  for (int i = 0; i < 200; ++i) node.Tick();
  EXPECT_EQ(node.role(), Role::kFollower);
  EXPECT_TRUE(node.IsRetired());
  EXPECT_TRUE(outbox.empty());
}

TEST(NodeUnit, ReadBarrierBlocksFreshLeaderReads) {
  // Raft §6.4 step 1: a freshly elected leader's commit_ can lag writes
  // the previous leader committed and acked; until it commits an entry of
  // its own term, ReadIndex reads must be refused (kBusy), never served
  // from the stale applied state.
  NodeHarness h(1, {1, 2, 3});
  raft::AppendEntries ae;
  ae.et = EpochTerm::Make(0, 1).raw();
  ae.leader = 2;
  ae.prev_idx = 1;
  ae.prev_term = 0;
  kv::Command put;
  put.op = kv::OpType::kPut;
  put.key = "hot";
  put.value = "new";
  raft::LogEntry e;
  e.index = 2;
  e.term = ae.et;
  e.payload = kv::EncodeCommand(put);
  ae.entries = {e};
  ae.commit = 1;  // the write is replicated to us but its commit is not
  h.node->Receive(2, ae);
  ASSERT_EQ(h.node->commit_index(), 1u);

  h.TickUntilCandidate();
  uint64_t et = h.node->current_et().raw();
  raft::VoteReply grant;
  grant.et = et;
  grant.granted = true;
  grant.from = 2;
  h.node->Receive(2, grant);
  ASSERT_TRUE(h.node->IsLeader());
  ASSERT_EQ(h.node->commit_index(), 1u);  // own no-op not committed yet
  h.Clear();

  kv::Command get;
  get.op = kv::OpType::kGet;
  get.key = "hot";
  raft::ClientRequest req;
  req.req_id = 7;
  req.from = 1000;
  req.body = raft::ReadRequest{kv::EncodeCommand(get)};
  h.node->Receive(1000, req);
  auto replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  // Without the barrier this served the pre-write state (kNotFound).
  EXPECT_EQ(replies[0].status.code(), Code::kBusy);

  // A follower ack commits the no-op (and, transitively, the write);
  // the barrier lifts and the retried read serves the committed value.
  raft::AppendReply ack;
  ack.et = et;
  ack.from = 2;
  ack.ok = true;
  ack.match = h.node->last_log_index();
  h.node->Receive(2, ack);
  ASSERT_EQ(h.node->commit_index(), h.node->last_log_index());
  h.Clear();
  h.node->Receive(1000, req);
  auto probes = h.Sent<raft::ReadIndexProbe>();
  ASSERT_FALSE(probes.empty());
  raft::ReadIndexAck ra;
  ra.et = et;
  ra.from = 2;
  ra.seq = probes.back().seq;
  ra.ok = true;
  h.node->Receive(2, ra);
  replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_TRUE(replies[0].status.ok());
  EXPECT_EQ(replies[0].value, "new");
}

// Elect node 1 of {1, 2, 3} and commit its term's no-op, so the read
// barrier is lifted; returns the leader's epoch-term.
uint64_t ElectReadyLeader(NodeHarness& h) {
  h.TickUntilCandidate();
  uint64_t et = h.node->current_et().raw();
  raft::VoteReply grant;
  grant.et = et;
  grant.granted = true;
  grant.from = 2;
  h.node->Receive(2, grant);
  raft::AppendReply ack;
  ack.et = et;
  ack.from = 2;
  ack.ok = true;
  ack.match = h.node->last_log_index();
  h.node->Receive(2, ack);
  h.Clear();
  return et;
}

void SendGet(NodeHarness& h, uint64_t req_id) {
  kv::Command get;
  get.op = kv::OpType::kGet;
  get.key = "k";
  raft::ClientRequest req;
  req.req_id = req_id;
  req.from = 1000;
  req.body = raft::ReadRequest{kv::EncodeCommand(get)};
  h.node->Receive(1000, req);
}

void SendReadAck(NodeHarness& h, NodeId from, uint64_t et, uint64_t seq,
                 bool ok = true) {
  raft::ReadIndexAck ra;
  ra.et = et;
  ra.from = from;
  ra.seq = seq;
  ra.ok = ok;
  h.node->Receive(from, ra);
}

// Two reads registered before any ack: the second launches its own probe
// round at once instead of waiting for the first round to finish.
struct PipelinedReads {
  explicit PipelinedReads(NodeHarness& h) {
    et = ElectReadyLeader(h);
    SendGet(h, 7);
    auto probes = h.Sent<raft::ReadIndexProbe>();
    EXPECT_EQ(probes.size(), 2u);  // one per peer
    older = probes.back().seq;
    h.Clear();
    SendGet(h, 8);
    probes = h.Sent<raft::ReadIndexProbe>();
    EXPECT_EQ(probes.size(), 2u);
    newer = probes.back().seq;
    h.Clear();
  }
  uint64_t et = 0;
  uint64_t older = 0;
  uint64_t newer = 0;
};

TEST(NodeUnit, PipelinedReadLaunchesItsOwnRoundAtOnce) {
  NodeHarness h(1, {1, 2, 3});
  PipelinedReads r(h);
  EXPECT_EQ(r.newer, r.older + 1);
  EXPECT_EQ(h.node->pending_read_count(), 2u);
}

TEST(NodeUnit, AckForOlderRoundServesOnlyOlderRead) {
  NodeHarness h(1, {1, 2, 3});
  PipelinedReads r(h);
  SendReadAck(h, 2, r.et, r.older);
  auto replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].req_id, 7u);
  EXPECT_EQ(replies[0].status.code(), Code::kNotFound);  // served
  EXPECT_EQ(h.node->pending_read_count(), 1u);
  // The newer read still needs an ack sent after its own registration.
  h.Clear();
  SendReadAck(h, 3, r.et, r.older);
  EXPECT_TRUE(h.Sent<raft::ClientReply>().empty());
  SendReadAck(h, 3, r.et, r.newer);
  replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].req_id, 8u);
}

TEST(NodeUnit, AckForNewerRoundServesBothReads) {
  NodeHarness h(1, {1, 2, 3});
  PipelinedReads r(h);
  SendReadAck(h, 2, r.et, r.newer);
  auto replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].req_id, 7u);
  EXPECT_EQ(replies[1].req_id, 8u);
  // Served from the machine: the key was never written.
  EXPECT_EQ(replies[0].status.code(), Code::kNotFound);
  EXPECT_EQ(replies[1].status.code(), Code::kNotFound);
  EXPECT_EQ(h.node->pending_read_count(), 0u);
  EXPECT_TRUE(h.Sent<raft::ReadIndexProbe>().empty());
}

TEST(NodeUnit, HigherTermNackFailsEveryPipelinedRead) {
  NodeHarness h(1, {1, 2, 3});
  PipelinedReads r(h);
  EpochTerm cur(r.et);
  uint64_t higher = EpochTerm::Make(cur.epoch(), cur.term() + 1).raw();
  SendReadAck(h, 2, higher, r.older, /*ok=*/false);
  EXPECT_FALSE(h.node->IsLeader());
  auto replies = h.Sent<raft::ClientReply>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].status.code(), Code::kNotLeader);
  EXPECT_EQ(replies[1].status.code(), Code::kNotLeader);
  EXPECT_EQ(h.node->pending_read_count(), 0u);
}

TEST(NodeUnit, UnlaunchedOrStaleTermReadAckServesNothing) {
  NodeHarness h(1, {1, 2, 3});
  PipelinedReads r(h);
  // A round this leader never launched.
  SendReadAck(h, 2, r.et, r.newer + 1);
  // An ok ack from an older term.
  EpochTerm cur(r.et);
  uint64_t stale = EpochTerm::Make(cur.epoch(), cur.term() - 1).raw();
  SendReadAck(h, 3, stale, r.newer);
  EXPECT_TRUE(h.Sent<raft::ClientReply>().empty());
  EXPECT_EQ(h.node->pending_read_count(), 2u);
  // Neither was recorded: the round the bogus seq named, once launched,
  // still waits for a real ack.
  SendGet(h, 9);
  auto probes = h.Sent<raft::ReadIndexProbe>();
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes.back().seq, r.newer + 1);
  EXPECT_TRUE(h.Sent<raft::ClientReply>().empty());
  EXPECT_EQ(h.node->pending_read_count(), 3u);
  SendReadAck(h, 2, r.et, r.newer + 1);
  EXPECT_EQ(h.Sent<raft::ClientReply>().size(), 3u);
}

TEST(NodeUnit, CrashRestartPreservesPersistentState) {
  NodeHarness h(1, {1});
  h.TickUntilCandidate();
  ASSERT_TRUE(h.node->IsLeader());
  raft::ClientRequest req;
  req.req_id = 1;
  req.from = 1000;
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "durable";
  cmd.value = "yes";
  req.body = kv::EncodeCommand(cmd);
  h.node->Receive(1000, req);
  Index commit = h.node->commit_index();
  uint64_t term = h.node->current_et().raw();
  h.node->OnCrash();
  h.node->OnRestart();
  EXPECT_EQ(h.node->role(), Role::kFollower);  // volatile state reset
  EXPECT_EQ(h.node->commit_index(), commit);   // persistent state kept
  EXPECT_EQ(h.node->current_et().raw(), term);
  EXPECT_EQ(*StoreOf(*h.node).Get("durable"), "yes");
}

}  // namespace
}  // namespace recraft::core
