// Leader election with epoch-aware voting and the PULL response of §III-B:
// a voter whose epoch exceeds the candidate's tells it to pull committed
// entries instead of campaigning in a configuration that has moved on.
#include "common/logging.h"
#include "core/node.h"

namespace recraft::core {

namespace {
std::vector<NodeId> QuorumUnion(const raft::QuorumSpec& q) {
  std::set<NodeId> all;
  for (const auto& g : q.groups()) all.insert(g.members.begin(), g.members.end());
  return {all.begin(), all.end()};
}
}  // namespace

void Node::StartElection() {
  counters_.Add(cid_.election_started);
  if (opts_.recorder != nullptr) {
    // A re-campaign means the previous round went nowhere: close it lost.
    if (election_span_ != 0) {
      opts_.recorder->EndSpan(id_, obs::Name::kElection, election_span_,
                              obs::Outcome::kLost, term_);
    }
    election_span_ = opts_.recorder->BeginSpan(id_, obs::Name::kElection,
                                               cur_ctx_, term_);
  }
  role_ = Role::kCandidate;
  leader_ = kNoNode;
  term_ = EpochTerm(term_).NextTerm().raw();
  voted_for_ = id_;
  votes_.clear();
  votes_.insert(id_);
  held_appends_.clear();
  ResetElectionTimer();

  auto quorum = raft::ElectionQuorum(config_.Current());
  RLOG_DEBUG("elect", "n%u starts election at %s with %s", id_,
             current_et().ToString().c_str(), quorum.ToString().c_str());
  if (quorum.Satisfied(votes_)) {
    BecomeLeader();
    return;
  }
  raft::RequestVote rv;
  rv.et = term_;
  rv.candidate = id_;
  rv.last_idx = log_.last_index();
  rv.last_term = log_.last_term();
  for (NodeId n : QuorumUnion(quorum)) {
    if (n != id_) Send(n, rv);
  }
}

void Node::HandleRequestVote(NodeId from, const raft::RequestVote& m) {
  EpochTerm met(m.et);
  EpochTerm cur(term_);

  if (met.raw() < cur.raw()) {
    raft::VoteReply reply;
    reply.et = term_;
    reply.from = id_;
    reply.granted = false;
    // §III-B HandleVote: a lower-epoch candidate is told to pull, as is a
    // same-epoch candidate that is no longer a member (it slept through its
    // own removal, §V). Only a node that fully completed its
    // reconfiguration (stable, not mid-exchange) advertises itself.
    bool can_serve = config_.Current().mode == raft::ConfigMode::kStable &&
                     !exchange_.has_value();
    reply.pull = can_serve && (met.epoch() < cur.epoch() ||
                               !config_.Current().IsMember(m.candidate));
    Send(from, std::move(reply));
    return;
  }

  if (met.raw() > cur.raw()) {
    if (!ObserveEt(met, from)) {
      // Epoch gap we cannot bridge yet: pull recovery was started; do not
      // vote in a configuration we do not understand.
      raft::VoteReply reply;
      reply.et = term_;
      reply.from = id_;
      reply.granted = false;
      Send(from, std::move(reply));
      return;
    }
    cur = current_et();
  }

  // Leader stickiness (Raft dissertation §4.2.3): ignore vote requests
  // shortly after hearing from a live leader, so removed or partitioned
  // nodes cannot depose a healthy leader.
  if (leader_ != kNoNode && leader_ != from &&
      ticks_since_heard_ < opts_.election_timeout_min_ticks) {
    raft::VoteReply reply;
    reply.et = term_;
    reply.from = id_;
    reply.granted = false;
    Send(from, std::move(reply));
    return;
  }

  bool up_to_date =
      m.last_term > log_.last_term() ||
      (m.last_term == log_.last_term() && m.last_idx >= log_.last_index());
  bool granted = met.raw() == term_ &&
                 (voted_for_ == kNoNode || voted_for_ == m.candidate) &&
                 up_to_date;
  if (granted) {
    voted_for_ = m.candidate;
    ResetElectionTimer();
    counters_.Add(cid_.election_votes_granted);
  }
  raft::VoteReply reply;
  reply.et = term_;
  reply.from = id_;
  reply.granted = granted;
  // A candidate that is not a member of our configuration campaigns on a
  // stale view of the world (e.g. it slept through its own removal, §V):
  // tell it to pull our committed state and find out.
  if (!granted && config_.Current().mode == raft::ConfigMode::kStable &&
      !exchange_.has_value() && !config_.Current().IsMember(m.candidate)) {
    reply.pull = true;
  }
  Send(from, std::move(reply));
}

void Node::HandleVoteReply(NodeId from, const raft::VoteReply& m) {
  EpochTerm met(m.et);
  if (m.pull && pull_target_ == kNoNode && role_ == Role::kCandidate) {
    // EnterElection (§III-B, line 42): stop campaigning and pull. The
    // responder may be at a higher epoch (we missed a split/merge) or the
    // same epoch (we were removed); either way it has what we lack.
    StartPull(from);
  }
  if (met.raw() > term_) {
    if (!ObserveEt(met, from)) return;
  }
  if (role_ != Role::kCandidate || m.et != term_) return;
  if (!m.granted) return;
  votes_.insert(from);
  if (raft::ElectionQuorum(config_.Current()).Satisfied(votes_)) {
    BecomeLeader();
  }
}

void Node::BecomeLeader() {
  counters_.Add(cid_.election_won);
  if (opts_.recorder != nullptr && election_span_ != 0) {
    opts_.recorder->EndSpan(id_, obs::Name::kElection, election_span_,
                            obs::Outcome::kOk, term_);
    election_span_ = 0;
  }
  RLOG_INFO("elect", "n%u becomes leader at %s (%s)", id_,
            current_et().ToString().c_str(),
            config_.Current().ToString().c_str());
  role_ = Role::kLeader;
  leader_ = id_;
  votes_.clear();
  ClearProgress();
  for (NodeId n : ReplicationTargets()) {
    if (n == id_) continue;
    Progress p;
    p.next = log_.last_index() + 1;
    progress_[n] = p;
  }
  heartbeat_countdown_ = opts_.heartbeat_ticks;
  // Commit an entry in our own term right away: establishes P3 and flushes
  // commits of earlier terms (Raft §5.4.2).
  auto idx = Propose(raft::NoOp{});
  (void)idx;
  BroadcastAppend(/*heartbeat=*/true);
  // A coordinator cluster's new leader resumes an interrupted merge 2PC
  // from its committed log (§III-C "Handling Failures").
  ResumeMergeAsLeader();
}

}  // namespace recraft::core
