// The linearizable read path (ReadIndex, Raft dissertation §6.4), adapted to
// ReCraft's reconfigurations. A leader serving a read must prove that no
// newer leader has committed writes it has not seen; instead of appending a
// no-op per read (a log entry, a WAL flush and a replication fan-out), it
//
//   1. captures read_index = commit_ when the read arrives,
//   2. confirms its leadership with one probe round — an *election* quorum
//      of same-term ReadIndexAcks, so the confirming set intersects every
//      quorum a competing candidate would need (including the split's joint
//      quorums while one is in progress),
//   3. serves the read from the applied state machine once applied_ has
//      reached read_index.
//
// Reads batch and rounds pipeline: each read is assigned the next round to
// launch, and every batch of newly registered reads launches that round at
// once, without waiting for the rounds already in flight. An ack vouches for
// leadership at the moment the follower sent it, which postdates the launch
// of the acked round and hence the registration of every read assigned to
// it or to any earlier round — so an ack for round s counts toward every
// round <= s, and the leader confirms the highest round an election quorum
// has acked at or beyond.
//
// A deposed leader cannot serve stale data: followers that moved to a
// higher term answer the probe with their term (ok=false), which steps the
// old leader down and fails its pending reads with kNotLeader; a fully
// partitioned leader steps down via CheckQuorum. Either way the client
// retries at the new leader.
#include "common/logging.h"
#include "core/node.h"

namespace recraft::core {

void Node::HandleReadRequest(NodeId from, uint64_t req_id,
                             const raft::ReadRequest& m) {
  if (role_ != Role::kLeader) {
    ReplyToClient(from, req_id, NotLeader());
    return;
  }
  if (!EffectiveRange().Contains(m.query.key)) {
    ReplyToClient(from, req_id,
                  WrongShard("key " + m.query.key + " outside " +
                             EffectiveRange().ToString()));
    return;
  }
  // Once a merge outcome is in the log the data is sealed and will be
  // replaced by the merged store; reads block with writes (§III-C.2).
  if (config_.Current().merge_outcome_index > 0) {
    ReplyToClient(from, req_id, Busy("merge in progress"));
    return;
  }
  // Raft §6.4 step 1 — the read barrier: a freshly elected leader's
  // commit_ can lag entries the previous leader committed and acked (it
  // learns the true commit point only by committing an entry of its own
  // term — the no-op proposed in BecomeLeader). Until then read_index
  // would under-read; the probe round proves term leadership, not
  // commit-index freshness. The client retries on kBusy and the no-op
  // commits within a round trip.
  if (log_.TermAt(commit_) != term_) {
    counters_.Add(cid_.read_barrier_wait);
    ReplyToClient(from, req_id, Busy("read barrier: current-term commit "
                                     "pending"));
    return;
  }
  counters_.Add(cid_.read_accepted);
  PendingRead pr;
  pr.req_id = req_id;
  pr.client = from;
  pr.query = m.query;
  pr.read_index = commit_;
  pr.ctx = cur_ctx_;
  std::set<NodeId> self{id_};
  if (raft::ElectionQuorum(config_.Current()).Satisfied(self)) {
    // Single-node quorum: our own ack is the proof; the round it needs is
    // already confirmed by construction.
    pr.seq = read_confirmed_;
  } else {
    // The next round to be launched — never an in-flight or confirmed one,
    // whose acks could predate this registration.
    pr.seq = read_seq_ + 1;
  }
  pending_reads_.push_back(std::move(pr));
  ServeConfirmedReads();  // serves single-node reads, launches the probe
}

void Node::BroadcastReadProbe() {
  raft::ReadIndexProbe probe;
  probe.et = term_;
  probe.from = id_;
  probe.seq = read_seq_;
  counters_.Add(cid_.read_probe_sent);
  for (NodeId peer : ReplicationTargets()) {
    Send(peer, probe);
  }
}

void Node::MaybeLaunchReadProbe() {
  // Only the newest read can still lack a launched round: seq is monotone
  // in registration order.
  if (role_ != Role::kLeader || pending_reads_.empty() ||
      pending_reads_.back().seq <= read_seq_) {
    return;
  }
  ++read_seq_;
  // A configuration whose election quorum this node satisfies alone (a
  // shrunk single-node cluster) confirms instantly — there is no one to
  // probe and no competing leader to fear.
  std::set<NodeId> self{id_};
  if (raft::ElectionQuorum(config_.Current()).Satisfied(self)) {
    ConfirmReadRounds(read_seq_);
    ServeConfirmedReads();  // bounded: rounds only confirm forward
    return;
  }
  read_retry_countdown_ = opts_.read_probe_retry_ticks;
  if (opts_.recorder != nullptr) {
    read_spans_.emplace_back(
        read_seq_, opts_.recorder->BeginSpan(id_, obs::Name::kReadRound,
                                             cur_ctx_, read_seq_));
  }
  BroadcastReadProbe();
}

void Node::ReadTick() {
  // Resending the latest round suffices: its ack covers every older round.
  if (read_confirmed_ >= read_seq_) return;
  if (--read_retry_countdown_ > 0) return;
  read_retry_countdown_ = opts_.read_probe_retry_ticks;
  counters_.Add(cid_.read_probe_retry);
  BroadcastReadProbe();
}

void Node::HandleReadIndexProbe(NodeId from, const raft::ReadIndexProbe& m) {
  EpochTerm met(m.et);
  if (met.raw() < term_) {
    // Stale leader: our term in the nack deposes it.
    raft::ReadIndexAck nack;
    nack.et = term_;
    nack.from = id_;
    nack.seq = m.seq;
    nack.ok = false;
    Send(from, std::move(nack));
    return;
  }
  if (met.raw() > term_) {
    if (!ObserveEt(met, from)) return;  // epoch gap -> pull recovery
    if (met.raw() > term_) return;
  }
  // Same epoch-term: the probe doubles as a heartbeat.
  if (role_ != Role::kFollower || leader_ != from) {
    BecomeFollower(met, from);
  }
  ResetElectionTimer();
  silent_ticks_ = 0;
  raft::ReadIndexAck ack;
  ack.et = term_;
  ack.from = id_;
  ack.seq = m.seq;
  ack.ok = true;
  Send(from, std::move(ack));
}

void Node::HandleReadIndexAck(NodeId from, const raft::ReadIndexAck& m) {
  EpochTerm met(m.et);
  if (met.raw() > term_) {
    // A higher term nack: step down (BecomeFollower inside ObserveEt fails
    // the pending reads with kNotLeader through FailPendingClients).
    if (!ObserveEt(met, from)) return;
    if (met.raw() > term_) return;
  }
  if (role_ != Role::kLeader || m.et != term_ || !m.ok) return;
  // Rounds at or below read_confirmed_ are settled; rounds above read_seq_
  // were never launched by this leader.
  if (m.seq <= read_confirmed_ || m.seq > read_seq_) return;
  // The ack is also evidence of a live follower for the CheckQuorum lease.
  WithProgress(from, [](Progress& p) { p.ticks_since_ack = 0; });
  uint64_t& acked = read_acked_[from];
  acked = std::max(acked, m.seq);
  // The highest round s that {self} plus every peer with an ack >= s
  // satisfies; a round that qualifies makes every lower round qualify.
  raft::QuorumSpec quorum = raft::ElectionQuorum(config_.Current());
  uint64_t confirmed = read_confirmed_;
  for (const auto& [peer, s] : read_acked_) {
    if (s <= confirmed) continue;
    std::set<NodeId> acks{id_};
    for (const auto& [p, t] : read_acked_) {
      if (t >= s) acks.insert(p);
    }
    if (quorum.Satisfied(acks)) confirmed = s;
  }
  if (confirmed == read_confirmed_) return;
  ConfirmReadRounds(confirmed);
  counters_.Add(cid_.read_quorum_confirmed);
  ServeConfirmedReads();
}

void Node::ServeConfirmedReads() {
  // Reads are FIFO and both seq and read_index are monotone in registration
  // order, so an unservable front blocks the tail by construction.
  while (!pending_reads_.empty()) {
    PendingRead& pr = pending_reads_.front();
    if (pr.seq > read_confirmed_) break;     // round not confirmed yet
    if (pr.read_index > applied_) break;     // apply catch-up (rare)
    sm::CmdResult res = machine_->Query(pr.query);
    counters_.Add(cid_.read_served);
    ReplyToClient(pr.client, pr.req_id, std::move(res.status),
                  std::move(res.payload), pr.ctx);
    pending_reads_.pop_front();
  }
  MaybeLaunchReadProbe();
}

void Node::ConfirmReadRounds(uint64_t seq) {
  read_confirmed_ = seq;
  // read_spans_ is non-empty only while a recorder is armed.
  while (!read_spans_.empty() && read_spans_.front().first <= seq) {
    opts_.recorder->EndSpan(id_, obs::Name::kReadRound,
                            read_spans_.front().second, obs::Outcome::kOk,
                            read_spans_.front().first);
    read_spans_.pop_front();
  }
}

void Node::FailPendingReads(Code code) {
  for (const PendingRead& pr : pending_reads_) {
    ReplyToClient(pr.client, pr.req_id, Status(code), {}, pr.ctx);
  }
  pending_reads_.clear();
  read_acked_.clear();
  for (const auto& [seq, span] : read_spans_) {
    opts_.recorder->EndSpan(id_, obs::Name::kReadRound, span,
                            obs::Outcome::kLost, seq);
  }
  read_spans_.clear();
}

}  // namespace recraft::core
