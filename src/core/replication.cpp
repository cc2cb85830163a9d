// Log replication, commit-quorum accounting (including the split's mixed
// quorums), snapshot install and log compaction.
//
// Reentrancy hazard, and the discipline this file follows: AdvanceCommit ->
// ApplyCommitted can apply a committed reconfiguration (split completion,
// merge transition, member removal, leader step-down) that tears down and
// rebuilds progress_ underneath the caller. Therefore no reference or
// iterator into progress_ may survive a call into the apply path. Handlers
// mutate tracking fields inside WithProgress (debug-asserted against
// invalidation), then run AdvanceCommit / MaybeSendAppend afterwards;
// MaybeSendAppend re-resolves its peer through LeaderProgress.
//
// Follower side: the network may reorder AppendEntries. A same-term,
// non-empty AE that arrives ahead of a gap is held (held_appends_, capped at
// max_inflight_appends) and re-run through HandleAppendEntries once the log
// reaches its prev_idx — extracted from the map first, since the nested call
// can clear it. Empty AEs with a gap still nack: that nack is the leader's
// only signal that an AE was lost.
#include <algorithm>

#include "common/logging.h"
#include "core/node.h"

namespace recraft::core {

std::vector<NodeId> Node::ReplicationTargets() const {
  const auto& cfg = config_.Current();
  std::set<NodeId> t(cfg.members.begin(), cfg.members.end());
  // Under vanilla joint consensus entries must reach both configurations.
  if (cfg.vanilla_joint) t.insert(cfg.jc_old.begin(), cfg.jc_old.end());
  t.erase(id_);
  return {t.begin(), t.end()};
}

void Node::BroadcastAppend(bool heartbeat) {
  for (NodeId peer : ReplicationTargets()) {
    MaybeSendAppend(peer, heartbeat);
  }
}

Node::Progress* Node::LeaderProgress(NodeId peer) {
  if (role_ != Role::kLeader) return nullptr;
  auto it = progress_.find(peer);
  if (it != progress_.end()) return &it->second;
  // Track only current replication targets (created lazily so newly added
  // members start replicating without waiting for a re-election). A blind
  // progress_[peer] here would resurrect tracking state for a peer that a
  // just-applied reconfiguration removed — its stale reply races the apply —
  // and leak replication traffic across the membership boundary.
  const auto targets = ReplicationTargets();
  if (std::find(targets.begin(), targets.end(), peer) == targets.end()) {
    counters_.Add(cid_.repl_stale_peer_dropped);
    return nullptr;
  }
  return &progress_[peer];
}

void Node::ClearProgress() {
  ++progress_gen_;
  progress_.clear();
}

void Node::PruneProgress() {
  if (role_ != Role::kLeader) return;
  const auto targets = ReplicationTargets();
  bool erased = false;
  for (auto it = progress_.begin(); it != progress_.end();) {
    if (std::find(targets.begin(), targets.end(), it->first) ==
        targets.end()) {
      it = progress_.erase(it);
      erased = true;
    } else {
      ++it;
    }
  }
  if (erased) ++progress_gen_;
}

void Node::MaybeSendAppend(NodeId peer, bool force_empty) {
  // Applying a committed entry can demote us mid-call (merge resumption,
  // split completion, self-removal): never emit replication traffic unless
  // still the leader, and never to a peer outside the current configuration.
  Progress* pp = LeaderProgress(peer);
  if (pp == nullptr) return;
  Progress& p = *pp;
  if (p.snapshotting && !force_empty) return;

  const auto& cfg = config_.Current();
  Index cap = log_.last_index();
  Index commit_cap = commit_;
  if (cfg.mode == raft::ConfigMode::kSplitLeaving) {
    // §III-B SplitLeaveJoint: entries after the split C_new entry belong to
    // the leader's own subcluster; members of other subclusters receive the
    // log only up to C_new.
    int my_sub = cfg.split.SubOf(id_);
    int peer_sub = cfg.split.SubOf(peer);
    if (peer_sub != my_sub) {
      cap = std::min(cap, cfg.cnew_index);
      commit_cap = std::min(commit_cap, cfg.cnew_index);
    }
  }

  if (p.next <= log_.base_index()) {
    if (p.snapshotting) return;
    raft::InstallSnapshot is;
    is.et = term_;
    is.leader = id_;
    is.snap = snapshot_ ? snapshot_ : BuildSnapshot();
    p.snapshotting = true;
    counters_.Add(cid_.repl_snapshot_sent);
    Send(peer, std::move(is));
    return;
  }

  // Zero-copy fan-out: the span shares the log's slabs, so sending the same
  // batch to every peer costs segment descriptors, not entry deep-copies.
  raft::EntrySpan entries;
  if (p.next <= cap) {
    Index hi = std::min(cap, p.next + opts_.max_entries_per_append - 1);
    entries = log_.Slice(p.next, hi);
  }
  if (entries.empty() && !force_empty) return;
  if (!entries.empty() && p.inflight >= opts_.max_inflight_appends &&
      !force_empty) {
    return;
  }

  raft::AppendEntries ae;
  ae.et = term_;
  ae.leader = id_;
  ae.prev_idx = p.next - 1;
  ae.prev_term = log_.TermAt(ae.prev_idx);
  ae.commit = commit_cap;
  if (!entries.empty()) {
    p.next = entries.back().index + 1;  // optimistic pipelining
    ++p.inflight;
  }
  ae.entries = std::move(entries);
  counters_.Add(cid_.append_sent);
  Send(peer, std::move(ae));
}

void Node::HandleAppendEntries(NodeId from, const raft::AppendEntries& m) {
  EpochTerm met(m.et);
  if (met.raw() < term_) {
    raft::AppendReply reply;
    reply.et = term_;
    reply.from = id_;
    reply.ok = false;
    Send(from, std::move(reply));
    return;
  }
  if (met.raw() > term_) {
    if (!ObserveEt(met, from)) return;  // epoch gap -> pull recovery
    if (met.raw() > term_) return;      // still behind after completing
  }
  // Same epoch-term: acknowledge the leader.
  if (role_ != Role::kFollower || leader_ != from) {
    BecomeFollower(met, from);
  }
  ResetElectionTimer();
  silent_ticks_ = 0;

  // A non-empty AE that overtook an earlier one waits for the gap to fill
  // instead of nacking: a nack makes the leader rewind and resend its whole
  // window. An empty AE (heartbeat, commit broadcast) still nacks — that is
  // how the leader learns an AE was lost — and so does one past the cap.
  const bool gap = m.prev_idx > log_.last_index();
  if (gap && !m.entries.empty() &&
      held_appends_.size() < opts_.max_inflight_appends) {
    counters_.Add(cid_.repl_append_held);
    held_appends_.insert_or_assign(m.prev_idx, HeldAppend{from, m, cur_ctx_});
    return;
  }

  raft::AppendReply reply;
  reply.et = term_;
  reply.from = id_;

  if (!log_.Matches(m.prev_idx, m.prev_term)) {
    if (gap) counters_.Add(cid_.repl_append_gap_nack);
    reply.ok = false;
    reply.match = commit_;
    // Conflict hint: skip back over the whole conflicting-term run, never
    // below the committed prefix (which always matches the leader's log).
    Index hint;
    if (gap) {
      hint = log_.last_index() + 1;
    } else {
      hint = m.prev_idx;
      uint64_t t = log_.TermAt(hint);
      while (hint > commit_ + 1 && hint > log_.first_index() &&
             log_.TermAt(hint - 1) == t) {
        --hint;
      }
    }
    reply.conflict_hint = std::max<Index>(hint, commit_ + 1);
    Send(from, std::move(reply));
    return;
  }

  Index last_new = m.prev_idx;
  for (const auto& e : m.entries) {
    last_new = e.index;
    if (log_.Matches(e.index, e.term)) continue;
    if (e.index <= commit_) {
      // A conflicting committed entry would violate Log Matching; this
      // indicates a protocol bug — surface it loudly in tests.
      counters_.Add(cid_.invariant_committed_conflict);
      RLOG_ERROR("repl", "n%u: conflicting entry at committed index %llu",
                 id_, static_cast<unsigned long long>(e.index));
      reply.ok = false;
      Send(from, std::move(reply));
      return;
    }
    if (e.index <= log_.last_index()) {
      log_.TruncateFrom(e.index);
      config_.OnTruncate(e.index);
      DropPendingAcks();  // queued claims about the old suffix are void
      counters_.Add(cid_.repl_truncations);
    }
    log_.Append(e);
    config_.OnAppend(e);
  }

  if (m.commit > commit_) {
    commit_ = std::min(m.commit, last_new);
    ApplyCommitted();
  }
  reply.ok = true;
  reply.match = last_new;
  // Durability gate: the ack must not claim `match` before every entry at
  // or below it is durable — the leader counts this ack toward commit, and
  // a committed entry must survive any crash of a full quorum. With no
  // storage (or a synchronous backend) the gate is already satisfied.
  const Index durable =
      storage_ == nullptr ? last_new
                          : std::min(log_.last_index(), storage_->DurableIndex());
  if (last_new <= durable) {
    Send(from, std::move(reply));
  } else {
    counters_.Add(cid_.storage_ack_deferred);
    if (opts_.recorder != nullptr && cur_ctx_.valid()) {
      opts_.recorder->Emit(id_, obs::Name::kAckDeferred, cur_ctx_, last_new);
    }
    pending_acks_.push_back(
        PendingAck{from, reply, log_.TermAt(last_new), cur_ctx_});
  }

  // Release held appends the log now reaches, lowest first. Each is
  // extracted before the nested call, which can append, truncate, apply a
  // reconfiguration or clear held_appends_ outright.
  while (!held_appends_.empty() &&
         held_appends_.begin()->first <= log_.last_index()) {
    HeldAppend held =
        std::move(held_appends_.extract(held_appends_.begin()).mapped());
    const obs::TraceCtx saved = cur_ctx_;
    cur_ctx_ = held.ctx;
    HandleAppendEntries(held.from, held.m);
    cur_ctx_ = saved;
  }
}

void Node::HandleAppendReply(NodeId from, const raft::AppendReply& m) {
  EpochTerm met(m.et);
  if (met.raw() > term_) {
    if (!ObserveEt(met, from)) return;
    if (met.raw() > term_) return;
  }
  if (role_ != Role::kLeader || m.et != term_) return;
  // All tracking-field updates happen inside WithProgress; the reentrant
  // calls run after, once no Progress& is live. AdvanceCommit can apply a
  // committed reconfiguration that clears progress_ — the original
  // heap-use-after-free held `p` across exactly that call.
  bool advanced = false;
  bool force_retry = false;
  bool tracked = WithProgress(from, [&](Progress& p) {
    p.ticks_since_ack = 0;
    if (p.inflight > 0) --p.inflight;
    if (m.ok) {
      if (m.match > p.match) {
        p.match = m.match;
        advanced = true;
      }
      if (p.next <= p.match) p.next = p.match + 1;
    } else {
      Index hint = m.conflict_hint != 0 ? m.conflict_hint : p.next - 1;
      p.next =
          std::max<Index>(1, std::min(p.next > 1 ? p.next - 1 : 1, hint));
      if (p.next <= p.match) p.next = p.match + 1;
      p.inflight = 0;
      force_retry = true;
    }
  });
  if (!tracked) return;
  if (advanced) AdvanceCommit();
  // Re-resolves `from` through LeaderProgress: we may have stepped down or
  // changed configuration while applying above.
  MaybeSendAppend(from, force_retry);
}

void Node::HandleInstallSnapshot(NodeId from, const raft::InstallSnapshot& m) {
  EpochTerm met(m.et);
  if (met.raw() < term_) {
    raft::InstallSnapshotReply reply;
    reply.et = term_;
    reply.from = id_;
    reply.applied = 0;
    Send(from, std::move(reply));
    return;
  }
  if (!m.snap) return;
  // A snapshot is itself the recovery vehicle: unlike other RPCs we accept
  // it across epoch gaps directly (it carries the full config + history).
  bool stale = m.snap->config.uid == config_.Current().uid &&
               m.snap->last_index <= commit_ &&
               met.epoch() == current_et().epoch();
  if (!stale) {
    InstallSnapshotState(*m.snap, met);
  } else if (met.raw() > term_) {
    BecomeFollower(met, from);
  }
  leader_ = from;
  ResetElectionTimer();
  raft::InstallSnapshotReply reply;
  reply.et = term_;
  reply.from = id_;
  reply.applied = commit_;
  Send(from, std::move(reply));
}

void Node::HandleInstallSnapshotReply(NodeId from,
                                      const raft::InstallSnapshotReply& m) {
  EpochTerm met(m.et);
  if (met.raw() > term_) {
    if (!ObserveEt(met, from)) return;
    if (met.raw() > term_) return;
  }
  if (role_ != Role::kLeader || m.et != term_) return;
  bool tracked = WithProgress(from, [&](Progress& p) {
    p.ticks_since_ack = 0;
    p.snapshotting = false;
    if (m.applied > p.match) p.match = m.applied;
    p.next = std::max(p.next, p.match + 1);
  });
  if (!tracked) return;
  // The Progress& dies above: AdvanceCommit can apply a committed
  // reconfiguration that clears progress_.
  AdvanceCommit();
  MaybeSendAppend(from, false);
}

void Node::AdvanceCommit() {
  if (role_ != Role::kLeader) return;
  const auto& cfg = config_.Current();
  Index last = log_.last_index();
  // The leader's own vote counts only up to its durable horizon: counting
  // an unflushed entry toward commit would let a crash erase a committed
  // entry from the only quorum that held it. Without storage (or with a
  // synchronous backend) this is simply last_index().
  const Index self_match =
      storage_ == nullptr ? last : std::min(last, storage_->DurableIndex());
  Index new_commit = commit_;
  for (Index i = commit_ + 1; i <= last; ++i) {
    auto q = raft::CommitQuorum(cfg, i, id_);
    std::set<NodeId> acks;
    if (i <= self_match) acks.insert(id_);
    for (const auto& [n, p] : progress_) {
      if (p.match >= i) acks.insert(n);
    }
    if (!q.Satisfied(acks)) break;
    new_commit = i;
  }
  // Raft §5.4.2: only entries of the leader's current term commit by quorum
  // counting; earlier entries commit transitively. Terms are monotone in the
  // log, so checking the top of the advanced range suffices.
  if (new_commit > commit_ && log_.TermAt(new_commit) == term_) {
    commit_ = new_commit;
    counters_.Add(cid_.commits);
    ApplyCommitted();
    MaybeCompact();
    // Propagate the new commit index promptly (matters for split/merge
    // completion latency).
    BroadcastAppend(/*heartbeat=*/true);
    heartbeat_countdown_ = opts_.heartbeat_ticks;
  }
}

Result<Index> Node::Propose(raft::Payload payload) {
  if (role_ != Role::kLeader) return NotLeader();
  raft::LogEntry e;
  e.index = log_.last_index() + 1;
  e.term = term_;
  e.payload = std::move(payload);
  bool is_config = e.IsConfig();
  log_.Append(e);
  if (is_config && !config_.OnAppend(log_.At(e.index))) {
    log_.TruncateFrom(e.index);
    return Rejected("invalid configuration transition");
  }
  counters_.Add(cid_.proposed);
  AdvanceCommit();  // single-node quorums commit immediately
  BroadcastAppend(false);
  return e.index;
}

raft::RaftSnapshotPtr Node::BuildSnapshot() const {
  auto snap = std::make_shared<raft::RaftSnapshot>();
  snap->last_index = applied_;
  snap->last_term = log_.TermAt(applied_);
  snap->state = machine_->TakeSnapshot();
  snap->config = config_.StateAtOrBefore(applied_);
  snap->history = history_;
  snap->unsettled_aborts = unsettled_aborts_;
  return snap;
}

void Node::MaybeCompact() {
  if (opts_.snapshot_threshold == 0) return;
  if (applied_ - log_.base_index() < opts_.snapshot_threshold) return;
  snapshot_ = BuildSnapshot();
  // Snapshot first, then truncate: a crash between the two leaves a longer
  // log plus a snapshot it subsumes — recoverable either way. The opposite
  // order could lose the compacted prefix.
  if (storage_ != nullptr) storage_->InstallSnapshot(snapshot_);
  log_.CompactTo(snapshot_->last_index, snapshot_->last_term);
  counters_.Add(cid_.log_compactions);
}

}  // namespace recraft::core
