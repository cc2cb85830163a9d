// The ReCraft merge protocol (§III-C): a cluster-level two-phase commit
// whose prepare/commit decisions are themselves committed through each
// participating cluster's Raft log, followed by a snapshot exchange and
// resumption of the merged cluster at (E_new, term 0).
//
// The cluster contacted by the admin becomes the coordinator; its leader
// drives the 2PC and, because every step is recorded in the coordinator
// cluster's log, any new leader of that cluster resumes an interrupted
// transaction (ResumeMergeAsLeader) — the coordinator is as robust as a
// Raft cluster, unlike TiKV/CockroachDB's external cluster manager.
#include "common/logging.h"
#include "core/node.h"

namespace recraft::core {

namespace {
KeyRange MergedRange(const raft::MergePlan& plan) {
  std::vector<KeyRange> parts;
  parts.reserve(plan.sources.size());
  for (const auto& s : plan.sources) parts.push_back(s.range);
  auto merged = KeyRange::MergeAdjacent(parts);
  return merged.ok() ? *merged : KeyRange::Empty();
}

/// Initial per-source contact map: the first member of every non-coordinator
/// source (rotated later by MergeTick / leader hints).
std::map<int, NodeId> DefaultContacts(const raft::MergePlan& plan) {
  std::map<int, NodeId> contacts;
  for (size_t j = 0; j < plan.sources.size(); ++j) {
    if (static_cast<int>(j) == plan.coordinator) continue;
    contacts[static_cast<int>(j)] = plan.sources[j].members.front();
  }
  return contacts;
}

raft::MergeCommitReq MakeCommitReq(NodeId from, const raft::MergePlan& plan,
                                   bool commit) {
  raft::MergeCommitReq req;
  req.from = from;
  req.tx = plan.tx;
  req.commit = commit;
  req.plan = plan;
  return req;
}
}  // namespace

Status Node::StartMerge(const raft::AdminMerge& req, uint64_t req_id,
                        NodeId client) {
  if (!opts_.enable_recraft) return Rejected("recraft features disabled");
  if (role_ != Role::kLeader) return NotLeader();
  if (Status s = CheckReconfigPreconditions(); !s.ok()) return s;
  if (merge_.phase != MergePhase::kIdle) return Busy("merge already running");

  raft::MergePlan plan = req.draft;
  if (plan.tx == 0) return Rejected("merge needs a transaction id");
  if (plan.sources.size() < 2) return Rejected("merge needs >= 2 clusters");
  if (plan.coordinator < 0 ||
      plan.coordinator >= static_cast<int>(plan.sources.size())) {
    return Rejected("bad coordinator index");
  }
  const auto& cfg = config_.Current();
  const auto& coord = plan.sources[static_cast<size_t>(plan.coordinator)];
  if (coord.members != cfg.members || !(coord.range == cfg.range)) {
    return Rejected("coordinator source does not match this cluster");
  }
  KeyRange merged = MergedRange(plan);
  if (merged.empty()) return Rejected("source ranges are not adjacent");
  if (!plan.resume_members.empty()) {
    // Resize-at-merge safety (§III-C.2): the resumed set must contain every
    // member of at least one source so its quorums overlap a source quorum.
    auto all = plan.AllMembers();
    for (NodeId n : plan.resume_members) {
      if (!std::binary_search(all.begin(), all.end(), n)) {
        return Rejected("resume member not in any source");
      }
    }
    bool covers_one = false;
    for (const auto& s : plan.sources) {
      bool all_in = true;
      for (NodeId n : s.members) {
        if (std::find(plan.resume_members.begin(), plan.resume_members.end(),
                      n) == plan.resume_members.end()) {
          all_in = false;
          break;
        }
      }
      if (all_in) {
        covers_one = true;
        break;
      }
    }
    if (!covers_one) {
      return Rejected("resume set must contain all members of some source");
    }
  }
  plan.new_uid = raft::DeriveMergeUid(plan.tx);
  plan.new_range = merged;

  // MergePrepare (Fig. 4): commit the local OK decision to our own cluster,
  // then fan the prepare out to the other clusters. The runtime must be set
  // up *before* proposing: a single-node coordinator cluster commits and
  // applies CTX' synchronously inside Propose, and OnMergeTxApplied only
  // records local_tx_applied if it finds the runtime already in kPreparing
  // — set up afterwards, the 2PC would stall forever.
  merge_ = MergeRuntime{};
  merge_.phase = MergePhase::kPreparing;
  merge_.plan = plan;
  merge_.retry_countdown = kMergeRetryTicks;
  merge_.admin_req_id = req_id;
  merge_.admin_client = client;
  merge_.contact = DefaultContacts(plan);
  if (opts_.recorder != nullptr) {
    merge_span_ = opts_.recorder->BeginSpan(id_, obs::Name::kMerge, cur_ctx_,
                                            plan.tx);
  }
  auto idx = Propose(raft::ConfMergeTx{plan, /*decision_ok=*/true});
  if (!idx.ok()) {
    merge_ = MergeRuntime{};
    if (opts_.recorder != nullptr && merge_span_ != 0) {
      opts_.recorder->EndSpan(id_, obs::Name::kMerge, merge_span_,
                              obs::Outcome::kError, plan.tx);
      merge_span_ = 0;
    }
    return idx.status();
  }
  SendPrepares();
  counters_.Add(cid_.merge_started);
  return OkStatus();
}

void Node::SendPrepares() {
  for (size_t j = 0; j < merge_.plan.sources.size(); ++j) {
    int sj = static_cast<int>(j);
    if (sj == merge_.plan.coordinator) continue;
    if (merge_.prepare_replies.count(sj) > 0) continue;
    if (opts_.recorder != nullptr && merge_span_ != 0) {
      opts_.recorder->Emit(id_, obs::Name::kMergePrepareSent, obs::TraceCtx{},
                           merge_.plan.tx, static_cast<uint64_t>(sj));
    }
    raft::MergePrepareReq req;
    req.from = id_;
    req.plan = merge_.plan;
    Send(merge_.contact[sj], std::move(req));
  }
}

void Node::SendCommits() {
  for (size_t j = 0; j < merge_.plan.sources.size(); ++j) {
    int sj = static_cast<int>(j);
    if (sj == merge_.plan.coordinator) continue;
    if (merge_.commit_acks.count(sj) > 0) continue;
    if (opts_.recorder != nullptr && merge_span_ != 0) {
      opts_.recorder->Emit(id_, obs::Name::kMergeCommitSent, obs::TraceCtx{},
                           merge_.plan.tx, merge_.outcome_is_commit ? 1 : 0);
    }
    Send(merge_.contact[sj],
         MakeCommitReq(id_, merge_.plan, merge_.outcome_is_commit));
  }
}

void Node::MergeTick() {
  if (merge_.phase == MergePhase::kIdle) return;
  if (--merge_.retry_countdown > 0) return;
  merge_.retry_countdown = kMergeRetryTicks;
  // Rotate contacts for sources that have not answered, then retransmit
  // (handlers are idempotent by transaction id).
  for (auto& [sj, contact] : merge_.contact) {
    bool answered = merge_.phase == MergePhase::kPreparing
                        ? merge_.prepare_replies.count(sj) > 0
                        : merge_.commit_acks.count(sj) > 0;
    if (answered) continue;
    const auto& members = merge_.plan.sources[static_cast<size_t>(sj)].members;
    auto it = std::find(members.begin(), members.end(), contact);
    contact = members[(static_cast<size_t>(it - members.begin()) + 1) %
                      members.size()];
  }
  if (merge_.phase == MergePhase::kPreparing) {
    SendPrepares();
  } else {
    SendCommits();
  }
}

// --------------------------------------------------------------------------
// Participant side.

void Node::HandleMergePrepareReq(NodeId from, const raft::MergePrepareReq& m) {
  const auto& cfg = config_.Current();
  // Already merged under this transaction: the prepare is a stale retry.
  if (cfg.uid == m.plan.new_uid) return;
  if (role_ != Role::kLeader) {
    raft::MergePrepareReply reply;
    reply.from = id_;
    reply.tx = m.plan.tx;
    reply.source_index = m.plan.SourceOf(id_);
    reply.retry = true;
    reply.leader_hint = leader_;
    Send(from, std::move(reply));
    return;
  }
  int my_source = m.plan.SourceOf(id_);
  if (my_source < 0 || my_source == m.plan.coordinator) return;

  if (cfg.merge_tx.has_value()) {
    if (cfg.merge_tx->tx == m.plan.tx) {
      // Duplicate prepare: if our CTX' already committed, re-send the
      // recorded decision; otherwise the reply fires when it applies.
      if (cfg.merge_tx_index <= commit_) {
        raft::MergePrepareReply reply;
        reply.from = id_;
        reply.tx = m.plan.tx;
        reply.source_index = my_source;
        reply.ok = cfg.merge_decision_ok;
        reply.epoch = current_et().epoch();
        Send(from, std::move(reply));
      }
      return;
    }
    // A different merge is in flight: vote NO without recording (presumed
    // abort is safe — this transaction cannot commit without our OK).
    raft::MergePrepareReply reply;
    reply.from = id_;
    reply.tx = m.plan.tx;
    reply.source_index = my_source;
    reply.ok = false;
    Send(from, std::move(reply));
    return;
  }

  Status pre = CheckReconfigPreconditions();
  if (!pre.ok()) {
    if (pre.code() == Code::kBusy) {
      // P3 not established yet (fresh leader): the no-op is in flight;
      // have the coordinator retry shortly.
      raft::MergePrepareReply reply;
      reply.from = id_;
      reply.tx = m.plan.tx;
      reply.source_index = my_source;
      reply.retry = true;
      reply.leader_hint = id_;
      Send(from, std::move(reply));
    } else {
      // P1 violated (reconfiguration in progress): vote NO, unrecorded.
      raft::MergePrepareReply reply;
      reply.from = id_;
      reply.tx = m.plan.tx;
      reply.source_index = my_source;
      reply.ok = false;
      Send(from, std::move(reply));
    }
    return;
  }
  // HandleMergePrepare (Fig. 4 lines 29-36): commit CTX' with the local OK
  // decision; the reply is sent once it applies.
  auto idx = Propose(raft::ConfMergeTx{m.plan, /*decision_ok=*/true});
  if (!idx.ok()) {
    raft::MergePrepareReply reply;
    reply.from = id_;
    reply.tx = m.plan.tx;
    reply.source_index = my_source;
    reply.retry = true;
    Send(from, std::move(reply));
  }
  counters_.Add(cid_.merge_prepared);
}

void Node::OnMergeTxApplied(const raft::ConfMergeTx& tx, Index index) {
  (void)index;
  if (role_ != Role::kLeader) return;
  const raft::MergePlan& plan = tx.plan;
  int my_source = plan.SourceOf(id_);
  if (my_source == plan.coordinator) {
    if (merge_.phase == MergePhase::kPreparing &&
        merge_.plan.tx == plan.tx) {
      merge_.local_tx_applied = true;
      MaybeFinishPrepare();
    }
    return;
  }
  // Participant leader: the decision is durable; answer the coordinator.
  // The reply goes to every coordinator-cluster member — whichever is the
  // current coordinator leader picks it up (robust to leader changes).
  raft::MergePrepareReply reply;
  reply.from = id_;
  reply.tx = plan.tx;
  reply.source_index = my_source;
  reply.ok = tx.decision_ok;
  reply.epoch = current_et().epoch();
  for (NodeId n :
       plan.sources[static_cast<size_t>(plan.coordinator)].members) {
    Send(n, reply);
  }
}

void Node::HandleMergeCommitReq(NodeId from, const raft::MergeCommitReq& m) {
  const auto& cfg = config_.Current();
  if (cfg.uid == m.plan.new_uid) {
    // Already transitioned: ack from any member, leader or not.
    raft::MergeCommitReply reply;
    reply.from = id_;
    reply.tx = m.tx;
    reply.source_index = m.plan.SourceOf(id_);
    reply.ok = true;
    Send(from, std::move(reply));
    return;
  }
  if (role_ != Role::kLeader) {
    raft::MergeCommitReply reply;
    reply.from = id_;
    reply.tx = m.tx;
    reply.source_index = m.plan.SourceOf(id_);
    reply.retry = true;
    reply.leader_hint = leader_;
    Send(from, std::move(reply));
    return;
  }
  int my_source = m.plan.SourceOf(id_);
  if (!cfg.merge_tx.has_value() || cfg.merge_tx->tx != m.tx) {
    if (!m.commit) {
      // Abort retransmission for a transaction we already resolved (the
      // C_abort applied and cleared it) or never recorded. By leader
      // completeness a leader without the CTX' record holds no pending
      // obligation for this tx, so the abort is settled here: ack it.
      raft::MergeCommitReply reply;
      reply.from = id_;
      reply.tx = m.tx;
      reply.source_index = my_source;
      reply.ok = true;
      Send(from, std::move(reply));
      return;
    }
    // We never saw (or already resolved) this transaction.
    raft::MergeCommitReply reply;
    reply.from = id_;
    reply.tx = m.tx;
    reply.source_index = my_source;
    reply.retry = true;
    Send(from, std::move(reply));
    return;
  }
  if (cfg.merge_outcome_index > 0) {
    // Outcome already proposed; ack fires when it applies.
    return;
  }
  auto idx = Propose(raft::ConfMergeOutcome{m.plan, m.commit});
  (void)idx;
  counters_.Add(cid_.merge_commit_received);
}

// --------------------------------------------------------------------------
// Coordinator side.

void Node::HandleMergePrepareReply(NodeId from,
                                   const raft::MergePrepareReply& m) {
  if (role_ != Role::kLeader || merge_.phase != MergePhase::kPreparing) return;
  if (m.tx != merge_.plan.tx) return;
  if (m.retry) {
    if (m.leader_hint != kNoNode && m.leader_hint != from) {
      merge_.contact[m.source_index] = m.leader_hint;
      SendPrepares();
    }
    return;
  }
  if (m.source_index < 0) return;
  merge_.prepare_replies.emplace(m.source_index, m);
  MaybeFinishPrepare();
}

void Node::MaybeFinishPrepare() {
  // Reentrancy note: ProposeMergeOutcome below can commit + apply the
  // outcome synchronously and reset merge_ (which owns prepare_replies).
  // The iteration over prepare_replies must therefore finish before that
  // call — keep the loop and the proposal strictly sequential.
  if (merge_.phase != MergePhase::kPreparing || !merge_.local_tx_applied) {
    return;
  }
  size_t expected = merge_.plan.sources.size() - 1;
  if (merge_.prepare_replies.size() < expected) return;
  bool unanimous = true;
  uint32_t max_epoch = current_et().epoch();
  for (const auto& [sj, reply] : merge_.prepare_replies) {
    unanimous = unanimous && reply.ok;
    max_epoch = std::max(max_epoch, reply.epoch);
  }
  // Resumption epoch: E_new = E_max + 1, collected during phase one
  // (§III-C.2 "Resumption").
  merge_.plan.new_epoch = max_epoch + 1;
  ProposeMergeOutcome(unanimous);
}

void Node::ProposeMergeOutcome(bool commit) {
  merge_.phase = MergePhase::kCommitting;
  merge_.outcome_is_commit = commit;
  merge_.retry_countdown = kMergeRetryTicks;
  // Keep local copies: on a single-node coordinator cluster Propose commits
  // and applies the outcome synchronously, and OnMergeOutcomeApplied may
  // reset merge_ (abort path) before we fan the decision out.
  const raft::MergePlan plan = merge_.plan;
  const std::map<int, NodeId> contacts = merge_.contact;
  auto idx = Propose(raft::ConfMergeOutcome{plan, commit});
  if (!idx.ok()) {
    RLOG_ERROR("merge", "n%u failed to propose outcome: %s", id_,
               idx.status().ToString().c_str());
    return;
  }
  counters_.Add(commit ? "merge.outcome_commit" : "merge.outcome_abort");
  if (merge_.phase == MergePhase::kCommitting && merge_.plan.tx == plan.tx) {
    SendCommits();
    return;
  }
  // The synchronous apply already resolved the transaction locally and tore
  // the runtime down (abort, or commit finished by collected acks). Tell
  // the participants once from the captured state so recorded CTX' holders
  // are not left waiting; MergeTick no longer retries for this tx.
  for (const auto& [sj, contact] : contacts) {
    (void)sj;
    Send(contact, MakeCommitReq(id_, plan, commit));
  }
}

void Node::HandleMergeCommitReply(NodeId from,
                                  const raft::MergeCommitReply& m) {
  if (role_ != Role::kLeader || merge_.phase != MergePhase::kCommitting) {
    return;
  }
  if (m.tx != merge_.plan.tx) return;
  if (m.retry) {
    if (m.source_index >= 0 && m.leader_hint != kNoNode &&
        m.leader_hint != from) {
      merge_.contact[m.source_index] = m.leader_hint;
      SendCommits();
    }
    return;
  }
  if (!m.ok) return;
  int sj = m.source_index;
  if (sj < 0) {
    // The ack came from a node that cannot name its source: a leader that
    // joined the participant group after it transitioned (commit) or after
    // the transaction cleared (abort) is not in the plan. Attribute the
    // ack to the source we are currently contacting through that node.
    for (const auto& [j, contact] : merge_.contact) {
      if (contact == m.from) {
        sj = j;
        break;
      }
    }
  }
  if (sj < 0) return;
  merge_.commit_acks.insert(sj);
  if (merge_.outcome_applied_self &&
      merge_.commit_acks.size() == merge_.plan.sources.size() - 1) {
    FinishMergeAsCoordinator();
  }
}

void Node::OnMergeOutcomeApplied(const raft::ConfMergeOutcome& oc,
                                 Index index) {
  const raft::MergePlan& plan = oc.plan;
  if (opts_.recorder != nullptr) {
    opts_.recorder->Emit(id_, obs::Name::kMergeOutcomeApplied, obs::TraceCtx{},
                         plan.tx, oc.commit ? 1 : 0);
  }
  if (!oc.commit) {
    // C_abort: clear the pending transaction; normal operation resumes.
    raft::ConfigState cleared = config_.Current();
    cleared.merge_tx.reset();
    cleared.merge_tx_index = 0;
    cleared.merge_decision_ok = false;
    cleared.merge_outcome_index = 0;
    cleared.merge_outcome_commit = false;
    cleared.merge_outcome_plan.reset();
    config_.ForceState(std::move(cleared), index);
    counters_.Add(cid_.merge_aborted);
    int my_source = plan.SourceOf(id_);
    if (my_source == plan.coordinator) {
      // Every coordinator-source member (not just the current leader)
      // remembers the unsettled abort: the cleared config no longer records
      // the tx, so this map is what a *later* leader resumes retransmission
      // from (ResumeUnsettledAbort). Erased cluster-wide when the
      // ConfAbortSettled marker applies.
      unsettled_aborts_[plan.tx] = plan;
      // Coordinator leader: answer the admin now (the outcome is final),
      // but keep the kCommitting runtime alive — mirroring the commit path
      // — until every participant acks the abort. A participant that
      // recorded CTX' would otherwise depend on the one-shot abort fan-out:
      // if that message is lost, its pending transaction blocks every
      // future reconfiguration forever. MergeTick keeps retransmitting.
      if (role_ == Role::kLeader) {
        if (merge_.phase == MergePhase::kIdle || merge_.plan.tx != plan.tx) {
          // Fresh leader that applied the abort before ResumeMergeAsLeader
          // rebuilt the runtime (outcome committed during our election).
          merge_ = MergeRuntime{};
          merge_.plan = plan;
          merge_.retry_countdown = kMergeRetryTicks;
          merge_.contact = DefaultContacts(plan);
        }
        if (merge_.admin_client != kNoNode) {
          ReplyToClient(merge_.admin_client, merge_.admin_req_id,
                        Rejected("merge aborted by participant vote"));
          merge_.admin_client = kNoNode;
        }
        merge_.phase = MergePhase::kCommitting;
        merge_.outcome_is_commit = false;
        merge_.outcome_applied_self = true;
        if (merge_.commit_acks.size() == merge_.plan.sources.size() - 1) {
          FinishMergeAsCoordinator();
        } else {
          SendCommits();
        }
      }
      return;
    }
    // Participant leaders ack the abort so the coordinator can finish.
    if (role_ == Role::kLeader) {
      raft::MergeCommitReply reply;
      reply.from = id_;
      reply.tx = plan.tx;
      reply.source_index = my_source;
      reply.ok = true;
      for (NodeId n :
           plan.sources[static_cast<size_t>(plan.coordinator)].members) {
        Send(n, reply);
      }
    }
    return;
  }

  // Replay during catch-up, not live protocol: a merged cluster's log
  // *begins* with its committed outcome entry, so a node added after the
  // merge (e.g. a recycled spare) replays it while its effective
  // configuration — applied wait-free on append — is already at or past
  // the merged cluster. Running the protocol here would re-transition and,
  // for a non-resumed "participant", retire the node with an empty store
  // mid-membership. Treat the entry as the cluster's genesis instead:
  // adopt the merged range for a blank store (the ConfInit replay rule).
  if (config_.Current().uid == plan.new_uid || plan.SourceOf(id_) < 0) {
    if (machine_->range().empty() || machine_->Size() == 0) {
      machine_->Reset(plan.new_range);
    }
    return;
  }

  // C_new committed: seal this node's data at the pre-merge boundary so the
  // exchanged snapshots of every member of this source are identical.
  // Idempotent: a boot-time replay of the outcome entry must not overwrite
  // the sealed (pre-merge) snapshot with the current store.
  int sealed_source = plan.SourceOf(id_);
  if (exchange_store_.count({plan.tx, sealed_source}) == 0) {
    auto sealed = machine_->TakeSnapshot();
    exchange_store_[{plan.tx, sealed_source}] = sealed;
    // Durable before the transition resets the log: after the reset the
    // sealed blob is the *only* copy of this node's pre-merge data.
    storage_->PersistSealed(plan.tx, sealed_source, sealed);
  }
  // Answer anyone who asked before we sealed.
  auto waiters = exchange_waiters_.find({plan.tx, sealed_source});
  if (waiters != exchange_waiters_.end()) {
    raft::SnapPullReply push;
    push.from = id_;
    push.tx = plan.tx;
    push.source_index = sealed_source;
    push.ready = true;
    push.snap = exchange_store_[{plan.tx, sealed_source}];
    for (NodeId n : waiters->second) Send(n, push);
    exchange_waiters_.erase(waiters);
  }

  int my_source = plan.SourceOf(id_);
  if (my_source == plan.coordinator) {
    // Coordinator cluster applies last (§III-C.1). The leader waits for all
    // 2PC acks, then multicasts MergeFinalize; followers wait for that
    // signal (or infer from E_new traffic in ObserveEt).
    if (role_ == Role::kLeader) {
      if (merge_.phase == MergePhase::kIdle || merge_.plan.tx != plan.tx) {
        // Fresh leader that applied the outcome before ResumeMergeAsLeader
        // rebuilt the runtime (it runs on election; this path covers the
        // outcome committing during our own election round).
        merge_.phase = MergePhase::kCommitting;
        merge_.plan = plan;
        merge_.outcome_is_commit = true;
        merge_.retry_countdown = kMergeRetryTicks;
        merge_.contact = DefaultContacts(plan);
        SendCommits();
      }
      merge_.plan = plan;  // adopt the final plan (with new_epoch)
      merge_.outcome_applied_self = true;
      if (merge_.commit_acks.size() == merge_.plan.sources.size() - 1) {
        FinishMergeAsCoordinator();
      }
    }
    return;
  }

  // Participant: ack the coordinator, then transition immediately.
  if (role_ == Role::kLeader) {
    raft::MergeCommitReply reply;
    reply.from = id_;
    reply.tx = plan.tx;
    reply.source_index = my_source;
    reply.ok = true;
    for (NodeId n :
         plan.sources[static_cast<size_t>(plan.coordinator)].members) {
      Send(n, reply);
    }
  }
  TransitionToMerged(plan);
}

void Node::FinishMergeAsCoordinator() {
  raft::MergePlan plan = merge_.plan;
  if (!merge_.outcome_is_commit) {
    // Abort fully acknowledged: every participant resolved its CTX'. The
    // admin was answered when the abort applied; tear down and replicate a
    // settle marker so every member (and any future leader) drops its
    // retransmission bookkeeping.
    if (merge_.admin_client != kNoNode) {
      ReplyToClient(merge_.admin_client, merge_.admin_req_id,
                    Rejected("merge aborted by participant vote"));
    }
    const TxId tx = plan.tx;
    merge_ = MergeRuntime{};
    if (opts_.recorder != nullptr && merge_span_ != 0) {
      opts_.recorder->EndSpan(id_, obs::Name::kMerge, merge_span_,
                              obs::Outcome::kAborted, tx);
      merge_span_ = 0;
    }
    counters_.Add(cid_.merge_abort_finalized);
    if (unsettled_aborts_.count(tx) > 0) {
      auto idx = Propose(raft::ConfAbortSettled{tx});
      if (!idx.ok()) {
        RLOG_WARN("merge", "n%u could not propose abort settle: %s", id_,
                  idx.status().ToString().c_str());
      }
    }
    return;
  }
  if (merge_.admin_client != kNoNode) {
    ReplyToClient(merge_.admin_client, merge_.admin_req_id, OkStatus());
  }
  raft::MergeFinalize fin;
  fin.from = id_;
  fin.tx = plan.tx;
  for (NodeId n :
       plan.sources[static_cast<size_t>(plan.coordinator)].members) {
    if (n != id_) Send(n, fin);
  }
  merge_ = MergeRuntime{};
  if (opts_.recorder != nullptr && merge_span_ != 0) {
    opts_.recorder->EndSpan(id_, obs::Name::kMerge, merge_span_,
                            obs::Outcome::kOk, plan.tx);
    merge_span_ = 0;
  }
  counters_.Add(cid_.merge_finalized);
  TransitionToMerged(plan);
}

void Node::HandleMergeFinalize(NodeId from, const raft::MergeFinalize& m) {
  (void)from;
  const auto& cfg = config_.Current();
  if (cfg.merge_outcome_index == 0 || !cfg.merge_outcome_commit ||
      !cfg.merge_outcome_plan || cfg.merge_outcome_plan->tx != m.tx) {
    return;
  }
  if (cfg.merge_outcome_index > commit_) {
    // We hold the outcome entry but have not seen it commit; the finalize
    // implies it is committed cluster-wide.
    commit_ = cfg.merge_outcome_index;
    ApplyCommitted();
  }
  // If the apply above ran OnMergeOutcomeApplied as a coordinator follower,
  // we still hold the old config; transition now.
  const auto& cfg2 = config_.Current();
  if (cfg2.merge_outcome_plan && cfg2.merge_outcome_plan->tx == m.tx &&
      cfg2.merge_outcome_index <= applied_) {
    raft::MergePlan plan = *cfg2.merge_outcome_plan;
    TransitionToMerged(plan);
  }
}

void Node::ResumeUnsettledAbort() {
  if (merge_.phase != MergePhase::kIdle) return;
  for (const auto& [tx, plan] : unsettled_aborts_) {
    if (plan.SourceOf(id_) != plan.coordinator) continue;
    merge_ = MergeRuntime{};
    merge_.phase = MergePhase::kCommitting;
    merge_.plan = plan;
    merge_.outcome_is_commit = false;
    merge_.outcome_applied_self = true;  // the abort applied before clearing
    merge_.retry_countdown = kMergeRetryTicks;
    merge_.contact = DefaultContacts(plan);
    counters_.Add(cid_.merge_abort_resumed);
    SendCommits();
    return;  // one transaction at a time; settling chains to the next
  }
}

void Node::ResumeMergeAsLeader() {
  const auto& cfg = config_.Current();
  if (!cfg.merge_tx.has_value()) {
    // No transaction recorded in the config — but an applied abort may
    // still await participant acks (the apply clears the config record).
    ResumeUnsettledAbort();
    return;
  }
  int my_source = cfg.merge_tx->SourceOf(id_);
  if (my_source != cfg.merge_tx->coordinator) return;  // participants react

  merge_ = MergeRuntime{};
  merge_.retry_countdown = kMergeRetryTicks;
  if (cfg.merge_outcome_index > 0 && cfg.merge_outcome_plan) {
    merge_.phase = MergePhase::kCommitting;
    merge_.plan = *cfg.merge_outcome_plan;
    merge_.outcome_is_commit = cfg.merge_outcome_commit;
    merge_.outcome_applied_self = cfg.merge_outcome_index <= applied_;
    merge_.contact = DefaultContacts(merge_.plan);
    SendCommits();
  } else {
    merge_.phase = MergePhase::kPreparing;
    merge_.plan = *cfg.merge_tx;
    merge_.local_tx_applied = cfg.merge_tx_index <= applied_;
    merge_.contact = DefaultContacts(merge_.plan);
    SendPrepares();
  }
  counters_.Add(cid_.merge_resumed);
}

// --------------------------------------------------------------------------
// Transition + snapshot exchange.

void Node::TransitionToMerged(const raft::MergePlan& plan) {
  RLOG_INFO("merge", "n%u transitions to merged cluster (tx=%llu, E=%u)", id_,
            static_cast<unsigned long long>(plan.tx), plan.new_epoch);
  counters_.Add(cid_.merge_transitioned);
  FailPendingClients(Code::kUnavailable);

  raft::ReconfigRecord rec;
  rec.kind = raft::ReconfigRecord::Kind::kMerge;
  rec.epoch = plan.new_epoch;
  rec.uid = plan.new_uid;
  rec.members = plan.ResumeMembers();
  rec.range = plan.new_range;
  history_.push_back(std::move(rec));

  // Arm GC for this merge's sealed snapshots (done reports may already have
  // arrived from fast members — merge, never overwrite, the entry).
  ExchangeGc& gc = exchange_gc_[plan.tx];
  gc.resumed = plan.ResumeMembers();
  gc.targets = plan.AllMembers();
  if (gc.retry_countdown <= 0) gc.retry_countdown = kMergeRetryTicks;

  // The merged cluster starts fresh: the log begins with the C_new entry,
  // committed at term 0 of E_new (§III-C.2 "Resumption").
  term_ = EpochTerm::Make(plan.new_epoch, 0).raw();
  voted_for_ = kNoNode;
  log_.Reset(0, 0);
  raft::LogEntry genesis;
  genesis.index = 1;
  genesis.term = term_;
  genesis.payload = raft::ConfMergeOutcome{plan, true};
  log_.Append(genesis);
  commit_ = 1;
  applied_ = 1;
  snapshot_.reset();

  raft::ConfigState ns;
  ns.mode = raft::ConfigMode::kStable;
  ns.members = plan.ResumeMembers();
  std::sort(ns.members.begin(), ns.members.end());
  ns.range = plan.new_range;
  ns.uid = plan.new_uid;
  config_.ForceState(std::move(ns), 1);

  role_ = Role::kFollower;
  leader_ = kNoNode;
  votes_.clear();
  ClearProgress();
  DropPendingAcks();
  merge_ = MergeRuntime{};
  ResetElectionTimer();
  RegisterWithNaming();

  if (IsRetired()) {
    // Resize-at-merge dropped us; we keep serving our sealed snapshot to
    // the resumed members but hold no merged state ourselves.
    machine_->Reset(KeyRange::Empty());
    PersistExchangeMetaNow();  // the armed GC entry survives reboots
    return;
  }
  StartExchange(plan);
}

void Node::StartExchange(const raft::MergePlan& plan) {
  if (opts_.recorder != nullptr && exchange_span_ == 0) {
    exchange_span_ = opts_.recorder->BeginSpan(
        id_, obs::Name::kMergeExchange, obs::TraceCtx{}, plan.tx);
  }
  Exchange ex;
  ex.plan = plan;
  ex.my_source = plan.SourceOf(id_);
  ex.retry_countdown = kMergeRetryTicks;
  for (size_t j = 0; j < plan.sources.size(); ++j) {
    int sj = static_cast<int>(j);
    auto it = exchange_store_.find({plan.tx, sj});
    if (it != exchange_store_.end()) {
      ex.have[sj] = it->second;
    } else {
      ex.contact[sj] = plan.sources[j].members.front();
    }
  }
  exchange_ = std::move(ex);
  // The pending plan is durable from here: a crash at any point until the
  // assembled store is snapshotted boots back into this exchange.
  PersistExchangeMetaNow();
  // Fan the pull out to every member of each missing source: whichever has
  // sealed its snapshot answers (and the rest push on sealing), so a single
  // lagging contact cannot stall the exchange.
  for (const auto& [sj, contact] : exchange_->contact) {
    (void)contact;
    if (opts_.recorder != nullptr && exchange_span_ != 0) {
      opts_.recorder->Emit(id_, obs::Name::kExchangePull, obs::TraceCtx{},
                           exchange_->plan.tx, static_cast<uint64_t>(sj));
    }
    for (NodeId n :
         exchange_->plan.sources[static_cast<size_t>(sj)].members) {
      if (n == id_) continue;
      raft::SnapPullReq req;
      req.from = id_;
      req.tx = exchange_->plan.tx;
      req.source_index = sj;
      Send(n, req);
    }
  }
  MaybeFinishExchange();
}

void Node::ExchangeTick() {
  if (!exchange_.has_value()) return;
  if (--exchange_->retry_countdown > 0) return;
  exchange_->retry_countdown = kMergeRetryTicks;
  for (auto& [sj, contact] : exchange_->contact) {
    (void)contact;
    if (exchange_->have.count(sj) > 0) continue;
    for (NodeId n :
         exchange_->plan.sources[static_cast<size_t>(sj)].members) {
      if (n == id_) continue;
      raft::SnapPullReq req;
      req.from = id_;
      req.tx = exchange_->plan.tx;
      req.source_index = sj;
      Send(n, req);
    }
  }
}

void Node::HandleSnapPullReq(NodeId from, const raft::SnapPullReq& m) {
  raft::SnapPullReply reply;
  reply.from = id_;
  reply.tx = m.tx;
  reply.source_index = m.source_index;
  auto it = exchange_store_.find({m.tx, m.source_index});
  if (it != exchange_store_.end()) {
    reply.ready = true;
    reply.snap = it->second;
  } else {
    // Not sealed yet (e.g. a deferring coordinator-cluster member): push
    // the snapshot the moment it becomes available.
    exchange_waiters_[{m.tx, m.source_index}].insert(from);
  }
  Send(from, std::move(reply));
}

void Node::HandleSnapPullReply(NodeId from, const raft::SnapPullReply& m) {
  (void)from;
  if (!exchange_.has_value() || exchange_->plan.tx != m.tx) return;
  if (!m.ready || !m.snap) return;
  exchange_->have[m.source_index] = m.snap;
  MaybeFinishExchange();
}

void Node::MaybeFinishExchange() {
  if (!exchange_.has_value()) return;
  if (exchange_->have.size() < exchange_->plan.sources.size()) return;

  // Assemble the merged state: restore the lowest range, then absorb the
  // rest in key order (ranges are adjacent by construction).
  std::vector<sm::SnapshotPtr> snaps;
  snaps.reserve(exchange_->have.size());
  for (const auto& [sj, snap] : exchange_->have) snaps.push_back(snap);
  std::sort(snaps.begin(), snaps.end(),
            [](const sm::SnapshotPtr& a, const sm::SnapshotPtr& b) {
              return a->range.lo() < b->range.lo();
            });
  if (Status s = machine_->Restore(*snaps.front()); !s.ok()) {
    RLOG_ERROR("merge", "n%u snapshot restore failed: %s", id_,
               s.ToString().c_str());
  }
  for (size_t i = 1; i < snaps.size(); ++i) {
    Status s = machine_->MergeIn(*snaps[i]);
    if (!s.ok()) {
      RLOG_ERROR("merge", "n%u snapshot merge failed: %s", id_,
                 s.ToString().c_str());
    }
  }
  raft::MergePlan plan = exchange_->plan;
  exchange_.reset();
  if (opts_.recorder != nullptr && exchange_span_ != 0) {
    opts_.recorder->Emit(id_, obs::Name::kExchangeDone, obs::TraceCtx{},
                         plan.tx, machine_->Size());
    opts_.recorder->EndSpan(id_, obs::Name::kMergeExchange, exchange_span_,
                            obs::Outcome::kOk, plan.tx);
    exchange_span_ = 0;
  }
  counters_.Add(cid_.merge_exchange_done);
  RLOG_INFO("merge", "n%u finished snapshot exchange (%zu items)", id_,
            machine_->Size());
  // Announce completion so holders can GC their sealed snapshots once every
  // resumed member is through (retransmitted from ExchangeGcTick until this
  // node prunes its own copy).
  {
    ExchangeGc& gc = exchange_gc_[plan.tx];  // armed in TransitionToMerged
    gc.self_done = true;
    gc.done.insert(id_);
    gc.retry_countdown = kMergeRetryTicks;
    raft::ExchangeDone ann;
    ann.from = id_;
    ann.tx = plan.tx;
    for (NodeId n : gc.targets) {
      if (n != id_) Send(n, ann);
    }
  }
  MaybePruneExchange(plan.tx);
  // Entries replicated while we were exchanging can now apply.
  ApplyCommitted();
  // Compact through the merged log's genesis: the outcome entry carries no
  // data (the store was assembled from exchanged snapshots just now), so a
  // member added to the merged cluster later must catch up via
  // InstallSnapshot — which carries the store — rather than replaying a
  // data-less log.
  snapshot_ = BuildSnapshot();
  storage_->InstallSnapshot(snapshot_);
  log_.CompactTo(snapshot_->last_index, snapshot_->last_term);
  counters_.Add(cid_.log_compactions);
  // Only now — with the assembled store durable in the snapshot — may the
  // pending-exchange marker clear: a crash a moment earlier boots back
  // into the exchange and re-pulls, a crash after boots from the snapshot.
  PersistExchangeMetaNow();
  ResetElectionTimer();
  // Expedite the first election of the merged cluster: the lowest resumed
  // member campaigns immediately instead of waiting for a full election
  // timeout (a deterministic choice, so no duelling candidates). Everyone
  // else keeps the normal randomized timeout as the fallback.
  auto resume = plan.ResumeMembers();
  if (!resume.empty() && id_ == *std::min_element(resume.begin(), resume.end()) &&
      role_ == Role::kFollower && leader_ == kNoNode && CanCampaign()) {
    StartElection();
  }
}

// --------------------------------------------------------------------------
// Exchange-store garbage collection: without it every merge a node
// participates in leaves one sealed snapshot behind forever, so chained
// merges grow exchange_store_ without bound.

void Node::HandleExchangeDone(NodeId from, const raft::ExchangeDone& m) {
  auto it = exchange_gc_.find(m.tx);
  if (it == exchange_gc_.end()) {
    auto held = exchange_store_.lower_bound({m.tx, -1});
    bool holds = held != exchange_store_.end() && held->first.first == m.tx;
    if (!holds) {
      // Nothing retained for this tx: either we already pruned (every
      // resumed member had reported done) or we were wiped since. Echo our
      // own completion so the sender — who may have missed our broadcast —
      // does not retransmit forever.
      raft::ExchangeDone echo;
      echo.from = id_;
      echo.tx = m.tx;
      Send(from, echo);
      return;
    }
    // Sealed but not yet transitioned (e.g. a deferring coordinator-cluster
    // member): buffer the report; TransitionToMerged fills the member lists.
    it = exchange_gc_.emplace(m.tx, ExchangeGc{}).first;
  }
  bool grew = it->second.done.insert(from).second;
  MaybePruneExchange(m.tx);
  if (grew) PersistExchangeMetaNow();
}

void Node::ExchangeGcTick() {
  for (auto& [tx, gc] : exchange_gc_) {
    if (!gc.self_done) continue;  // only completed members gossip
    if (--gc.retry_countdown > 0) continue;
    gc.retry_countdown = kMergeRetryTicks;
    raft::ExchangeDone ann;
    ann.from = id_;
    ann.tx = tx;
    for (NodeId n : gc.targets) {
      if (n != id_) Send(n, ann);
    }
  }
}

void Node::MaybePruneExchange(TxId tx) {
  auto it = exchange_gc_.find(tx);
  if (it == exchange_gc_.end()) return;
  const ExchangeGc& gc = it->second;
  if (gc.resumed.empty()) return;  // member lists unknown until transition
  for (NodeId n : gc.resumed) {
    if (gc.done.count(n) == 0) return;
  }
  // Every resumed member holds the merged state: the sealed snapshots can
  // never be pulled again (a restarting member resumes its exchange from
  // peers that finished, i.e. from their live stores via InstallSnapshot).
  for (auto e = exchange_store_.lower_bound({tx, -1});
       e != exchange_store_.end() && e->first.first == tx;) {
    e = exchange_store_.erase(e);
  }
  for (auto w = exchange_waiters_.lower_bound({tx, -1});
       w != exchange_waiters_.end() && w->first.first == tx;) {
    w = exchange_waiters_.erase(w);
  }
  exchange_gc_.erase(it);
  storage_->PruneSealed(tx);
  PersistExchangeMetaNow();
  counters_.Add(cid_.merge_exchange_pruned);
}

}  // namespace recraft::core
