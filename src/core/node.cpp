// Node lifecycle, message dispatch, the apply path and client handling.
#include "core/node.h"

#include <cassert>

#include "common/logging.h"

namespace recraft::core {

const char* RoleName(Role r) {
  switch (r) {
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
    case Role::kLeader: return "leader";
  }
  return "?";
}

void Node::InternCounters() {
  cid_.msg_sent = counters_.Intern("msg.sent");
  cid_.msg_recv = counters_.Intern("msg.recv");
  cid_.entries_applied = counters_.Intern("entries.applied");
  cid_.append_sent = counters_.Intern("repl.append_sent");
  cid_.commits = counters_.Intern("repl.commits");
  cid_.client_proposed = counters_.Intern("client.proposed");
  cid_.proposed = counters_.Intern("repl.proposed");
  cid_.election_started = counters_.Intern("election.started");
  cid_.election_votes_granted = counters_.Intern("election.votes_granted");
  cid_.election_won = counters_.Intern("election.won");
  cid_.member_proposed = counters_.Intern("member.proposed");
  cid_.member_committed = counters_.Intern("member.committed");
  cid_.merge_started = counters_.Intern("merge.started");
  cid_.merge_prepared = counters_.Intern("merge.prepared");
  cid_.merge_commit_received = counters_.Intern("merge.commit_received");
  cid_.merge_aborted = counters_.Intern("merge.aborted");
  cid_.merge_abort_finalized = counters_.Intern("merge.abort_finalized");
  cid_.merge_finalized = counters_.Intern("merge.finalized");
  cid_.merge_abort_resumed = counters_.Intern("merge.abort_resumed");
  cid_.merge_resumed = counters_.Intern("merge.resumed");
  cid_.merge_transitioned = counters_.Intern("merge.transitioned");
  cid_.merge_exchange_done = counters_.Intern("merge.exchange_done");
  cid_.merge_exchange_pruned = counters_.Intern("merge.exchange_pruned");
  cid_.split_enter_joint = counters_.Intern("split.enter_joint");
  cid_.split_leave_joint = counters_.Intern("split.leave_joint");
  cid_.split_completed = counters_.Intern("split.completed");
  cid_.log_compactions = counters_.Intern("log.compactions");
  cid_.storage_ack_released = counters_.Intern("storage.ack_released");
  cid_.storage_ack_deferred = counters_.Intern("storage.ack_deferred");
  cid_.leader_stepdown = counters_.Intern("leader.stepdown");
  cid_.leader_lost_quorum = counters_.Intern("leader.lost_quorum");
  cid_.recovery_epoch_gap = counters_.Intern("recovery.epoch_gap");
  cid_.recovery_naming_lookup = counters_.Intern("recovery.naming_lookup");
  cid_.recovery_pull_started = counters_.Intern("recovery.pull_started");
  cid_.recovery_pull_applied = counters_.Intern("recovery.pull_applied");
  cid_.recovery_install_snapshot = counters_.Intern("recovery.install_snapshot");
  cid_.recovery_exchange_resumed = counters_.Intern("recovery.exchange_resumed");
  cid_.node_reinit = counters_.Intern("node.reinit");
  cid_.node_boot = counters_.Intern("node.boot");
  cid_.node_boot_amnesia = counters_.Intern("node.boot_amnesia");
  cid_.client_deferred = counters_.Intern("client.deferred");
  cid_.read_barrier_wait = counters_.Intern("read.barrier_wait");
  cid_.read_accepted = counters_.Intern("read.accepted");
  cid_.read_probe_sent = counters_.Intern("read.probe_sent");
  cid_.read_probe_retry = counters_.Intern("read.probe_retry");
  cid_.read_quorum_confirmed = counters_.Intern("read.quorum_confirmed");
  cid_.read_served = counters_.Intern("read.served");
  cid_.invariant_committed_conflict =
      counters_.Intern("invariant.committed_conflict");
  cid_.repl_stale_peer_dropped = counters_.Intern("repl.stale_peer_dropped");
  cid_.repl_snapshot_sent = counters_.Intern("repl.snapshot_sent");
  cid_.repl_truncations = counters_.Intern("repl.truncations");
  cid_.repl_append_held = counters_.Intern("repl.append_held");
  cid_.repl_append_gap_nack = counters_.Intern("repl.append_gap_nack");
}

Node::Node(NodeId id, Options opts, raft::ConfigState genesis, Rng rng,
           SendFn send, storage::Storage* storage)
    : id_(id),
      opts_(opts),
      send_(std::move(send)),
      rng_(rng),
      storage_(storage) {
  assert(opts_.machine_factory &&
         "Options::machine_factory must be set (the harness installs the KV "
         "machine by default)");
  assert(storage != nullptr && "a node needs a storage backend");
  machine_ = opts_.machine_factory(genesis.range);
  InternCounters();
  storage_->SetDurableCallback([this]() { OnStorageDurable(); });
  // Attached before the genesis append so the bootstrap entry is durable.
  log_.Attach(storage_);
  bool bootstrap = !genesis.members.empty();
  raft::ConfInit init;
  init.members = genesis.members;
  init.range = genesis.range;
  init.uid = genesis.uid;
  config_.Init(std::move(genesis));
  if (bootstrap) {
    // Write the genesis configuration as entry 1 so the log is
    // self-contained for nodes added later (they replay membership from the
    // log instead of relying on out-of-band genesis state).
    raft::LogEntry e;
    e.index = 1;
    e.term = 0;
    e.payload = std::move(init);
    log_.Append(e);
    commit_ = 1;
    applied_ = 1;
  }
  ResetElectionTimer();
  // Stagger initial timeouts so the first election converges quickly.
  ticks_since_heard_ = static_cast<int>(rng_.Uniform(
      0, static_cast<uint64_t>(opts_.election_timeout_min_ticks)));
  MaybePersistHard();
}

Node::Node(NodeId id, Options opts, storage::Storage* storage, Rng rng,
           SendFn send)
    : id_(id),
      opts_(opts),
      send_(std::move(send)),
      rng_(rng),
      storage_(storage) {
  assert(opts_.machine_factory && "Options::machine_factory must be set");
  assert(storage != nullptr && "a node needs a storage backend");
  machine_ = opts_.machine_factory(KeyRange::Empty());
  InternCounters();
  storage_->SetDurableCallback([this]() { OnStorageDurable(); });
  BootFromStorage();  // recovery.cpp; attaches the log sink itself
  ResetElectionTimer();
  ticks_since_heard_ = static_cast<int>(rng_.Uniform(
      0, static_cast<uint64_t>(opts_.election_timeout_min_ticks)));
  MaybePersistHard();
}

void Node::MaybePersistHard() {
  storage::HardState hs{term_, voted_for_, commit_};
  if (hs == persisted_hard_) return;
  persisted_hard_ = hs;
  storage_->PersistHardState(hs);
}

void Node::DropPendingAcks() {
  pending_acks_.clear();
  held_appends_.clear();
}

void Node::OnStorageDurable() {
  const Index durable = storage_->DurableIndex();
  while (!pending_acks_.empty()) {
    PendingAck& pa = pending_acks_.front();
    if (pa.reply.match > durable) break;
    // Re-validate: the ack's claim must still describe this log (same term,
    // same entry term at the claimed match position).
    if (pa.reply.et == term_ &&
        log_.TermAt(pa.reply.match) == pa.match_term) {
      counters_.Add(cid_.storage_ack_released);
      if (opts_.recorder != nullptr && pa.ctx.valid()) {
        opts_.recorder->Emit(id_, obs::Name::kAckReleased, pa.ctx,
                             pa.reply.match);
      }
      cur_ctx_ = pa.ctx;  // ack inherits the causal context of its append
      Send(pa.to, pa.reply);
      cur_ctx_ = obs::TraceCtx{};
    }
    pending_acks_.pop_front();
  }
  // The leader's own vote in the commit quorum is gated on durability;
  // a completed flush can advance the commit index.
  if (role_ == Role::kLeader) AdvanceCommit();
  MaybePersistHard();
}

void Node::Send(NodeId to, raft::Message m) {
  counters_.Add(cid_.msg_sent);
  auto msg = raft::MakeMessage(std::move(m));
  // Outbound messages inherit the causal context of the event being
  // processed (set by Receive); annotation only, wire bytes are unchanged.
  if (opts_.recorder != nullptr && cur_ctx_.valid()) {
    msg.set_trace_ctx(cur_ctx_);
  }
  send_(to, msg);
}

void Node::ResetElectionTimer() {
  ticks_since_heard_ = 0;
  election_timeout_ = static_cast<int>(
      rng_.Uniform(static_cast<uint64_t>(opts_.election_timeout_min_ticks),
                   static_cast<uint64_t>(opts_.election_timeout_max_ticks)));
}

bool Node::CanCampaign() const {
  if (exchange_.has_value()) return false;  // §III-C: merge snapshots first
  if (IsRetired()) return false;
  return true;
}

void Node::BecomeFollower(EpochTerm et, NodeId leader) {
  if (opts_.recorder != nullptr && election_span_ != 0) {
    opts_.recorder->EndSpan(id_, obs::Name::kElection, election_span_,
                            obs::Outcome::kLost, et.raw());
    election_span_ = 0;
  }
  bool term_changed = et.raw() != term_;
  // Held appends belong to one leader in one term.
  if (term_changed || leader != leader_) held_appends_.clear();
  if (term_changed) {
    term_ = et.raw();
    voted_for_ = kNoNode;
  }
  if (role_ == Role::kLeader) {
    counters_.Add(cid_.leader_stepdown);
    FailPendingClients(Code::kNotLeader);
  }
  role_ = Role::kFollower;
  votes_.clear();
  ClearProgress();
  leader_ = leader;
}

bool Node::ObserveEt(EpochTerm et, NodeId from) {
  EpochTerm cur(term_);
  if (et.raw() <= cur.raw()) return true;
  if (et.epoch() == cur.epoch()) {
    BecomeFollower(et, kNoNode);
    return true;
  }
  // Higher epoch: the sender completed a reconfiguration we have not.
  const auto& cfg = config_.Current();

  // A coordinator-cluster leader deliberately lags its own merge's epoch
  // while it collects 2PC commit acks ("applies last", §III-C.1): traffic
  // from already-transitioned members is expected, not an epoch gap.
  if (role_ == Role::kLeader && merge_.phase == MergePhase::kCommitting &&
      merge_.outcome_is_commit && merge_.plan.new_epoch == et.epoch()) {
    return false;
  }

  if (cfg.mode == raft::ConfigMode::kSplitLeaving &&
      log_.HasEntry(cfg.cnew_index)) {
    // An epoch can only advance past ours once our split's C_new committed
    // (§III-B): complete our own side, then re-examine the message.
    commit_ = std::max(commit_, cfg.cnew_index);
    ApplyCommitted();  // runs CompleteSplit when the C_new entry applies
    return ObserveEt(et, from);
  }

  // A committed merge outcome whose E_new matches the observed epoch: the
  // merged cluster is live; transition now (we deferred as a coordinator-
  // cluster member, or lost the MergeFinalize).
  if (cfg.merge_outcome_index > 0 && cfg.merge_outcome_index <= commit_ &&
      cfg.merge_outcome_commit && cfg.merge_outcome_plan &&
      cfg.merge_outcome_plan->new_epoch == et.epoch()) {
    raft::MergePlan plan = *cfg.merge_outcome_plan;
    TransitionToMerged(plan);
    return ObserveEt(et, from);
  }

  // We miss the reconfiguration entirely: recover by pulling from the
  // sender (§III-B "Pulling through EnterElection and HandleVote").
  counters_.Add(cid_.recovery_epoch_gap);
  StartPull(from);
  return false;
}

void Node::Tick() {
  TickBody();
  MaybePersistHard();
}

void Node::TickBody() {
  // Fresh admission budget; serve requests deferred by a saturated leader.
  tick_budget_used_ = 0;
  while (!deferred_requests_.empty() &&
         (opts_.max_client_requests_per_tick == 0 ||
          tick_budget_used_ < opts_.max_client_requests_per_tick)) {
    auto [from, req] = std::move(deferred_requests_.front());
    deferred_requests_.pop_front();
    HandleClientRequest(from, req);
  }
  // Exchange GC runs regardless of role or a pending exchange: a node can
  // still be gossiping completion of an earlier merge while a later one is
  // exchanging.
  ExchangeGcTick();
  if (exchange_.has_value()) {
    ExchangeTick();
    return;
  }
  if (pull_target_ != kNoNode) {
    PullTick();
  }
  if (role_ == Role::kLeader) {
    if (--heartbeat_countdown_ <= 0) {
      heartbeat_countdown_ = opts_.heartbeat_ticks;
      BroadcastAppend(/*heartbeat=*/true);
    }
    // CheckQuorum (Raft dissertation §6.2): a leader that cannot reach an
    // election quorum within two election timeouts steps down, so a
    // partitioned leader stops serving (and Table I's "operation stops"
    // failure counts are observable).
    bool any_peer = false;
    for (auto& [peer, p] : progress_) {
      ++p.ticks_since_ack;
      any_peer = true;
    }
    if (any_peer) {
      std::set<NodeId> live{id_};
      int lease = 2 * opts_.election_timeout_max_ticks;
      for (const auto& [peer, p] : progress_) {
        if (p.ticks_since_ack < lease) live.insert(peer);
      }
      if (!raft::ElectionQuorum(config_.Current()).Satisfied(live)) {
        counters_.Add(cid_.leader_lost_quorum);
        BecomeFollower(current_et(), kNoNode);
        ResetElectionTimer();
        return;
      }
    }
    MergeTick();
    ReadTick();  // retransmit an unanswered ReadIndex probe round
    silent_ticks_ = 0;
    return;
  }
  ++ticks_since_heard_;
  if (ticks_since_heard_ >= election_timeout_) {
    ++silent_ticks_;
    if (opts_.naming_fallback_ticks > 0 &&
        silent_ticks_ >= opts_.naming_fallback_ticks &&
        opts_.naming_service != kNoNode && !naming_query_inflight_) {
      naming_query_inflight_ = true;
      counters_.Add(cid_.recovery_naming_lookup);
      Send(opts_.naming_service, raft::NamingLookupReq{id_});
    }
    if (CanCampaign()) {
      StartElection();
    } else {
      ResetElectionTimer();
    }
  }
}

void Node::Receive(NodeId from, const raft::Message& m, obs::TraceCtx ctx) {
  counters_.Add(cid_.msg_recv);
  // All sends triggered by handling this message inherit its causal context
  // (see Send); cleared on exit so timer-driven sends stay context-free.
  cur_ctx_ = ctx;
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, raft::RequestVote>) {
          HandleRequestVote(from, body);
        } else if constexpr (std::is_same_v<T, raft::VoteReply>) {
          HandleVoteReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::AppendEntries>) {
          HandleAppendEntries(from, body);
        } else if constexpr (std::is_same_v<T, raft::AppendReply>) {
          HandleAppendReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::InstallSnapshot>) {
          HandleInstallSnapshot(from, body);
        } else if constexpr (std::is_same_v<T, raft::InstallSnapshotReply>) {
          HandleInstallSnapshotReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::CommitNotify>) {
          HandleCommitNotify(from, body);
        } else if constexpr (std::is_same_v<T, raft::PullRequest>) {
          HandlePullRequest(from, body);
        } else if constexpr (std::is_same_v<T, raft::PullReply>) {
          HandlePullReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::MergePrepareReq>) {
          HandleMergePrepareReq(from, body);
        } else if constexpr (std::is_same_v<T, raft::MergePrepareReply>) {
          HandleMergePrepareReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::MergeCommitReq>) {
          HandleMergeCommitReq(from, body);
        } else if constexpr (std::is_same_v<T, raft::MergeCommitReply>) {
          HandleMergeCommitReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::MergeFinalize>) {
          HandleMergeFinalize(from, body);
        } else if constexpr (std::is_same_v<T, raft::ExchangeDone>) {
          HandleExchangeDone(from, body);
        } else if constexpr (std::is_same_v<T, raft::SnapPullReq>) {
          HandleSnapPullReq(from, body);
        } else if constexpr (std::is_same_v<T, raft::SnapPullReply>) {
          HandleSnapPullReply(from, body);
        } else if constexpr (std::is_same_v<T, raft::ReadIndexProbe>) {
          HandleReadIndexProbe(from, body);
        } else if constexpr (std::is_same_v<T, raft::ReadIndexAck>) {
          HandleReadIndexAck(from, body);
        } else if constexpr (std::is_same_v<T, raft::ClientRequest>) {
          HandleClientRequest(from, body);
        } else if constexpr (std::is_same_v<T, raft::RangeSnapReq>) {
          HandleRangeSnapReq(from, body);
        } else if constexpr (std::is_same_v<T, raft::BootstrapReq>) {
          HandleBootstrapReq(from, body);
        } else if constexpr (std::is_same_v<T, raft::NamingLookupReply>) {
          HandleNamingLookupReply(body);
        }
        // NamingRegister / NamingLookupReq are handled by the naming actor.
      },
      m);
  cur_ctx_ = obs::TraceCtx{};
  // Hard-state chokepoint: everything this event mutated becomes durable
  // before any message it sent can be delivered (delivery has latency, and
  // crash injection lands between events).
  MaybePersistHard();
}

const KeyRange& Node::EffectiveRange() const {
  const auto& cfg = config_.Current();
  if (cfg.mode == raft::ConfigMode::kSplitLeaving) {
    int sub = cfg.split.SubOf(id_);
    if (sub >= 0) return cfg.split.subs[static_cast<size_t>(sub)].range;
  }
  return cfg.range;
}

// --------------------------------------------------------------------------
// Apply path.

void Node::ApplyCommitted() {
  while (applied_ < commit_) {
    // Defer application while a merge's snapshot exchange is incomplete:
    // the log replicates normally but the store lacks the other
    // subclusters' data (§III-C.2).
    if (exchange_.has_value()) break;
    // ApplyEntry can reset the whole log (merge resumption); re-read state
    // every iteration.
    Index next = applied_ + 1;
    if (!log_.HasEntry(next)) break;  // reset underneath us
    raft::LogEntry entry = log_.At(next);
    applied_ = next;
    ApplyEntry(entry);
  }
  MaybeCompact();  // every replica compacts, not just the leader
  // A confirmed read may have been waiting for its read_index to apply.
  if (!pending_reads_.empty()) ServeConfirmedReads();
}

void Node::RecordApplied(const raft::LogEntry& e) {
  if (!opts_.trace_applied) return;
  AppliedRecord rec;
  rec.uid = config_.Current().uid;
  rec.epoch = current_et().epoch();
  rec.index = e.index;
  rec.term = e.term;
  if (const auto* cmd = std::get_if<sm::Command>(&e.payload)) {
    rec.payload_hash =
        std::hash<std::string>{}(cmd->key) * 31 +
        std::hash<std::string_view>{}(std::string_view(
            reinterpret_cast<const char*>(cmd->body.data()),
            cmd->body.size())) *
            7;
    rec.is_cmd = true;
    rec.cmd = *cmd;
  } else {
    rec.payload_hash = std::hash<std::string>{}(e.Describe());
  }
  applied_trace_.push_back(std::move(rec));
}

void Node::ApplyEntry(const raft::LogEntry& e) {
  RecordApplied(e);
  counters_.Add(cid_.entries_applied);
  if (const auto* cmd = std::get_if<sm::Command>(&e.payload)) {
    sm::CmdResult res = machine_->Apply(*cmd);
    auto it = pending_.find(e.index);
    if (it != pending_.end()) {
      if (opts_.recorder != nullptr && it->second.ctx.valid()) {
        opts_.recorder->Emit(id_, obs::Name::kApply, it->second.ctx, e.index,
                             e.term);
      }
      ReplyToClient(it->second.client, it->second.req_id, res.status,
                    res.payload, it->second.ctx);
      pending_.erase(it);
    }
    return;
  }
  if (std::holds_alternative<raft::NoOp>(e.payload)) {
    auto it = pending_.find(e.index);
    if (it != pending_.end()) {
      ReplyToClient(it->second.client, it->second.req_id, OkStatus(), {},
                    it->second.ctx);
      pending_.erase(it);
    }
    return;
  }
  if (std::holds_alternative<raft::ConfInit>(e.payload)) {
    // Replayed only by nodes that joined after bootstrap: adopt the genesis
    // range for the (still empty) machine. Membership was applied wait-free
    // on append by the config tracker.
    if (machine_->range().empty() || machine_->Size() == 0) {
      machine_->Reset(config_.StateAtOrBefore(e.index).range);
    }
    return;
  }
  if (std::holds_alternative<raft::ConfSplitJoint>(e.payload)) {
    OnSplitJointCommitted(e.index);
    return;
  }
  if (std::holds_alternative<raft::ConfSplitNew>(e.payload)) {
    // Commit of the split C_new entry: this node's split is decided;
    // complete it (notify, shrink, epoch bump).
    CompleteSplit();
    return;
  }
  if (const auto* cm = std::get_if<raft::ConfMember>(&e.payload)) {
    OnMemberChangeCommitted(*cm, e.index);
    return;
  }
  if (const auto* tx = std::get_if<raft::ConfMergeTx>(&e.payload)) {
    OnMergeTxApplied(*tx, e.index);
    return;
  }
  if (const auto* oc = std::get_if<raft::ConfMergeOutcome>(&e.payload)) {
    OnMergeOutcomeApplied(*oc, e.index);
    return;
  }
  if (const auto* as = std::get_if<raft::ConfAbortSettled>(&e.payload)) {
    // Every participant acked the abort of `tx`: drop the retransmission
    // bookkeeping. Replay-safe (erasing an absent tx is a no-op).
    unsettled_aborts_.erase(as->tx);
    // Chain: if this leader carries further unsettled aborts (back-to-back
    // aborted merges across leader changes), resume the next one.
    if (role_ == Role::kLeader && merge_.phase == MergePhase::kIdle) {
      ResumeUnsettledAbort();
    }
    return;
  }
  if (const auto* sr = std::get_if<raft::ConfSetRange>(&e.payload)) {
    if (sr->absorb) {
      Status s = machine_->MergeIn(*sr->absorb);
      if (!s.ok()) {
        RLOG_ERROR("range", "n%u absorb failed: %s", id_,
                   s.ToString().c_str());
      }
    } else if (machine_->range().ContainsRange(sr->range)) {
      (void)machine_->RestrictRange(sr->range);
    }
    auto it = pending_.find(e.index);
    if (it != pending_.end()) {
      ReplyToClient(it->second.client, it->second.req_id, OkStatus(), {},
                    it->second.ctx);
      pending_.erase(it);
    }
    return;
  }
}

void Node::FailPendingClients(Code code) {
  // Safe to iterate while replying: ReplyToClient only enqueues on the
  // network (the SendFn contract forbids synchronous re-entry), so nothing
  // can mutate pending_ mid-loop.
  for (const auto& [idx, pc] : pending_) {
    ReplyToClient(pc.client, pc.req_id, Status(code), {}, pc.ctx);
  }
  pending_.clear();
  // Pending ReadIndex reads die with the leadership that registered them
  // (every FailPendingClients site is such a boundary): the probe quorum
  // that would have confirmed them can no longer vouch for this node.
  FailPendingReads(code);
}

void Node::ReplyToClient(NodeId client, uint64_t req_id, Status s,
                         std::string value, obs::TraceCtx ctx) {
  if (client == kNoNode) return;
  raft::ClientReply reply;
  reply.req_id = req_id;
  reply.from = id_;
  reply.status = std::move(s);
  reply.value = std::move(value);
  reply.leader_hint = leader_;
  reply.serving_range = EffectiveRange();
  reply.epoch = current_et().epoch();
  // An explicit context (reply after an async hop: durability gate, apply)
  // overrides whatever event context is live; Send picks up cur_ctx_.
  const obs::TraceCtx saved = cur_ctx_;
  if (ctx.valid()) cur_ctx_ = ctx;
  if (opts_.recorder != nullptr && cur_ctx_.valid()) {
    opts_.recorder->Emit(id_, obs::Name::kReply, cur_ctx_, req_id,
                         static_cast<uint64_t>(reply.status.code()));
  }
  Send(client, std::move(reply));
  cur_ctx_ = saved;
}

void Node::RegisterWithNaming() {
  if (opts_.naming_service == kNoNode) return;
  const auto& cfg = config_.Current();
  raft::NamingRegister reg;
  reg.uid = cfg.uid;
  reg.epoch = current_et().epoch();
  reg.members = cfg.members;
  reg.range = cfg.range;
  Send(opts_.naming_service, std::move(reg));
}

// --------------------------------------------------------------------------
// Client / admin requests.

void Node::HandleClientRequest(NodeId from, const raft::ClientRequest& m) {
  if (role_ != Role::kLeader) {
    ReplyToClient(from, m.req_id, NotLeader());
    return;
  }
  if (const auto* read = std::get_if<raft::ReadRequest>(&m.body)) {
    HandleReadRequest(from, m.req_id, *read);
    return;
  }
  if (const auto* cmd = std::get_if<sm::Command>(&m.body)) {
    // Every command routes by its key; "" is a legal coordinate (the
    // lowest), contained only by the leftmost shard's range.
    if (!EffectiveRange().Contains(cmd->key)) {
      // The reply carries EffectiveRange()/epoch, so a routing client can
      // tell a stale shard map apart from a bad key.
      ReplyToClient(from, m.req_id,
                    WrongShard("key " + cmd->key + " outside " +
                               EffectiveRange().ToString()));
      return;
    }
    // Leader-side admission: past the per-tick budget, requests queue and
    // are served on later ticks (models the storage bottleneck).
    if (opts_.max_client_requests_per_tick > 0) {
      if (tick_budget_used_ >= opts_.max_client_requests_per_tick) {
        deferred_requests_.emplace_back(from, m);
        counters_.Add(cid_.client_deferred);
        return;
      }
      ++tick_budget_used_;
    }
    // Once a merge outcome is in the log the data is sealed: the merge
    // blocks client traffic until the merged cluster resumes (§III-C.2).
    if (config_.Current().merge_outcome_index > 0) {
      ReplyToClient(from, m.req_id, Busy("merge in progress"));
      return;
    }
    // Register the pending reply *before* proposing: on a single-node
    // cluster Propose commits and applies synchronously.
    Index next = log_.last_index() + 1;
    pending_[next] = PendingClient{m.req_id, from, cur_ctx_};
    if (opts_.recorder != nullptr && cur_ctx_.valid()) {
      opts_.recorder->Emit(id_, obs::Name::kPropose, cur_ctx_, next, term_);
    }
    auto idx = Propose(*cmd);
    if (!idx.ok()) {
      pending_.erase(next);
      ReplyToClient(from, m.req_id, idx.status());
      return;
    }
    counters_.Add(cid_.client_proposed);
    return;
  }
  if (const auto* split = std::get_if<raft::AdminSplit>(&m.body)) {
    // Register the completion slot *before* starting: if the whole split
    // ever commits and applies synchronously inside StartSplit,
    // CompleteSplit must find the requester to answer (registering after
    // would leave a stale slot that misfires on the next split).
    const uint64_t prev_req_id = split_admin_req_id_;
    const NodeId prev_client = split_admin_client_;
    split_admin_req_id_ = m.req_id;
    split_admin_client_ = from;
    Status s = StartSplit(*split);
    // The split reply is sent on completion; failures reply immediately —
    // restoring the slot, so a rejected duplicate request cannot orphan an
    // in-flight split's pending reply.
    if (!s.ok()) {
      split_admin_req_id_ = prev_req_id;
      split_admin_client_ = prev_client;
      ReplyToClient(from, m.req_id, s);
    }
    return;
  }
  if (const auto* merge = std::get_if<raft::AdminMerge>(&m.body)) {
    Status s = StartMerge(*merge, m.req_id, from);
    if (!s.ok()) ReplyToClient(from, m.req_id, s);
    return;
  }
  if (const auto* member = std::get_if<raft::AdminMember>(&m.body)) {
    Status s = StartMemberChange(member->change);
    ReplyToClient(from, m.req_id, s);
    return;
  }
  if (const auto* sr = std::get_if<raft::AdminSetRange>(&m.body)) {
    const auto& cfg = config_.Current();
    if (cfg.range == sr->range && !sr->absorb) {
      ReplyToClient(from, m.req_id, OkStatus());  // idempotent retry
      return;
    }
    if (Status s = CheckReconfigPreconditions(); !s.ok()) {
      ReplyToClient(from, m.req_id, s);
      return;
    }
    Index next = log_.last_index() + 1;
    pending_[next] = PendingClient{m.req_id, from, cur_ctx_};
    auto idx = Propose(raft::ConfSetRange{sr->range, sr->absorb});
    if (!idx.ok()) {
      pending_.erase(next);
      ReplyToClient(from, m.req_id, idx.status());
    }
    return;
  }
}

void Node::HandleRangeSnapReq(NodeId from, const raft::RangeSnapReq& m) {
  raft::RangeSnapReply reply;
  reply.from = id_;
  reply.range = m.range;
  if (role_ != Role::kLeader) {
    reply.retry = true;
    reply.leader_hint = leader_;
    Send(from, std::move(reply));
    return;
  }
  auto snap = machine_->TakeSnapshot(m.range);
  if (!snap.ok()) {
    reply.retry = false;
    Send(from, std::move(reply));
    return;
  }
  reply.ok = true;
  reply.snap = *snap;
  Send(from, std::move(reply));
}

void Node::HandleBootstrapReq(NodeId from, const raft::BootstrapReq& m) {
  // Idempotency: if we already carry this genesis identity, just ack.
  if (config_.Current().uid != m.genesis.uid || m.genesis.uid == 0) {
    Reinit(m.genesis, m.data);
  }
  raft::BootstrapAck ack;
  ack.from = id_;
  ack.op_id = m.op_id;
  Send(from, std::move(ack));
}

void Node::Reinit(const raft::ConfigState& genesis, sm::SnapshotPtr data) {
  counters_.Add(cid_.node_reinit);
  // Wipe the durable medium first: the node sheds its previous identity
  // entirely (the TC terminate step), then re-persists the new genesis
  // through the normal log/hard-state paths below.
  storage_->WipeAll();
  persisted_hard_ = storage::HardState{};
  term_ = 0;
  voted_for_ = kNoNode;
  log_.Reset(0, 0);
  commit_ = 0;
  applied_ = 0;
  machine_->Reset(genesis.range);
  history_.clear();
  snapshot_.reset();
  exchange_store_.clear();
  exchange_waiters_.clear();
  exchange_gc_.clear();
  unsettled_aborts_.clear();
  role_ = Role::kFollower;
  leader_ = kNoNode;
  votes_.clear();
  ClearProgress();
  pending_.clear();
  pending_reads_.clear();
  read_acked_.clear();
  read_spans_.clear();
  DropPendingAcks();
  merge_ = MergeRuntime{};
  exchange_.reset();
  pull_target_ = kNoNode;
  split_admin_client_ = kNoNode;

  raft::ConfigState g = genesis;
  bool bootstrap = !g.members.empty();
  raft::ConfInit init;
  init.members = g.members;
  init.range = g.range;
  init.uid = g.uid;
  config_.Init(std::move(g));
  if (bootstrap) {
    raft::LogEntry e;
    e.index = 1;
    e.term = 0;
    e.payload = std::move(init);
    log_.Append(e);
    commit_ = 1;
    applied_ = 1;
  }
  if (data) {
    // Installed data is the snapshot base beneath the genesis entry; the
    // machine adopts the genesis range, discarding anything outside it.
    (void)machine_->Restore(*data);
    (void)machine_->Rebase(genesis.range);
  }
  ResetElectionTimer();
}

}  // namespace recraft::core
