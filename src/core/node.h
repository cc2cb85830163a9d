// The ReCraft consensus node: complete Raft (leader election, log
// replication, snapshots, membership change) extended with the paper's
// self-contained reconfigurations:
//
//  * split   — SplitEnterJoint / SplitLeaveJoint with distinct election and
//              commit quorums, CommitNotify multicast, epoch bump (§III-B);
//  * merge   — cluster-level 2PC (prepare / commit-abort) through each
//              cluster's own log, snapshot exchange, resumption at
//              (E_new, term 0) (§III-C);
//  * membership — AddAndResize / RemoveAndResize / ResizeQuorum (§IV), plus
//              vanilla Raft AR-RPC and joint consensus as baselines;
//  * recovery — pull-based catch-up across epochs, reconfiguration history,
//              and the naming-service fallback (§III-B, §V).
//
// The node is driven entirely by Tick() and Receive(); all outbound traffic
// goes through the send callback. It is deterministic given its RNG seed.
#pragma once

#include <cassert>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "common/metrics.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "raft/config.h"
#include "raft/config_tracker.h"
#include "raft/epoch_term.h"
#include "raft/log.h"
#include "raft/messages.h"
#include "sm/state_machine.h"
#include "storage/storage.h"

namespace recraft::core {

using raft::EpochTerm;

struct Options {
  Duration tick_interval = 10 * kMillisecond;
  int heartbeat_ticks = 1;              // heartbeat every N ticks
  int election_timeout_min_ticks = 10;  // randomized in [min, max]
  int election_timeout_max_ticks = 20;
  size_t max_entries_per_append = 128;
  size_t max_inflight_appends = 16;  // per-follower pipelining depth
  /// Auto-propose ResizeQuorum after an Add/RemoveAndResize commits with a
  /// non-majority quorum (the paper presents them as separate RPCs; chaining
  /// is the common deployment).
  bool auto_resize_quorum = true;
  /// Auto-propose JointLeave after a JointEnter commits (vanilla JC flow).
  bool auto_joint_leave = true;
  /// Take a snapshot and compact the log every this many applied entries
  /// (0 disables automatic compaction).
  size_t snapshot_threshold = 0;
  int pull_retry_ticks = 15;
  int merge_retry_ticks = 10;    // 2PC and snapshot-exchange retransmission
  /// Ticks of total silence (no leader, failed elections, failed pulls)
  /// before falling back to the naming service (§V). 0 disables.
  int naming_fallback_ticks = 0;
  NodeId naming_service = kNoNode;
  /// When false the node behaves as a plain Raft/etcd node: split, merge and
  /// the resize RPC family are rejected and epochs never change. Used for
  /// the Fig. 6 overhead comparison.
  bool enable_recraft = true;
  /// Record every applied entry for the harness's safety checkers. Off by
  /// default (benches would accumulate unbounded traces).
  bool trace_applied = false;
  /// Ablation switches (bench/ablation_design): disable the CommitNotify
  /// multicast after a split commit, or the pull recovery path entirely.
  bool enable_commit_notify = true;
  bool enable_pull = true;
  /// Leader-side client-request admission per tick (0 = unlimited). Models
  /// the per-node processing/storage bottleneck of the paper's testbed
  /// (512 B writes on Ceph volumes): a saturated cluster's throughput then
  /// scales by splitting, as in Fig. 7a. ReadIndex reads are exempt: they
  /// never touch the log or the WAL.
  size_t max_client_requests_per_tick = 0;
  /// Constructs the node's replicated state machine. The node is state-
  /// machine-agnostic; the harness injects the machine type world-wide
  /// (the KV machine by default, the queue machine, ...).
  sm::MachineFactory machine_factory;
  /// Ticks between retransmissions of an unanswered ReadIndex probe round.
  int read_probe_retry_ticks = 3;
  /// Armed flight recorder (obs/trace.h) shared by the whole world; null =
  /// disarmed. Strictly observational: the node emits trace records and
  /// opens protocol spans through it, but no recorded value ever feeds back
  /// into behavior, so the execution digest is identical either way.
  obs::Recorder* recorder = nullptr;
};

enum class Role : uint8_t { kFollower = 0, kCandidate, kLeader };
const char* RoleName(Role r);

/// Coordinator-side 2PC phase, exposed for fault-injection benches (Table I).
enum class MergePhase : uint8_t {
  kIdle = 0,
  kPreparing,   // CTX' proposed, collecting prepare replies
  kCommitting,  // outcome proposed, collecting commit acks
};

class Node {
 public:
  /// Outbound transport. The callback must deliver asynchronously: it must
  /// NOT call back into this node (Receive/Tick) synchronously, because
  /// handlers invoke Send while holding references into internal maps
  /// (progress_, pending_, merge_ state). The simulator satisfies this by
  /// routing every send through the event queue.
  using SendFn = std::function<void(NodeId to, raft::MessagePtr msg)>;

  /// `genesis` must list the initial members (including `id` unless the node
  /// starts as a learner-to-be-added) with a valid range and uid. `storage`
  /// (optional, non-owning, must outlive the node) receives every durable
  /// mutation from the start — including the genesis entry.
  Node(NodeId id, Options opts, raft::ConfigState genesis, Rng rng,
       SendFn send, storage::Storage* storage = nullptr);

  /// Boot purely from durable state: replays `storage`'s WAL/snapshot into
  /// a fresh node (hard state, log, KV store, configuration, merge-exchange
  /// runtime) with no access to any previous incarnation's memory. The
  /// harness's CrashNode/RestartNode pair is built on this.
  Node(NodeId id, Options opts, storage::Storage* storage, Rng rng,
       SendFn send);

  // --- simulator driver -------------------------------------------------
  void Tick();
  /// `ctx` is the sender's causal trace context (from the network's
  /// delivery handler); outbound sends triggered by this message inherit
  /// it, so a client op can be followed across the replication fan-out.
  void Receive(NodeId from, const raft::Message& m, obs::TraceCtx ctx = {});
  /// Invoked by the storage backend (from the top of the event loop) when a
  /// group-commit flush completes: releases durability-gated follower acks
  /// and re-runs the leader's commit accounting.
  void OnStorageDurable();

  /// Crash/restart. Persistent state (term, vote, log, commit, applied
  /// machine state, configuration, history) survives; volatile leadership
  /// state, timers and pending client replies/reads do not.
  void OnCrash();
  void OnRestart();

  // --- introspection ----------------------------------------------------
  NodeId id() const { return id_; }
  Role role() const { return role_; }
  bool IsLeader() const { return role_ == Role::kLeader; }
  EpochTerm current_et() const { return EpochTerm(term_); }
  uint32_t epoch() const { return current_et().epoch(); }
  Index commit_index() const { return commit_; }
  Index last_applied() const { return applied_; }
  Index last_log_index() const { return log_.last_index(); }
  const raft::RaftLog& log() const { return log_; }
  const raft::ConfigState& config() const { return config_.Current(); }
  ClusterUid cluster_uid() const { return config().uid; }
  /// The replicated state machine (opaque to the consensus core). Tests
  /// that need the concrete type downcast via the machine's Name().
  const sm::StateMachine& machine() const { return *machine_; }
  sm::StateMachine& machine() { return *machine_; }
  /// Linearizable reads waiting for quorum confirmation / apply catch-up.
  size_t pending_read_count() const { return pending_reads_.size(); }
  NodeId leader_hint() const { return leader_; }
  MergePhase merge_phase() const { return merge_.phase; }
  bool merge_exchange_pending() const { return exchange_.has_value(); }
  /// Sealed merge snapshots still retained for data exchange. Bounded by
  /// the ExchangeDone gossip (see merge.cpp): entries are pruned once every
  /// resumed member reports its exchange complete.
  size_t exchange_store_size() const { return exchange_store_.size(); }
  /// Aborted merges this coordinator-source member still tracks for
  /// retransmission (cleared by the replicated ConfAbortSettled marker).
  size_t unsettled_abort_count() const { return unsettled_aborts_.size(); }
  storage::Storage* storage() { return storage_; }
  bool IsRetired() const { return !config().IsMember(id_); }
  const std::vector<raft::ReconfigRecord>& history() const { return history_; }
  CounterSet& counters() { return counters_; }
  const CounterSet& counters() const { return counters_; }
  const Options& options() const { return opts_; }

  /// The key range this node would currently accept client commands for.
  const KeyRange& EffectiveRange() const;

  /// Entries applied so far, for the harness's safety checkers: calls `fn`
  /// for each applied (cluster uid, epoch, index, entry) tuple since the
  /// last drain.
  struct AppliedRecord {
    ClusterUid uid;
    uint32_t epoch;
    Index index;
    uint64_t term;
    size_t payload_hash;
    bool is_cmd = false;
    sm::Command cmd;  // valid when is_cmd (opaque; checkers decode)
  };
  std::vector<AppliedRecord> DrainApplied() { return std::move(applied_trace_); }

 private:
  friend class NodeTestPeer;

  // -- helpers (node.cpp) -------------------------------------------------
  void InternCounters();
  void TickBody();
  void Send(NodeId to, raft::Message m);
  void ResetElectionTimer();
  /// Persist (term, vote, commit) if any changed since the last persist.
  /// Called from the Tick/Receive epilogues — the single chokepoint through
  /// which every hard-state mutation reaches storage before any message
  /// sent by the same event can be delivered.
  void MaybePersistHard();
  /// Drop durability-gated acks whose log positions were invalidated
  /// (truncation, snapshot install, log reset), and every held append.
  void DropPendingAcks();
  /// Rebuild the node from storage_->Load(): install the snapshot, replay
  /// the log into the config tracker, re-seed the merge-exchange runtime,
  /// then apply committed entries to rebuild the KV store (recovery.cpp).
  void BootFromStorage();
  /// Serialize the current exchange_/exchange_gc_ state to storage.
  void PersistExchangeMetaNow();
  bool CanCampaign() const;
  void BecomeFollower(EpochTerm et, NodeId leader);
  /// Handle an incoming epoch-term: adopt same-epoch higher terms, trigger
  /// split completion or pull recovery for higher epochs. Returns true if
  /// the message should continue to be processed under the (possibly
  /// updated) local term.
  bool ObserveEt(EpochTerm et, NodeId from);
  void ApplyCommitted();
  void ApplyEntry(const raft::LogEntry& e);
  void RecordApplied(const raft::LogEntry& e);
  void FailPendingClients(Code code);
  void ReplyToClient(NodeId client, uint64_t req_id, Status s,
                     std::string value = {}, obs::TraceCtx ctx = {});
  void RegisterWithNaming();

  // -- election (election.cpp) ---------------------------------------------
  void StartElection();
  void BecomeLeader();
  void HandleRequestVote(NodeId from, const raft::RequestVote& m);
  void HandleVoteReply(NodeId from, const raft::VoteReply& m);

  // -- replication (replication.cpp) ----------------------------------------
  struct Progress {
    Index next = 1;
    Index match = 0;
    size_t inflight = 0;
    bool snapshotting = false;
    int ticks_since_ack = 0;  // for the leader's quorum check (lease)
  };
  std::vector<NodeId> ReplicationTargets() const;
  /// Leader-side progress lookup that cannot dangle or resurrect: returns
  /// nullptr unless this node leads and `peer` is a current replication
  /// target (tracking state is created lazily for newly added members).
  /// Any call that can apply committed entries (AdvanceCommit,
  /// ApplyCommitted, Propose, ObserveEt) invalidates the returned pointer —
  /// re-fetch after such calls.
  Progress* LeaderProgress(NodeId peer);
  /// The only teardown path for progress_. Bumps progress_gen_ so
  /// WithProgress can assert that no reconfiguration invalidated a live
  /// reference.
  void ClearProgress();
  /// Drops tracking state for peers outside the current replication target
  /// set (after a committed member removal): their straggler replies must
  /// not keep replication traffic flowing across the membership boundary.
  void PruneProgress();
  /// Runs `fn(Progress&)` for `peer` if this node leads and tracks it;
  /// returns false otherwise. The safe default for reply handlers: mutate
  /// tracking fields inside `fn`, run anything that can reenter the apply
  /// path (AdvanceCommit, MaybeSendAppend, Propose) only after it returns.
  /// A debug assertion catches callbacks that mutate progress_ underneath
  /// their own reference — the reconfig-reentrancy use-after-free class.
  template <typename Fn>
  bool WithProgress(NodeId peer, Fn&& fn) {
    if (role_ != Role::kLeader) return false;
    auto it = progress_.find(peer);
    if (it == progress_.end()) return false;
    const uint64_t gen = progress_gen_;
    fn(it->second);
    (void)gen;
    assert(gen == progress_gen_ &&
           "progress_ cleared while a Progress& was live; move the "
           "reentrant call out of the WithProgress callback");
    return true;
  }
  void BroadcastAppend(bool heartbeat);
  void MaybeSendAppend(NodeId peer, bool force_empty);
  void HandleAppendEntries(NodeId from, const raft::AppendEntries& m);
  void HandleAppendReply(NodeId from, const raft::AppendReply& m);
  void HandleInstallSnapshot(NodeId from, const raft::InstallSnapshot& m);
  void HandleInstallSnapshotReply(NodeId from,
                                  const raft::InstallSnapshotReply& m);
  void AdvanceCommit();
  Result<Index> Propose(raft::Payload payload);
  void MaybeCompact();
  raft::RaftSnapshotPtr BuildSnapshot() const;

  // -- client/admin (node.cpp) ----------------------------------------------
  void HandleClientRequest(NodeId from, const raft::ClientRequest& m);
  void HandleRangeSnapReq(NodeId from, const raft::RangeSnapReq& m);
  void HandleBootstrapReq(NodeId from, const raft::BootstrapReq& m);
  /// Wipe all state and restart as a member of a freshly bootstrapped
  /// cluster (TC baseline's "install snapshot + config and restart" step).
  void Reinit(const raft::ConfigState& genesis, sm::SnapshotPtr data);

  // -- linearizable reads (read.cpp): the ReadIndex path --------------------
  /// Register a read: capture read_index = commit_, confirm leadership with
  /// a probe round, serve from the applied machine state. Zero log entries.
  void HandleReadRequest(NodeId from, uint64_t req_id,
                         const raft::ReadRequest& m);
  void HandleReadIndexProbe(NodeId from, const raft::ReadIndexProbe& m);
  void HandleReadIndexAck(NodeId from, const raft::ReadIndexAck& m);
  /// Serve every read whose probe round confirmed and whose read_index has
  /// been applied; then launch the next probe round if reads are waiting.
  void ServeConfirmedReads();
  /// Mark every round up to `seq` confirmed and close their spans.
  void ConfirmReadRounds(uint64_t seq);
  void MaybeLaunchReadProbe();
  void BroadcastReadProbe();
  void FailPendingReads(Code code);
  void ReadTick();

  // -- membership (membership.cpp) -------------------------------------------
  Status CheckReconfigPreconditions() const;
  Status ValidateMemberChange(const raft::MemberChange& mc) const;
  Status StartMemberChange(const raft::MemberChange& mc);
  void OnMemberChangeCommitted(const raft::ConfMember& cm, Index index);

  // -- split (split.cpp) ------------------------------------------------------
  Status StartSplit(const raft::AdminSplit& req);
  Status ProposeSplitLeaveJoint();
  void OnSplitJointCommitted(Index index);
  void CompleteSplit();
  void HandleCommitNotify(NodeId from, const raft::CommitNotify& m);

  // -- merge (merge.cpp) ------------------------------------------------------
  struct MergeRuntime {
    MergePhase phase = MergePhase::kIdle;
    raft::MergePlan plan;
    bool local_tx_applied = false;
    std::map<int, raft::MergePrepareReply> prepare_replies;
    std::set<int> commit_acks;
    bool outcome_is_commit = false;
    bool outcome_applied_self = false;
    std::map<int, NodeId> contact;  // per-source current contact node
    int retry_countdown = 0;
    uint64_t admin_req_id = 0;
    NodeId admin_client = kNoNode;
  };
  /// Snapshot-exchange state after a committed merge (all members).
  struct Exchange {
    raft::MergePlan plan;
    int my_source = -1;
    std::map<int, sm::SnapshotPtr> have;
    std::map<int, NodeId> contact;
    int retry_countdown = 0;
  };
  /// Post-merge pruning of exchange_store_: every participant (resumed or
  /// retired by resize-at-merge) tracks which resumed members finished
  /// their snapshot exchange; once all have, the sealed snapshots for that
  /// transaction are dropped. Members that finished gossip ExchangeDone
  /// (retransmitted until they prune, so a lost message only delays GC).
  struct ExchangeGc {
    std::vector<NodeId> resumed;  // must all report done before pruning
    std::vector<NodeId> targets;  // broadcast set: every plan member
    std::set<NodeId> done;
    bool self_done = false;       // this node finished and broadcasts
    int retry_countdown = 0;
  };
  Status StartMerge(const raft::AdminMerge& req, uint64_t req_id,
                    NodeId client);
  void HandleMergePrepareReq(NodeId from, const raft::MergePrepareReq& m);
  void HandleMergePrepareReply(NodeId from, const raft::MergePrepareReply& m);
  void HandleMergeCommitReq(NodeId from, const raft::MergeCommitReq& m);
  void HandleMergeCommitReply(NodeId from, const raft::MergeCommitReply& m);
  void HandleMergeFinalize(NodeId from, const raft::MergeFinalize& m);
  void HandleSnapPullReq(NodeId from, const raft::SnapPullReq& m);
  void HandleSnapPullReply(NodeId from, const raft::SnapPullReply& m);
  void OnMergeTxApplied(const raft::ConfMergeTx& tx, Index index);
  void OnMergeOutcomeApplied(const raft::ConfMergeOutcome& oc, Index index);
  void MaybeFinishPrepare();
  void ProposeMergeOutcome(bool commit);
  void SendPrepares();
  void SendCommits();
  void ResumeMergeAsLeader();
  /// A fresh coordinator-cluster leader resumes retransmitting a fully
  /// applied abort whose participant acks are still outstanding (the config
  /// no longer records the tx; unsettled_aborts_ does).
  void ResumeUnsettledAbort();
  void TransitionToMerged(const raft::MergePlan& plan);
  void MergeTick();
  void StartExchange(const raft::MergePlan& plan);
  void ExchangeTick();
  void MaybeFinishExchange();
  void FinishMergeAsCoordinator();
  void HandleExchangeDone(NodeId from, const raft::ExchangeDone& m);
  void ExchangeGcTick();
  void MaybePruneExchange(TxId tx);

  // -- recovery (recovery.cpp) -------------------------------------------------
  void StartPull(NodeId target);
  void PullTick();
  void HandlePullRequest(NodeId from, const raft::PullRequest& m);
  void HandlePullReply(NodeId from, const raft::PullReply& m);
  void HandleNamingLookupReply(const raft::NamingLookupReply& m);
  void InstallSnapshotState(const raft::RaftSnapshot& snap, EpochTerm et);

  // -- state ---------------------------------------------------------------
  const NodeId id_;
  const Options opts_;
  SendFn send_;
  Rng rng_;
  /// Pluggable persistence backend (may be null: purely volatile node, the
  /// pre-storage behavior). Non-owning; the harness keeps the durable
  /// medium alive across node incarnations.
  storage::Storage* storage_ = nullptr;
  storage::HardState persisted_hard_;

  // Persistent (survives crash/restart).
  uint64_t term_ = 0;  // EpochTerm raw
  NodeId voted_for_ = kNoNode;
  raft::RaftLog log_;
  Index commit_ = 0;
  Index applied_ = 0;
  /// The replicated state machine, built by opts_.machine_factory. Never
  /// null after construction; the core only speaks the sm interface.
  sm::MachinePtr machine_;
  raft::ConfigTracker config_;
  std::vector<raft::ReconfigRecord> history_;
  raft::RaftSnapshotPtr snapshot_;  // last compaction point
  /// Aborted merge transactions awaiting participant acks, kept by every
  /// coordinator-source member so ANY later leader can resume the abort
  /// retransmission (the C_abort apply clears the config's merge fields).
  /// Erased when the replicated ConfAbortSettled marker applies; survives
  /// compaction inside RaftSnapshot::unsettled_aborts.
  std::map<TxId, raft::MergePlan> unsettled_aborts_;
  /// Snapshots retained to serve merge data exchange: (tx, source) -> snap.
  /// Grows by one entry per merge this node participates in and is only
  /// reclaimed by Reinit; acceptable at current scale (entries are shared
  /// pointers), revisit when long-lived clusters chain many merges.
  std::map<std::pair<TxId, int>, sm::SnapshotPtr> exchange_store_;
  /// Requesters that asked for a snapshot we had not sealed yet; answered
  /// as soon as it becomes available (avoids polling latency). Mutation
  /// discipline: OnMergeOutcomeApplied finishes iterating a waiter set
  /// before erasing it, and Send never re-enters (SendFn contract), so no
  /// iterator escapes a mutation.
  std::map<std::pair<TxId, int>, std::set<NodeId>> exchange_waiters_;
  /// Per-merge GC bookkeeping (see ExchangeGc). Entries are erased when the
  /// transaction's snapshots are pruned, so the map itself stays bounded.
  std::map<TxId, ExchangeGc> exchange_gc_;

  // Volatile.
  Role role_ = Role::kFollower;
  NodeId leader_ = kNoNode;
  int ticks_since_heard_ = 0;
  int election_timeout_ = 10;
  int heartbeat_countdown_ = 1;
  std::set<NodeId> votes_;
  std::map<NodeId, Progress> progress_;
  /// Bumped by ClearProgress on every teardown (step-down, re-election,
  /// split completion, merge transition, snapshot install, restart). Lets
  /// WithProgress assert in debug builds that a Progress& never survives a
  /// reentrant apply.
  uint64_t progress_gen_ = 0;
  struct PendingClient {
    uint64_t req_id;
    NodeId client;
    obs::TraceCtx ctx;  // request's causal context, restored at apply/reply
  };
  std::map<Index, PendingClient> pending_;
  /// Follower acks gated on WAL durability: an AppendReply must not claim
  /// `match` until every entry at or below it is durable, or a crash could
  /// lose an entry the leader's commit quorum counted. Released by
  /// OnStorageDurable; re-validated (term + entry term at match) at send
  /// time so a truncation cannot resurrect a stale claim.
  struct PendingAck {
    NodeId to;
    raft::AppendReply reply;
    uint64_t match_term;
    obs::TraceCtx ctx;  // the gated append's context, restored at release
  };
  std::deque<PendingAck> pending_acks_;
  /// Same-term AppendEntries that arrived ahead of a gap in the log (the
  /// network reordered them past an earlier AE), keyed by prev_idx and
  /// capped at max_inflight_appends. Replied to only when released: once
  /// the log reaches prev_idx, each is extracted and re-run through
  /// HandleAppendEntries with its saved context, so it faces every check a
  /// late delivery would. Cleared with pending_acks_, on a term or leader
  /// change, and when campaigning.
  struct HeldAppend {
    NodeId from;
    raft::AppendEntries m;
    obs::TraceCtx ctx;
  };
  std::map<Index, HeldAppend> held_appends_;
  /// Client requests beyond this tick's admission budget (see
  /// max_client_requests_per_tick), served FIFO on subsequent ticks.
  std::deque<std::pair<NodeId, raft::ClientRequest>> deferred_requests_;
  size_t tick_budget_used_ = 0;
  /// ReadIndex runtime (leader only). A registered read waits for (a) the
  /// probe round assigned to it to collect an election quorum of same-term
  /// acks — proof no newer leader could have committed past read_index —
  /// and (b) applied_ to reach its read_index. A read is assigned the next
  /// round to launch, never one already in flight: an ack only vouches for
  /// leadership at the moment the follower sent it, which must postdate the
  /// read's registration. Rounds pipeline — each batch of new reads launches
  /// its own round at once — and an ack for round s vouches for every round
  /// up to s.
  struct PendingRead {
    uint64_t req_id = 0;
    NodeId client = kNoNode;
    sm::Command query;
    Index read_index = 0;
    uint64_t seq = 0;  // probe round that must confirm before serving
    obs::TraceCtx ctx;  // request's causal context, restored at serve time
  };
  std::deque<PendingRead> pending_reads_;
  uint64_t read_seq_ = 0;        // latest probe round launched
  uint64_t read_confirmed_ = 0;  // highest quorum-confirmed round
  // Highest round each peer acked in this term; cleared at every
  // leadership boundary (FailPendingReads) and on restart.
  std::map<NodeId, uint64_t> read_acked_;
  int read_retry_countdown_ = 0;
  MergeRuntime merge_;
  std::optional<Exchange> exchange_;
  uint64_t split_admin_req_id_ = 0;
  NodeId split_admin_client_ = kNoNode;
  // Pull recovery.
  NodeId pull_target_ = kNoNode;
  int pull_countdown_ = 0;
  int pull_attempts_ = 0;
  int silent_ticks_ = 0;  // for the naming-service fallback
  bool naming_query_inflight_ = false;

  std::vector<AppliedRecord> applied_trace_;
  CounterSet counters_;
  // Flight-recorder runtime (observation only, null/zero when disarmed).
  // cur_ctx_ is the context of the message being handled — every Send made
  // while it is set inherits it. Span ids track this node's open protocol
  // spans; 0 = no span open.
  obs::TraceCtx cur_ctx_;
  uint64_t election_span_ = 0;
  uint64_t split_span_ = 0;
  uint64_t merge_span_ = 0;
  uint64_t exchange_span_ = 0;
  uint64_t member_span_ = 0;
  // One kReadRound span per launched, not yet confirmed round, oldest
  // first: (round, span id).
  std::deque<std::pair<uint64_t, uint64_t>> read_spans_;
  // Pre-interned handles for every counter the node bumps from message /
  // apply / tick paths (see CounterSet). The string Add() API re-hashes the
  // name per increment, so node code always goes through these ids; the
  // `recraft-hot-path-hygiene` lint check enforces that.
  struct HotCounters {
    CounterSet::Id msg_sent, msg_recv, entries_applied, append_sent, commits;
    CounterSet::Id client_proposed, proposed;
    CounterSet::Id election_started, election_votes_granted, election_won;
    CounterSet::Id member_proposed, member_committed;
    CounterSet::Id merge_started, merge_prepared, merge_commit_received;
    CounterSet::Id merge_aborted, merge_abort_finalized, merge_finalized;
    CounterSet::Id merge_abort_resumed, merge_resumed, merge_transitioned;
    CounterSet::Id merge_exchange_done, merge_exchange_pruned;
    CounterSet::Id split_enter_joint, split_leave_joint, split_completed;
    CounterSet::Id log_compactions;
    CounterSet::Id storage_ack_released, storage_ack_deferred;
    CounterSet::Id leader_stepdown, leader_lost_quorum;
    CounterSet::Id recovery_epoch_gap, recovery_naming_lookup;
    CounterSet::Id recovery_pull_started, recovery_pull_applied;
    CounterSet::Id recovery_install_snapshot, recovery_exchange_resumed;
    CounterSet::Id node_crash, node_restart, node_reinit, node_boot;
    CounterSet::Id node_boot_amnesia;
    CounterSet::Id client_deferred;
    CounterSet::Id read_barrier_wait, read_accepted, read_probe_sent;
    CounterSet::Id read_probe_retry, read_quorum_confirmed, read_served;
    CounterSet::Id invariant_committed_conflict;
    CounterSet::Id repl_stale_peer_dropped, repl_snapshot_sent;
    CounterSet::Id repl_truncations, repl_append_held, repl_append_gap_nack;
  };
  HotCounters cid_{};
};

}  // namespace recraft::core
