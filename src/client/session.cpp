#include "client/session.h"

#include <algorithm>
#include <utility>

namespace recraft::client {

Session::Session(NodeId self, net::Transport& transport, net::Clock& clock,
                 Router& router, SessionOptions opts, DoneFn on_done,
                 ReqIdFn next_req_id)
    : self_(self),
      transport_(transport),
      clock_(clock),
      router_(router),
      opts_(opts),
      on_done_(std::move(on_done)),
      next_req_id_(std::move(next_req_id)) {
  if (!next_req_id_) next_req_id_ = [this] { return ++req_counter_; };
  transport_.Bind(self_, [this](NodeId, const raft::Message& m,
                                obs::TraceCtx) {
    if (const auto* reply = std::get_if<raft::ClientReply>(&m)) {
      OnReply(*reply);
    }
  });
}

Session::~Session() { transport_.Unbind(self_); }

void Session::Submit(std::vector<kv::Command> cmds) {
  ++generation_;
  round_.clear();
  round_.resize(cmds.size());
  for (size_t i = 0; i < cmds.size(); ++i) {
    Op& op = round_[i];
    op.cmd = std::move(cmds[i]);
    if (opts_.recorder != nullptr) {
      op.trace_id = opts_.recorder->NewTraceId();
      op.span = opts_.recorder->BeginSpan(
          self_, obs::Name::kClientOp, obs::TraceCtx{op.trace_id, 0},
          static_cast<uint64_t>(op.cmd.op));
    }
  }
  // Batch per shard: ops bound for the same group leave back-to-back.
  if (round_.size() > 1) {
    std::stable_sort(round_.begin(), round_.end(),
                     [this](const Op& a, const Op& b) {
                       Router::Entry* ea = router_.Resolve(a.cmd.key);
                       Router::Entry* eb = router_.Resolve(b.cmd.key);
                       auto ka = ea ? ea->shard : shard::kNoShard;
                       auto kb = eb ? eb->shard : shard::kNoShard;
                       if (ka != kb) return ka < kb;
                       return a.cmd.key < b.cmd.key;
                     });
  }
  open_ = round_.size();
  for (size_t i = 0; i < round_.size(); ++i) SendOp(i);
  ArmRoundTimeout();
}

void Session::Abandon() {
  ++generation_;
  round_.clear();
  open_ = 0;
}

void Session::SendOp(size_t idx) {
  Op& op = round_[idx];
  Router::Entry* entry = router_.Resolve(op.cmd.key);
  if (entry == nullptr || entry->members.empty()) {
    // No routing information: try to refresh, else wait for the round
    // timeout to retry.
    router_.Refetch();
    entry = router_.Resolve(op.cmd.key);
    if (entry == nullptr || entry->members.empty()) return;
  }
  NodeId target = entry->leader_hint;
  if (target == kNoNode ||
      std::find(entry->members.begin(), entry->members.end(), target) ==
          entry->members.end()) {
    target = entry->members[entry->rotate++ % entry->members.size()];
  }
  op.req_id = next_req_id_();
  if (op.issued_at == 0) op.issued_at = clock_.Now();
  raft::ClientRequest req;
  req.req_id = op.req_id;
  req.from = self_;
  // Reads ride the ReadIndex path: the leader confirms its commit index
  // with one probe round and serves from applied state — no log entry, no
  // WAL flush, no replication fan-out per read.
  if (kv::IsReadOnly(op.cmd.op) && !opts_.reads_via_log) {
    req.body = raft::ReadRequest{kv::EncodeCommand(op.cmd)};
  } else {
    req.body = kv::EncodeCommand(op.cmd);
  }
  auto msg = raft::MakeMessage(raft::Message(req));
  if (op.trace_id != 0) {
    msg.set_trace_ctx(obs::TraceCtx{op.trace_id, op.span});
    if (++op.attempts > 1 && opts_.recorder != nullptr) {
      opts_.recorder->Emit(self_, obs::Name::kClientRetry,
                           obs::TraceCtx{op.trace_id, op.span}, op.attempts);
    }
  }
  transport_.Send(self_, target, msg);
}

void Session::ScheduleResend(size_t idx, Duration delay) {
  uint64_t gen = generation_;
  clock_.CallAfter(delay,
                   [this, gen, idx, alive = std::weak_ptr<int>(alive_)]() {
                     if (alive.expired() || gen != generation_) return;
                     if (idx >= round_.size() || round_[idx].done) return;
                     SendOp(idx);
                   });
}

void Session::ArmRoundTimeout() {
  uint64_t gen = generation_;
  clock_.CallAfter(opts_.round_timeout,
                   [this, gen, alive = std::weak_ptr<int>(alive_)]() {
                     if (!alive.expired()) OnRoundTimeout(gen);
                   });
}

void Session::OnRoundTimeout(uint64_t generation) {
  if (generation != generation_ || open_ == 0) return;
  // Lost messages or a dead routing target: re-send everything still open
  // (same sequence numbers — the kv dedup session absorbs re-executions),
  // dropping leader hints so another member gets probed.
  for (size_t i = 0; i < round_.size(); ++i) {
    if (round_[i].done) continue;
    Router::Entry* entry = router_.Resolve(round_[i].cmd.key);
    if (entry != nullptr) entry->leader_hint = kNoNode;
    SendOp(i);
  }
  ArmRoundTimeout();
}

void Session::OnReply(const raft::ClientReply& reply) {
  size_t idx = round_.size();
  for (size_t i = 0; i < round_.size(); ++i) {
    if (!round_[i].done && round_[i].req_id == reply.req_id) {
      idx = i;
      break;
    }
  }
  if (idx == round_.size()) return;  // stale transmission's reply
  Op& op = round_[idx];
  Code code = reply.status.code();

  if (code == Code::kNotLeader || code == Code::kBusy ||
      code == Code::kUnavailable) {
    Router::Entry* entry = router_.Resolve(op.cmd.key);
    if (entry != nullptr) entry->leader_hint = reply.leader_hint;
    // Brief backoff so a mid-reconfiguration group is not hammered.
    ScheduleResend(idx, 10 * kMillisecond);
    return;
  }
  if (code == Code::kWrongShard || code == Code::kOutOfRange) {
    // Stale routing: the replying group does not serve the key (wrong
    // shard), or the command committed after a split moved the range
    // (out-of-range at apply). Refetch the map and re-route.
    ++wrong_shard_retries_;
    if (!router_.Refetch()) {
      // Same map version (or manual mode): drop the hint so rotation finds
      // a member of whichever group took over.
      Router::Entry* entry = router_.Resolve(op.cmd.key);
      if (entry != nullptr) entry->leader_hint = kNoNode;
    }
    ScheduleResend(idx, 10 * kMillisecond);
    return;
  }
  // Success (OK / NotFound for gets and deletes count as completed ops).
  op.done = true;
  --open_;
  if (op.span != 0 && opts_.recorder != nullptr) {
    opts_.recorder->EndSpan(self_, obs::Name::kClientOp, op.span,
                            reply.status.ok() ? obs::Outcome::kOk
                                              : obs::Outcome::kError,
                            static_cast<uint64_t>(reply.status.code()),
                            op.trace_id);
  }
  Router::Entry* entry = router_.Resolve(op.cmd.key);
  if (entry != nullptr) {
    entry->leader_hint = reply.from;
    if (reply.epoch > entry->epoch) {
      // The group reconfigured since the map was fetched; if it no longer
      // serves the cached range, our whole copy is suspect.
      entry->epoch = reply.epoch;
      if (!(reply.serving_range == entry->range)) router_.Refetch();
    }
  }
  on_done_(op, reply);  // last: it may Submit the next round
}

}  // namespace recraft::client
