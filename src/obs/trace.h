// Deterministic flight recorder: a fixed-capacity ring buffer of POD trace
// records stamped with simulated time. The recorder is pure observation —
// it draws no randomness, schedules no events, allocates only at arm time,
// and never feeds a value back into the protocols — so arming it leaves the
// execution digest bit-identical (obs_test pins this with the recorder
// disabled, armed, and wrapping).
//
// Record names are a closed, compile-time interned table (obs::Name): emit
// sites pass an enumerator, never a string, so the hot path writes a few
// words into the ring and the recraft-trace-hygiene lint can flag any
// string literal smuggled into an emit call.
//
// Span ids and trace ids come from recorder-owned monotonic counters, which
// makes them deterministic in execution order: the trace for a (seed, mix,
// ticks) world is itself replay-stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "obs/trace_ctx.h"

namespace recraft::obs {

// Interned trace-record names. Append only; NameStr() must stay in sync.
enum class Name : uint16_t {
  kNone = 0,

  // Network instants (a = peer id, b = bytes).
  kNetSend,
  kNetDeliver,
  kNetDropSrcCrashed,
  kNetDropDstCrashed,
  kNetDropPartition,
  kNetDropOneWay,
  kNetDropRandom,
  kNetDropUnregistered,

  // Node instants along the client-op causal chain.
  kPropose,      // a = log index, b = term
  kApply,        // a = log index
  kReply,        // a = client id, b = status
  kAckDeferred,  // replication ack parked on the durability gate (a = index)
  kAckReleased,  // durability reached, parked ack sent (a = index)

  // Storage instants (a = records flushed, b = 1 if fsync-path flush).
  kWalFlush,

  // Client instants.
  kClientRetry,  // a = attempt count, b = last status

  // Spans (b = outcome on the end record; see Outcome).
  kClientOp,        // a = op kind on begin
  kElection,        // a = term
  kSplit,           // propose -> joint -> C_new -> settle
  kMerge,           // cluster-level 2PC on the coordinator (a = tx id)
  kMergeExchange,   // snapshot transfer into the merged cluster (a = tx id)
  kMemberChange,    // a = node being added/removed
  kReadRound,       // one ReadIndex probe round (a = round number)

  // Protocol instants inside the spans above.
  kSplitJointCommitted,   // a = log index
  kSplitLeaveProposed,    // a = log index
  kMergePrepareSent,      // a = tx id, b = target cluster leader
  kMergeCommitSent,       // a = tx id, b = 1 commit / 0 abort
  kMergeOutcomeApplied,   // a = tx id, b = 1 commit / 0 abort
  kExchangePull,          // a = tx id, b = source node
  kExchangeDone,          // a = tx id

  kCount
};

// Span outcome codes carried in the end record's `b` argument.
enum class Outcome : uint64_t {
  kNone = 0,
  kOk = 1,
  kLost = 2,     // superseded / stepped down / lost election
  kAborted = 3,  // explicit protocol abort (merge 2PC abort path)
  kError = 4,
};

// Static name table; indexed by Name.
const char* NameStr(Name n);

enum class Kind : uint8_t {
  kInstant = 0,
  kSpanBegin = 1,
  kSpanEnd = 2,
};

// One POD ring-buffer slot. `a` and `b` are name-specific arguments (see
// the Name enum comments); `span`/`parent` link span begin/end pairs and
// causal parents, `trace_id` groups records of one logical operation.
struct TraceRecord {
  TimePoint ts = 0;
  uint64_t trace_id = 0;
  uint64_t span = 0;
  uint64_t parent = 0;
  uint64_t a = 0;
  uint64_t b = 0;
  NodeId node = 0;
  Name name = Name::kNone;
  Kind kind = Kind::kInstant;
};

// Fixed-capacity overwrite-oldest ring of TraceRecords. No allocation after
// construction; wrapping drops the oldest records (total() keeps counting).
class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity) : buf_(capacity == 0 ? 1 : capacity) {}

  void Push(const TraceRecord& r) {
    buf_[pushed_ % buf_.size()] = r;
    ++pushed_;
  }

  size_t capacity() const { return buf_.size(); }
  /// Records currently held (<= capacity).
  size_t size() const {
    return pushed_ < buf_.size() ? static_cast<size_t>(pushed_) : buf_.size();
  }
  /// Records ever pushed, including overwritten ones.
  uint64_t total() const { return pushed_; }
  bool wrapped() const { return pushed_ > buf_.size(); }

  /// Surviving records, oldest first.
  std::vector<TraceRecord> Snapshot() const;

 private:
  std::vector<TraceRecord> buf_;
  uint64_t pushed_ = 0;
};

// The per-world flight recorder. One instance serves every emitter in a
// world (nodes, network, storage, clients); worlds are single-threaded so
// no synchronization is needed, and sweep worlds never share a recorder.
// A null Recorder* at an emit site means "disarmed" — the entire cost of a
// disarmed world is one pointer test per emit point.
class Recorder {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;

  explicit Recorder(size_t capacity = kDefaultCapacity) : buf_(capacity) {}

  /// Bind the simulated clock. The recorder reads it, never advances it.
  void BindClock(const TimePoint* now) { now_ = now; }

  /// Fresh trace id for a new logical operation (deterministic: ids are
  /// assigned in execution order).
  uint64_t NewTraceId() { return ++next_trace_; }

  void Emit(NodeId node, Name name, TraceCtx ctx = {}, uint64_t a = 0,
            uint64_t b = 0) {
    TraceRecord r;
    r.ts = Now();
    r.trace_id = ctx.trace_id;
    r.parent = ctx.parent_span;
    r.a = a;
    r.b = b;
    r.node = node;
    r.name = name;
    r.kind = Kind::kInstant;
    buf_.Push(r);
  }

  /// Open a span; returns its id (0 is never a valid span id).
  uint64_t BeginSpan(NodeId node, Name name, TraceCtx ctx = {},
                     uint64_t a = 0) {
    const uint64_t id = ++next_span_;
    TraceRecord r;
    r.ts = Now();
    r.trace_id = ctx.trace_id;
    r.span = id;
    r.parent = ctx.parent_span;
    r.a = a;
    r.node = node;
    r.name = name;
    r.kind = Kind::kSpanBegin;
    buf_.Push(r);
    return r.span;
  }

  void EndSpan(NodeId node, Name name, uint64_t span,
               Outcome outcome = Outcome::kOk, uint64_t a = 0,
               uint64_t trace_id = 0) {
    TraceRecord r;
    r.ts = Now();
    r.trace_id = trace_id;
    r.span = span;
    r.a = a;
    r.b = static_cast<uint64_t>(outcome);
    r.node = node;
    r.name = name;
    r.kind = Kind::kSpanEnd;
    buf_.Push(r);
  }

  std::vector<TraceRecord> Snapshot() const { return buf_.Snapshot(); }
  const TraceBuffer& buffer() const { return buf_; }

 private:
  TimePoint Now() const { return now_ != nullptr ? *now_ : 0; }

  TraceBuffer buf_;
  const TimePoint* now_ = nullptr;
  uint64_t next_trace_ = 0;
  uint64_t next_span_ = 0;
};

}  // namespace recraft::obs
