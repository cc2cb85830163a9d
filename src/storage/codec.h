// The field lists of everything the persistence subsystem writes to disk
// and the wire reuses: log entries (every payload variant), configuration
// state, split and merge plans, reconfiguration history, state-machine and
// consensus snapshots, hard state and the merge-exchange metadata. Writer
// and Reader (common/codec.h) walk these lists in both directions;
// net/wire.cpp and wal_storage.cpp add the message and WAL-record lists on
// top. Also the CRC32 the WAL record framing uses to detect torn tail
// writes.
//
// The encoding is the durable format — recovery after a crash parses these
// bytes with no access to the dead process's memory — so every decode
// treats truncation and garbage as an error, never UB. The payload tags
// below are part of that format: append-only, never renumbered.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/codec.h"
#include "raft/entry.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"
#include "storage/storage.h"

namespace recraft {

template <>
struct VariantTags<raft::Payload>
    : TagTable<Tag<raft::NoOp, 0>, Tag<sm::Command, 1>, Tag<raft::ConfInit, 2>,
               Tag<raft::ConfSplitJoint, 3>, Tag<raft::ConfSplitNew, 4>,
               Tag<raft::ConfMember, 5>, Tag<raft::ConfMergeTx, 6>,
               Tag<raft::ConfMergeOutcome, 7>, Tag<raft::ConfSetRange, 8>,
               Tag<raft::ConfAbortSettled, 9>> {};

template <>
inline constexpr raft::MemberChangeKind kEnumMax<raft::MemberChangeKind> =
    raft::MemberChangeKind::kJointLeave;
template <>
inline constexpr raft::ConfigMode kEnumMax<raft::ConfigMode> =
    raft::ConfigMode::kSplitLeaving;
template <>
inline constexpr raft::ReconfigRecord::Kind
    kEnumMax<raft::ReconfigRecord::Kind> = raft::ReconfigRecord::Kind::kMember;

namespace sm {

template <class IO>
void Fields(IO& io, Command& c) {
  io(c.key, c.body, c.wire_hint);
}

/// The machine's own serialized image rides as one length-prefixed blob,
/// inside the range/metrics wrapper the consensus layer needs.
template <class IO>
void Fields(IO& io, Snapshot& s) {
  io(s.range, s.data, s.items, s.wire_bytes);
}

}  // namespace sm

namespace raft {

template <class IO>
void Fields(IO& io, SubCluster& s) {
  io(s.members, s.range, s.uid);
}

template <class IO>
void Fields(IO& io, SplitPlan& p) {
  io(p.subs);
}

template <class IO>
void Fields(IO& io, MergePlan& p) {
  io(p.tx, p.sources, p.coordinator, p.new_epoch, p.new_uid, p.new_range,
     p.resume_members);
}

template <class IO>
void Fields(IO& io, MemberChange& mc) {
  io(mc.kind, mc.nodes);
}

template <class IO>
void Fields(IO& io, ConfigState& c) {
  io(c.mode, c.members, c.fixed_quorum, c.range, c.uid, c.split,
     c.joint_index, c.cnew_index, c.vanilla_joint, c.jc_old, c.merge_tx,
     c.merge_tx_index, c.merge_decision_ok, c.merge_outcome_index,
     c.merge_outcome_commit, c.merge_outcome_plan);
}

template <class IO>
void Fields(IO& io, ReconfigRecord& r) {
  io(r.kind, r.epoch, r.uid, r.members, r.range, r.boundary_index);
}

template <class IO>
void Fields(IO& /*io*/, NoOp& /*n*/) {}

template <class IO>
void Fields(IO& io, ConfInit& c) {
  io(c.members, c.range, c.uid);
}

template <class IO>
void Fields(IO& io, ConfSplitJoint& c) {
  io(c.plan);
}

template <class IO>
void Fields(IO& io, ConfSplitNew& c) {
  io(c.plan);
}

template <class IO>
void Fields(IO& io, ConfMember& c) {
  io(c.change);
}

template <class IO>
void Fields(IO& io, ConfMergeTx& c) {
  io(c.plan, c.decision_ok);
}

template <class IO>
void Fields(IO& io, ConfMergeOutcome& c) {
  io(c.plan, c.commit);
}

template <class IO>
void Fields(IO& io, ConfSetRange& c) {
  io(c.range, c.absorb);
}

template <class IO>
void Fields(IO& io, ConfAbortSettled& c) {
  io(c.tx);
}

template <class IO>
void Fields(IO& io, LogEntry& e) {
  io(e.index, e.term, e.payload);
}

template <class IO>
void Fields(IO& io, RaftSnapshot& s) {
  io(s.last_index, s.last_term, s.state, s.config, s.history,
     s.unsettled_aborts);
}

/// A u32 count, then the entries. Decoding builds one new slab: sharing
/// slabs is a within-process optimization; across processes the bytes are
/// the truth.
template <class IO>
void Fields(IO& io, EntrySpan& span) {
  if constexpr (IO::kReading) {
    const size_t n = io.template Count<LogEntry>();
    if (n == 0) return;
    auto slab = std::make_shared<EntrySlab>(static_cast<uint32_t>(n));
    for (size_t i = 0; i < n && io.ok(); ++i) {
      LogEntry e;
      io(e);
      slab->PushBack(std::move(e));
    }
    if (io.ok()) {
      span.PushSegment(std::move(slab), 0, static_cast<uint32_t>(n));
    }
  } else {
    io.Count(span.size());
    for (const LogEntry& e : span) io(e);
  }
}

}  // namespace raft

namespace storage {

template <class IO>
void Fields(IO& io, HardState& h) {
  io(h.term, h.voted_for, h.commit);
}

template <class IO>
void Fields(IO& io, ExchangeGcImage& gc) {
  io(gc.tx, gc.resumed, gc.targets, gc.done, gc.self_done);
}

/// The "exmeta" blob.
template <class IO>
void Fields(IO& io, ExchangeMeta& meta) {
  io(meta.pending_plan, meta.gc);
}

/// CRC-32 (IEEE 802.3 polynomial, reflected). Guards each WAL record's
/// payload so a torn tail write is detected instead of replayed as garbage.
uint32_t Crc32(const uint8_t* data, size_t n);
inline uint32_t Crc32(const std::vector<uint8_t>& v) {
  return Crc32(v.data(), v.size());
}

}  // namespace storage

}  // namespace recraft
