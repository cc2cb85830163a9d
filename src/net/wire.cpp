#include "net/wire.h"

#include <utility>

#include "storage/codec.h"

namespace recraft {

// Message tags: append-only. Never renumber; retire by skipping.
template <>
struct VariantTags<raft::Message>
    : TagTable<Tag<raft::RequestVote, 1>, Tag<raft::VoteReply, 2>,
               Tag<raft::AppendEntries, 3>, Tag<raft::AppendReply, 4>,
               Tag<raft::InstallSnapshot, 5>,
               Tag<raft::InstallSnapshotReply, 6>, Tag<raft::CommitNotify, 7>,
               Tag<raft::PullRequest, 8>, Tag<raft::PullReply, 9>,
               Tag<raft::MergePrepareReq, 10>,
               Tag<raft::MergePrepareReply, 11>,
               Tag<raft::MergeCommitReq, 12>, Tag<raft::MergeCommitReply, 13>,
               Tag<raft::MergeFinalize, 14>, Tag<raft::ExchangeDone, 15>,
               Tag<raft::SnapPullReq, 16>, Tag<raft::SnapPullReply, 17>,
               Tag<raft::ReadIndexProbe, 18>, Tag<raft::ReadIndexAck, 19>,
               Tag<raft::ClientRequest, 20>, Tag<raft::ClientReply, 21>,
               Tag<raft::RangeSnapReq, 22>, Tag<raft::RangeSnapReply, 23>,
               Tag<raft::BootstrapReq, 24>, Tag<raft::BootstrapAck, 25>,
               Tag<raft::NamingRegister, 26>, Tag<raft::NamingLookupReq, 27>,
               Tag<raft::NamingLookupReply, 28>> {};

// ClientBody tags (same append-only discipline).
template <>
struct VariantTags<raft::ClientBody>
    : TagTable<Tag<sm::Command, 1>, Tag<raft::ReadRequest, 2>,
               Tag<raft::AdminSplit, 3>, Tag<raft::AdminMerge, 4>,
               Tag<raft::AdminMember, 5>, Tag<raft::AdminSetRange, 6>> {};

namespace raft {

template <class IO>
void Fields(IO& io, RequestVote& m) {
  io(m.et, m.candidate, m.last_idx, m.last_term);
}

template <class IO>
void Fields(IO& io, VoteReply& m) {
  io(m.et, m.from, m.granted, m.pull);
}

template <class IO>
void Fields(IO& io, AppendEntries& m) {
  io(m.et, m.leader, m.prev_idx, m.prev_term, m.entries, m.commit);
}

template <class IO>
void Fields(IO& io, AppendReply& m) {
  io(m.et, m.from, m.ok, m.match, m.conflict_hint);
}

template <class IO>
void Fields(IO& io, InstallSnapshot& m) {
  io(m.et, m.leader, m.snap);
}

template <class IO>
void Fields(IO& io, InstallSnapshotReply& m) {
  io(m.et, m.from, m.applied);
}

template <class IO>
void Fields(IO& io, CommitNotify& m) {
  io(m.et, m.from, m.cnew_index, m.cnew_term);
}

template <class IO>
void Fields(IO& io, PullRequest& m) {
  io(m.from, m.epoch, m.next_idx);
}

template <class IO>
void Fields(IO& io, PullReply& m) {
  io(m.from, m.epoch, m.entries, m.commit, m.capped, m.snap);
}

template <class IO>
void Fields(IO& io, MergePrepareReq& m) {
  io(m.from, m.plan);
}

template <class IO>
void Fields(IO& io, MergePrepareReply& m) {
  io(m.from, m.tx, m.source_index, m.ok, m.retry, m.leader_hint, m.epoch);
}

template <class IO>
void Fields(IO& io, MergeCommitReq& m) {
  io(m.from, m.tx, m.commit, m.plan);
}

template <class IO>
void Fields(IO& io, MergeCommitReply& m) {
  io(m.from, m.tx, m.source_index, m.ok, m.retry, m.leader_hint);
}

template <class IO>
void Fields(IO& io, MergeFinalize& m) {
  io(m.from, m.tx);
}

template <class IO>
void Fields(IO& io, ExchangeDone& m) {
  io(m.from, m.tx);
}

template <class IO>
void Fields(IO& io, SnapPullReq& m) {
  io(m.from, m.tx, m.source_index);
}

template <class IO>
void Fields(IO& io, SnapPullReply& m) {
  io(m.from, m.tx, m.source_index, m.ready, m.snap);
}

template <class IO>
void Fields(IO& io, ReadIndexProbe& m) {
  io(m.et, m.from, m.seq);
}

template <class IO>
void Fields(IO& io, ReadIndexAck& m) {
  io(m.et, m.from, m.seq, m.ok);
}

template <class IO>
void Fields(IO& io, ReadRequest& b) {
  io(b.query);
}

template <class IO>
void Fields(IO& io, AdminSplit& b) {
  io(b.groups, b.split_keys);
}

template <class IO>
void Fields(IO& io, AdminMerge& b) {
  io(b.draft);
}

template <class IO>
void Fields(IO& io, AdminMember& b) {
  io(b.change);
}

template <class IO>
void Fields(IO& io, AdminSetRange& b) {
  io(b.range, b.absorb);
}

template <class IO>
void Fields(IO& io, ClientRequest& m) {
  io(m.req_id, m.from, m.body);
}

template <class IO>
void Fields(IO& io, ClientReply& m) {
  io(m.req_id, m.from, m.status, m.value, m.leader_hint, m.serving_range,
     m.epoch);
}

template <class IO>
void Fields(IO& io, RangeSnapReq& m) {
  io(m.from, m.range);
}

template <class IO>
void Fields(IO& io, RangeSnapReply& m) {
  io(m.from, m.ok, m.retry, m.leader_hint, m.range, m.snap);
}

template <class IO>
void Fields(IO& io, BootstrapReq& m) {
  io(m.from, m.op_id, m.genesis, m.data);
}

template <class IO>
void Fields(IO& io, BootstrapAck& m) {
  io(m.from, m.op_id);
}

template <class IO>
void Fields(IO& io, NamingRegister& m) {
  io(m.uid, m.epoch, m.members, m.range);
}

template <class IO>
void Fields(IO& io, NamingLookupReq& m) {
  io(m.from);
}

template <class IO>
void Fields(IO& io, NamingLookupReply& m) {
  io(m.clusters);
}

}  // namespace raft

namespace net {

void EncodeMessage(Encoder& enc, const raft::Message& m) {
  recraft::Encode(enc, m);
}

Result<raft::MessagePtr> DecodeMessage(Decoder& dec) {
  raft::Message m;
  Reader r(dec);
  r(m);
  if (!r.ok()) return r.status();
  return raft::MakeMessage(std::move(m));
}

}  // namespace net

}  // namespace recraft
