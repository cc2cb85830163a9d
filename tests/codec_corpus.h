// A fully populated instance of every binary format the system writes: each
// raft::Message tag, each ClientBody tag, each log-payload tag, a consensus
// snapshot, the merge-exchange metadata and the KV command / scan batch /
// snapshot images. Every field carries a distinct non-default value, so two
// swapped fields change the bytes.
//
// codec_golden.inc holds the bytes these instances encoded to before the
// codec moved onto one field list per type; the golden tests assert that
// the bytes never change, and the corruption tests feed every prefix and
// every single-byte flip of them to the decoders.
#pragma once

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kv/kv.h"
#include "kv/kv_machine.h"
#include "kv/service.h"
#include "raft/entry_slab.h"
#include "raft/messages.h"
#include "storage/storage.h"
#include "storage/wal_storage.h"

namespace recraft::corpus {

inline std::string Hex(const uint8_t* p, size_t n) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(n * 2);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kDigits[p[i] >> 4]);
    out.push_back(kDigits[p[i] & 0xf]);
  }
  return out;
}
inline std::string Hex(const std::vector<uint8_t>& v) {
  return Hex(v.data(), v.size());
}

inline std::vector<uint8_t> Unhex(const std::string& hex) {
  std::vector<uint8_t> out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(
        static_cast<uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

/// The bytes codec_golden.inc pins for `name`; empty for an unknown name.
inline std::vector<uint8_t> Golden(const std::string& name) {
  static const std::map<std::string, std::string> kGolden = {
#include "tests/codec_golden.inc"
  };
  auto it = kGolden.find(name);
  return it == kGolden.end() ? std::vector<uint8_t>() : Unhex(it->second);
}

/// Feeds `decode` every strict prefix of `bytes` (as prefix=true) and every
/// copy of `bytes` with one byte inverted (prefix=false).
template <class F>
void ForEachCorruption(const std::vector<uint8_t>& bytes, F&& decode) {
  for (size_t len = 0; len < bytes.size(); ++len) {
    decode(std::vector<uint8_t>(bytes.begin(), bytes.begin() + len), true);
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::vector<uint8_t> flipped = bytes;
    flipped[i] ^= 0xff;
    decode(flipped, false);
  }
}

inline raft::SubCluster Sub(std::vector<NodeId> members, KeyRange range,
                            ClusterUid uid) {
  raft::SubCluster s;
  s.members = std::move(members);
  s.range = std::move(range);
  s.uid = uid;
  return s;
}

inline raft::MergePlan Plan(TxId tx) {
  raft::MergePlan p;
  p.tx = tx;
  p.sources = {Sub({1, 2}, KeyRange("", "m"), 0x1111),
               Sub({3, 4}, KeyRange("m", ""), 0x2222)};
  p.coordinator = 1;
  p.new_epoch = 9;
  p.new_uid = 0x3333;
  p.new_range = KeyRange::Full();
  p.resume_members = {1, 3, 4};
  return p;
}

inline raft::SplitPlan Split() {
  raft::SplitPlan p;
  p.subs = {Sub({5, 6}, KeyRange("a", "g"), 0x4444),
            Sub({7}, KeyRange("g", "z"), 0x5555)};
  return p;
}

inline kv::Command KvCommand() {
  kv::Command c;
  c.op = kv::OpType::kCas;
  c.key = "key";
  c.value = "new";
  c.expected = "old";
  c.scan_hi = "hi";
  c.scan_limit = 17;
  c.client_id = 0x0102030405060708ull;
  c.seq = 0x1112131415161718ull;
  return c;
}

inline std::vector<std::pair<std::string, std::string>> ScanBatch() {
  return {{"a", "1"}, {"bb", "22"}, {"ccc", ""}};
}

inline kv::Snapshot KvSnapshot() {
  kv::Snapshot s;
  s.range = KeyRange("b", "y");
  s.data = {{"c", "3"}, {"d", "44"}};
  s.sessions[5] = kv::Session{6, {OkStatus(), "ok"}};
  s.sessions[7] = kv::Session{8, {Conflict("dropped"), "cur"}};
  return s;
}

inline sm::SnapshotPtr SmSnapshot() {
  return kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>(KvSnapshot()));
}

inline raft::MemberChange Change() {
  raft::MemberChange mc;
  mc.kind = raft::MemberChangeKind::kJointEnter;
  mc.nodes = {8, 9};
  return mc;
}

/// One entry per payload tag, in tag order, at indexes first..first+9.
inline std::vector<raft::LogEntry> Entries(Index first = 1) {
  std::vector<raft::Payload> payloads;
  payloads.push_back(raft::NoOp{});
  payloads.push_back(kv::EncodeCommand(KvCommand()));
  payloads.push_back(raft::ConfInit{{1, 2, 3}, KeyRange("a", "q"), 0x99});
  payloads.push_back(raft::ConfSplitJoint{Split()});
  payloads.push_back(raft::ConfSplitNew{Split()});
  payloads.push_back(raft::ConfMember{Change()});
  payloads.push_back(raft::ConfMergeTx{Plan(41), true});
  payloads.push_back(raft::ConfMergeOutcome{Plan(42), false});
  payloads.push_back(raft::ConfSetRange{KeyRange("c", ""), SmSnapshot()});
  payloads.push_back(raft::ConfAbortSettled{0x77});
  std::vector<raft::LogEntry> out;
  for (size_t i = 0; i < payloads.size(); ++i) {
    raft::LogEntry e;
    e.index = first + i;
    e.term = 0x0000000300000005ull + i;
    e.payload = std::move(payloads[i]);
    out.push_back(std::move(e));
  }
  return out;
}

inline raft::EntrySpan Span(Index first) {
  std::vector<raft::LogEntry> entries = Entries(first);
  auto slab = std::make_shared<raft::EntrySlab>(
      static_cast<uint32_t>(entries.size()));
  for (auto& e : entries) slab->PushBack(std::move(e));
  raft::EntrySpan span;
  span.PushSegment(slab, 0, slab->size());
  return span;
}

inline raft::ConfigState Config() {
  raft::ConfigState c;
  c.mode = raft::ConfigMode::kSplitLeaving;
  c.members = {1, 2, 3};
  c.fixed_quorum = 2;
  c.range = KeyRange("d", "t");
  c.uid = 0x6666;
  c.split = Split();
  c.joint_index = 11;
  c.cnew_index = 12;
  c.vanilla_joint = true;
  c.jc_old = {4, 5};
  c.merge_tx = Plan(43);
  c.merge_tx_index = 13;
  c.merge_decision_ok = true;
  c.merge_outcome_index = 14;
  c.merge_outcome_commit = false;
  c.merge_outcome_plan = Plan(44);
  return c;
}

inline raft::RaftSnapshot RaftSnap() {
  raft::RaftSnapshot s;
  s.last_index = 20;
  s.last_term = 0x0000000400000002ull;
  s.state = SmSnapshot();
  s.config = Config();
  raft::ReconfigRecord r;
  r.kind = raft::ReconfigRecord::Kind::kMerge;
  r.epoch = 3;
  r.uid = 0x7777;
  r.members = {2, 4};
  r.range = KeyRange("e", "");
  r.boundary_index = 15;
  s.history = {r};
  r.kind = raft::ReconfigRecord::Kind::kSplit;
  r.boundary_index = 16;
  s.history.push_back(r);
  s.unsettled_aborts[45] = Plan(45);
  s.unsettled_aborts[46] = Plan(46);
  return s;
}

inline raft::NamingRegister Naming(ClusterUid uid) {
  raft::NamingRegister r;
  r.uid = uid;
  r.epoch = 4;
  r.members = {1, 5};
  r.range = KeyRange("f", "p");
  return r;
}

/// Every ClientBody tag, in tag order.
inline std::vector<raft::ClientBody> Bodies() {
  std::vector<raft::ClientBody> out;
  out.push_back(kv::EncodeCommand(KvCommand()));
  out.push_back(raft::ReadRequest{kv::EncodeCommand(KvCommand())});
  out.push_back(raft::AdminSplit{{{1, 2}, {3}}, {"k"}});
  out.push_back(raft::AdminMerge{Plan(47)});
  out.push_back(raft::AdminMember{Change()});
  out.push_back(raft::AdminSetRange{KeyRange("g", "h"), SmSnapshot()});
  return out;
}

/// One message per raft::Message tag, in tag order, then ClientRequests
/// carrying the ClientBody tags the first one does not.
inline std::vector<raft::MessagePtr> Messages() {
  using raft::MakeMessage;
  auto rs = std::make_shared<const raft::RaftSnapshot>(RaftSnap());
  std::vector<raft::MessagePtr> m;
  m.push_back(MakeMessage(raft::RequestVote{0x0000000100000002ull, 3, 4, 5}));
  m.push_back(MakeMessage(raft::VoteReply{6, 7, true, false}));
  m.push_back(MakeMessage(raft::AppendEntries{8, 9, 10, 11, Span(11), 12}));
  m.push_back(MakeMessage(raft::AppendReply{13, 14, true, 15, 16}));
  m.push_back(MakeMessage(raft::InstallSnapshot{17, 18, rs}));
  m.push_back(MakeMessage(raft::InstallSnapshotReply{19, 20, 21}));
  m.push_back(MakeMessage(raft::CommitNotify{22, 23, 24, 25}));
  m.push_back(MakeMessage(raft::PullRequest{26, 27, 28}));
  m.push_back(MakeMessage(raft::PullReply{29, 30, Span(31), 40, true, rs}));
  m.push_back(MakeMessage(raft::MergePrepareReq{41, Plan(48)}));
  m.push_back(
      MakeMessage(raft::MergePrepareReply{42, 43, 1, true, false, 44, 45}));
  m.push_back(MakeMessage(raft::MergeCommitReq{46, 47, true, Plan(49)}));
  m.push_back(
      MakeMessage(raft::MergeCommitReply{48, 49, 1, false, true, 50}));
  m.push_back(MakeMessage(raft::MergeFinalize{51, 52}));
  m.push_back(MakeMessage(raft::ExchangeDone{53, 54}));
  m.push_back(MakeMessage(raft::SnapPullReq{55, 56, 1}));
  m.push_back(MakeMessage(raft::SnapPullReply{57, 58, 1, true, SmSnapshot()}));
  m.push_back(MakeMessage(raft::ReadIndexProbe{59, 60, 61}));
  m.push_back(MakeMessage(raft::ReadIndexAck{62, 63, 64, true}));
  std::vector<raft::ClientBody> bodies = Bodies();
  m.push_back(MakeMessage(raft::ClientRequest{65, 66, bodies[0]}));
  raft::ClientReply reply;
  reply.req_id = 67;
  reply.from = 68;
  reply.status = WrongShard("moved");
  reply.value = "val";
  reply.leader_hint = 69;
  reply.serving_range = KeyRange("i", "j");
  reply.epoch = 70;
  m.push_back(MakeMessage(std::move(reply)));
  m.push_back(MakeMessage(raft::RangeSnapReq{71, KeyRange("k", "l")}));
  m.push_back(MakeMessage(raft::RangeSnapReply{72, true, false, 73,
                                               KeyRange("k", ""),
                                               SmSnapshot()}));
  m.push_back(MakeMessage(raft::BootstrapReq{74, 75, Config(), SmSnapshot()}));
  m.push_back(MakeMessage(raft::BootstrapAck{76, 77}));
  m.push_back(MakeMessage(Naming(78)));
  m.push_back(MakeMessage(raft::NamingLookupReq{79}));
  m.push_back(
      MakeMessage(raft::NamingLookupReply{{Naming(80), Naming(81)}}));
  for (size_t i = 1; i < bodies.size(); ++i) {
    m.push_back(MakeMessage(raft::ClientRequest{82 + i, 90, bodies[i]}));
  }
  return m;
}

inline storage::ExchangeMeta ExchangeMeta() {
  storage::ExchangeMeta meta;
  meta.pending_plan = Plan(50);
  storage::ExchangeGcImage gc;
  gc.tx = 51;
  gc.resumed = {1, 2};
  gc.targets = {3};
  gc.done = {4, 5, 6};
  gc.self_done = true;
  meta.gc.push_back(gc);
  gc.tx = 52;
  gc.self_done = false;
  meta.gc.push_back(gc);
  return meta;
}

/// Writes one WAL record of every type: hard state, appends, a truncation,
/// a snapshot install, a compaction and a reset.
inline void WriteEveryRecord(storage::WalStorage& wal) {
  wal.PersistHardState(storage::HardState{0x0000000300000005ull, 2, 4});
  for (const auto& e : Entries(1)) wal.OnLogAppend(e);
  wal.OnLogTruncateFrom(9);
  raft::RaftSnapshot snap = RaftSnap();
  snap.last_index = 4;
  snap.last_term = Entries(1)[3].term;
  wal.InstallSnapshot(std::make_shared<const raft::RaftSnapshot>(snap));
  wal.OnLogCompactTo(4, snap.last_term);
  wal.OnLogReset(4, snap.last_term);
  for (const auto& e : Entries(5)) wal.OnLogAppend(e);
  wal.PersistHardState(storage::HardState{0x0000000500000001ull, 3, 13});
}

/// Compacts enough of a WAL opened with rewrite_slack_bytes = 1 that it is
/// rewritten once: the file then holds exactly one checkpoint.
inline void WriteCheckpoint(storage::WalStorage& wal) {
  wal.PersistHardState(storage::HardState{0x0000000300000005ull, 2, 4});
  for (const auto& e : Entries(1)) wal.OnLogAppend(e);
  raft::RaftSnapshot snap = RaftSnap();
  snap.last_index = 9;
  snap.last_term = Entries(1)[8].term;
  wal.InstallSnapshot(std::make_shared<const raft::RaftSnapshot>(snap));
  wal.OnLogCompactTo(9, snap.last_term);
}

}  // namespace recraft::corpus
