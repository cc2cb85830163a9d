#include "storage/codec.h"

namespace recraft::storage {

namespace {

// Propagate a Decoder failure out of the enclosing Decode function.
#define RECRAFT_DEC(var, expr)              \
  auto var##_res = (expr);                  \
  if (!var##_res.ok()) return var##_res.status(); \
  auto& var = *var##_res

// Slicing-by-8 tables (Kounavis & Berry, ISCC '05) for the reflected
// 0xEDB88320 polynomial. t[0] is the classic byte-at-a-time table; t[k][b]
// is the CRC of byte b followed by k zero bytes, so eight lookups fold
// eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256];
  constexpr Crc32Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
      }
    }
  }
};
constexpr Crc32Tables kCrc{};

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

// Payload variant tags — part of the durable format; append-only.
enum PayloadTag : uint8_t {
  kTagNoOp = 0,
  kTagCommand = 1,
  kTagConfInit = 2,
  kTagSplitJoint = 3,
  kTagSplitNew = 4,
  kTagMember = 5,
  kTagMergeTx = 6,
  kTagMergeOutcome = 7,
  kTagSetRange = 8,
  kTagAbortSettled = 9,
};

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t n) {
  const auto& t = kCrc.t;
  uint32_t c = 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    const uint32_t lo = c ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++data, --n) {
    c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void EncodeKeyRange(Encoder& enc, const KeyRange& r) {
  enc.PutString(r.lo());
  enc.PutString(r.hi());
  enc.PutBool(r.hi_is_inf());
}

Result<KeyRange> DecodeKeyRange(Decoder& dec) {
  RECRAFT_DEC(lo, dec.GetString());
  RECRAFT_DEC(hi, dec.GetString());
  RECRAFT_DEC(inf, dec.GetBool());
  if (inf) return KeyRange(lo, "");
  if (hi.empty()) return Internal("codec: finite range with empty hi");
  return KeyRange(lo, hi);
}

void EncodeNodeVec(Encoder& enc, const std::vector<NodeId>& v) {
  enc.PutU32(static_cast<uint32_t>(v.size()));
  for (NodeId n : v) enc.PutU32(n);
}

Result<std::vector<NodeId>> DecodeNodeVec(Decoder& dec) {
  RECRAFT_DEC(n, dec.GetU32());
  std::vector<NodeId> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    RECRAFT_DEC(id, dec.GetU32());
    out.push_back(id);
  }
  return out;
}

void EncodeSubCluster(Encoder& enc, const raft::SubCluster& s) {
  EncodeNodeVec(enc, s.members);
  EncodeKeyRange(enc, s.range);
  enc.PutU64(s.uid);
}

Result<raft::SubCluster> DecodeSubCluster(Decoder& dec) {
  raft::SubCluster out;
  RECRAFT_DEC(members, DecodeNodeVec(dec));
  out.members = std::move(members);
  RECRAFT_DEC(range, DecodeKeyRange(dec));
  out.range = std::move(range);
  RECRAFT_DEC(uid, dec.GetU64());
  out.uid = uid;
  return out;
}

void EncodeSplitPlan(Encoder& enc, const raft::SplitPlan& p) {
  enc.PutU32(static_cast<uint32_t>(p.subs.size()));
  for (const auto& s : p.subs) EncodeSubCluster(enc, s);
}

Result<raft::SplitPlan> DecodeSplitPlan(Decoder& dec) {
  raft::SplitPlan out;
  RECRAFT_DEC(n, dec.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    RECRAFT_DEC(s, DecodeSubCluster(dec));
    out.subs.push_back(std::move(s));
  }
  return out;
}

void EncodeMergePlan(Encoder& enc, const raft::MergePlan& p) {
  enc.PutU64(p.tx);
  enc.PutU32(static_cast<uint32_t>(p.sources.size()));
  for (const auto& s : p.sources) EncodeSubCluster(enc, s);
  enc.PutU32(static_cast<uint32_t>(p.coordinator));
  enc.PutU32(p.new_epoch);
  enc.PutU64(p.new_uid);
  EncodeKeyRange(enc, p.new_range);
  EncodeNodeVec(enc, p.resume_members);
}

Result<raft::MergePlan> DecodeMergePlan(Decoder& dec) {
  raft::MergePlan out;
  RECRAFT_DEC(tx, dec.GetU64());
  out.tx = tx;
  RECRAFT_DEC(n, dec.GetU32());
  for (uint32_t i = 0; i < n; ++i) {
    RECRAFT_DEC(s, DecodeSubCluster(dec));
    out.sources.push_back(std::move(s));
  }
  RECRAFT_DEC(coord, dec.GetU32());
  out.coordinator = static_cast<int>(coord);
  RECRAFT_DEC(epoch, dec.GetU32());
  out.new_epoch = epoch;
  RECRAFT_DEC(uid, dec.GetU64());
  out.new_uid = uid;
  RECRAFT_DEC(range, DecodeKeyRange(dec));
  out.new_range = std::move(range);
  RECRAFT_DEC(resume, DecodeNodeVec(dec));
  out.resume_members = std::move(resume);
  return out;
}

void EncodeMemberChange(Encoder& enc, const raft::MemberChange& mc) {
  enc.PutU8(static_cast<uint8_t>(mc.kind));
  EncodeNodeVec(enc, mc.nodes);
}

Result<raft::MemberChange> DecodeMemberChange(Decoder& dec) {
  raft::MemberChange out;
  RECRAFT_DEC(kind, dec.GetU8());
  if (kind > static_cast<uint8_t>(raft::MemberChangeKind::kJointLeave)) {
    return Internal("codec: bad MemberChangeKind");
  }
  out.kind = static_cast<raft::MemberChangeKind>(kind);
  RECRAFT_DEC(nodes, DecodeNodeVec(dec));
  out.nodes = std::move(nodes);
  return out;
}

void EncodeConfigState(Encoder& enc, const raft::ConfigState& c) {
  enc.PutU8(static_cast<uint8_t>(c.mode));
  EncodeNodeVec(enc, c.members);
  enc.PutU64(c.fixed_quorum);
  EncodeKeyRange(enc, c.range);
  enc.PutU64(c.uid);
  EncodeSplitPlan(enc, c.split);
  enc.PutU64(c.joint_index);
  enc.PutU64(c.cnew_index);
  enc.PutBool(c.vanilla_joint);
  EncodeNodeVec(enc, c.jc_old);
  enc.PutBool(c.merge_tx.has_value());
  if (c.merge_tx) EncodeMergePlan(enc, *c.merge_tx);
  enc.PutU64(c.merge_tx_index);
  enc.PutBool(c.merge_decision_ok);
  enc.PutU64(c.merge_outcome_index);
  enc.PutBool(c.merge_outcome_commit);
  enc.PutBool(c.merge_outcome_plan.has_value());
  if (c.merge_outcome_plan) EncodeMergePlan(enc, *c.merge_outcome_plan);
}

Result<raft::ConfigState> DecodeConfigState(Decoder& dec) {
  raft::ConfigState out;
  RECRAFT_DEC(mode, dec.GetU8());
  if (mode > static_cast<uint8_t>(raft::ConfigMode::kSplitLeaving)) {
    return Internal("codec: bad ConfigMode");
  }
  out.mode = static_cast<raft::ConfigMode>(mode);
  RECRAFT_DEC(members, DecodeNodeVec(dec));
  out.members = std::move(members);
  RECRAFT_DEC(fixed, dec.GetU64());
  out.fixed_quorum = static_cast<size_t>(fixed);
  RECRAFT_DEC(range, DecodeKeyRange(dec));
  out.range = std::move(range);
  RECRAFT_DEC(uid, dec.GetU64());
  out.uid = uid;
  RECRAFT_DEC(split, DecodeSplitPlan(dec));
  out.split = std::move(split);
  RECRAFT_DEC(joint_index, dec.GetU64());
  out.joint_index = joint_index;
  RECRAFT_DEC(cnew_index, dec.GetU64());
  out.cnew_index = cnew_index;
  RECRAFT_DEC(vjoint, dec.GetBool());
  out.vanilla_joint = vjoint;
  RECRAFT_DEC(jc_old, DecodeNodeVec(dec));
  out.jc_old = std::move(jc_old);
  RECRAFT_DEC(has_tx, dec.GetBool());
  if (has_tx) {
    RECRAFT_DEC(tx, DecodeMergePlan(dec));
    out.merge_tx = std::move(tx);
  }
  RECRAFT_DEC(tx_index, dec.GetU64());
  out.merge_tx_index = tx_index;
  RECRAFT_DEC(decision, dec.GetBool());
  out.merge_decision_ok = decision;
  RECRAFT_DEC(oc_index, dec.GetU64());
  out.merge_outcome_index = oc_index;
  RECRAFT_DEC(oc_commit, dec.GetBool());
  out.merge_outcome_commit = oc_commit;
  RECRAFT_DEC(has_oc, dec.GetBool());
  if (has_oc) {
    RECRAFT_DEC(oc, DecodeMergePlan(dec));
    out.merge_outcome_plan = std::move(oc);
  }
  return out;
}

void EncodeReconfigRecord(Encoder& enc, const raft::ReconfigRecord& r) {
  enc.PutU8(static_cast<uint8_t>(r.kind));
  enc.PutU32(r.epoch);
  enc.PutU64(r.uid);
  EncodeNodeVec(enc, r.members);
  EncodeKeyRange(enc, r.range);
  enc.PutU64(r.boundary_index);
}

Result<raft::ReconfigRecord> DecodeReconfigRecord(Decoder& dec) {
  raft::ReconfigRecord out;
  RECRAFT_DEC(kind, dec.GetU8());
  if (kind > static_cast<uint8_t>(raft::ReconfigRecord::Kind::kMember)) {
    return Internal("codec: bad ReconfigRecord kind");
  }
  out.kind = static_cast<raft::ReconfigRecord::Kind>(kind);
  RECRAFT_DEC(epoch, dec.GetU32());
  out.epoch = epoch;
  RECRAFT_DEC(uid, dec.GetU64());
  out.uid = uid;
  RECRAFT_DEC(members, DecodeNodeVec(dec));
  out.members = std::move(members);
  RECRAFT_DEC(range, DecodeKeyRange(dec));
  out.range = std::move(range);
  RECRAFT_DEC(boundary, dec.GetU64());
  out.boundary_index = boundary;
  return out;
}

void EncodeSmSnapshot(Encoder& enc, const sm::Snapshot& s) {
  // The machine's own serialized image, embedded as one length-prefixed
  // blob, plus the range/metrics wrapper the consensus layer needs.
  EncodeKeyRange(enc, s.range);
  enc.PutBytes(s.data);
  enc.PutU64(s.items);
  enc.PutU64(s.wire_bytes);
}

Result<sm::Snapshot> DecodeSmSnapshot(Decoder& dec) {
  sm::Snapshot out;
  RECRAFT_DEC(range, DecodeKeyRange(dec));
  out.range = std::move(range);
  RECRAFT_DEC(data, dec.GetBytes());
  out.data = std::move(data);
  RECRAFT_DEC(items, dec.GetU64());
  out.items = items;
  RECRAFT_DEC(wire, dec.GetU64());
  out.wire_bytes = static_cast<size_t>(wire);
  return out;
}

void EncodeLogEntry(Encoder& enc, const raft::LogEntry& e) {
  enc.PutU64(e.index);
  enc.PutU64(e.term);
  std::visit(
      [&enc](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, raft::NoOp>) {
          enc.PutU8(kTagNoOp);
        } else if constexpr (std::is_same_v<T, sm::Command>) {
          enc.PutU8(kTagCommand);
          enc.PutString(body.key);
          enc.PutBytes(body.body);
          enc.PutU32(body.wire_hint);
        } else if constexpr (std::is_same_v<T, raft::ConfInit>) {
          enc.PutU8(kTagConfInit);
          EncodeNodeVec(enc, body.members);
          EncodeKeyRange(enc, body.range);
          enc.PutU64(body.uid);
        } else if constexpr (std::is_same_v<T, raft::ConfSplitJoint>) {
          enc.PutU8(kTagSplitJoint);
          EncodeSplitPlan(enc, body.plan);
        } else if constexpr (std::is_same_v<T, raft::ConfSplitNew>) {
          enc.PutU8(kTagSplitNew);
          EncodeSplitPlan(enc, body.plan);
        } else if constexpr (std::is_same_v<T, raft::ConfMember>) {
          enc.PutU8(kTagMember);
          EncodeMemberChange(enc, body.change);
        } else if constexpr (std::is_same_v<T, raft::ConfMergeTx>) {
          enc.PutU8(kTagMergeTx);
          EncodeMergePlan(enc, body.plan);
          enc.PutBool(body.decision_ok);
        } else if constexpr (std::is_same_v<T, raft::ConfMergeOutcome>) {
          enc.PutU8(kTagMergeOutcome);
          EncodeMergePlan(enc, body.plan);
          enc.PutBool(body.commit);
        } else if constexpr (std::is_same_v<T, raft::ConfSetRange>) {
          enc.PutU8(kTagSetRange);
          EncodeKeyRange(enc, body.range);
          enc.PutBool(body.absorb != nullptr);
          if (body.absorb) EncodeSmSnapshot(enc, *body.absorb);
        } else if constexpr (std::is_same_v<T, raft::ConfAbortSettled>) {
          enc.PutU8(kTagAbortSettled);
          enc.PutU64(body.tx);
        }
      },
      e.payload);
}

Result<raft::LogEntry> DecodeLogEntry(Decoder& dec) {
  raft::LogEntry out;
  RECRAFT_DEC(index, dec.GetU64());
  out.index = index;
  RECRAFT_DEC(term, dec.GetU64());
  out.term = term;
  RECRAFT_DEC(tag, dec.GetU8());
  switch (tag) {
    case kTagNoOp:
      out.payload = raft::NoOp{};
      break;
    case kTagCommand: {
      sm::Command cmd;
      RECRAFT_DEC(key, dec.GetString());
      cmd.key = std::move(key);
      RECRAFT_DEC(body, dec.GetBytes());
      cmd.body = std::move(body);
      RECRAFT_DEC(hint, dec.GetU32());
      cmd.wire_hint = hint;
      out.payload = std::move(cmd);
      break;
    }
    case kTagConfInit: {
      raft::ConfInit init;
      RECRAFT_DEC(members, DecodeNodeVec(dec));
      init.members = std::move(members);
      RECRAFT_DEC(range, DecodeKeyRange(dec));
      init.range = std::move(range);
      RECRAFT_DEC(uid, dec.GetU64());
      init.uid = uid;
      out.payload = std::move(init);
      break;
    }
    case kTagSplitJoint: {
      RECRAFT_DEC(plan, DecodeSplitPlan(dec));
      out.payload = raft::ConfSplitJoint{std::move(plan)};
      break;
    }
    case kTagSplitNew: {
      RECRAFT_DEC(plan, DecodeSplitPlan(dec));
      out.payload = raft::ConfSplitNew{std::move(plan)};
      break;
    }
    case kTagMember: {
      RECRAFT_DEC(mc, DecodeMemberChange(dec));
      out.payload = raft::ConfMember{std::move(mc)};
      break;
    }
    case kTagMergeTx: {
      RECRAFT_DEC(plan, DecodeMergePlan(dec));
      RECRAFT_DEC(ok, dec.GetBool());
      out.payload = raft::ConfMergeTx{std::move(plan), ok};
      break;
    }
    case kTagMergeOutcome: {
      RECRAFT_DEC(plan, DecodeMergePlan(dec));
      RECRAFT_DEC(commit, dec.GetBool());
      out.payload = raft::ConfMergeOutcome{std::move(plan), commit};
      break;
    }
    case kTagSetRange: {
      raft::ConfSetRange sr;
      RECRAFT_DEC(range, DecodeKeyRange(dec));
      sr.range = std::move(range);
      RECRAFT_DEC(has_absorb, dec.GetBool());
      if (has_absorb) {
        RECRAFT_DEC(snap, DecodeSmSnapshot(dec));
        sr.absorb = std::make_shared<const sm::Snapshot>(std::move(snap));
      }
      out.payload = std::move(sr);
      break;
    }
    case kTagAbortSettled: {
      RECRAFT_DEC(tx, dec.GetU64());
      out.payload = raft::ConfAbortSettled{tx};
      break;
    }
    default:
      return Internal("codec: unknown payload tag");
  }
  return out;
}

void EncodeRaftSnapshot(Encoder& enc, const raft::RaftSnapshot& s) {
  enc.PutU64(s.last_index);
  enc.PutU64(s.last_term);
  enc.PutBool(s.state != nullptr);
  if (s.state) EncodeSmSnapshot(enc, *s.state);
  EncodeConfigState(enc, s.config);
  enc.PutU32(static_cast<uint32_t>(s.history.size()));
  for (const auto& rec : s.history) EncodeReconfigRecord(enc, rec);
  enc.PutU32(static_cast<uint32_t>(s.unsettled_aborts.size()));
  for (const auto& [tx, plan] : s.unsettled_aborts) {
    enc.PutU64(tx);
    EncodeMergePlan(enc, plan);
  }
}

Result<raft::RaftSnapshot> DecodeRaftSnapshot(Decoder& dec) {
  raft::RaftSnapshot out;
  RECRAFT_DEC(last_index, dec.GetU64());
  out.last_index = last_index;
  RECRAFT_DEC(last_term, dec.GetU64());
  out.last_term = last_term;
  RECRAFT_DEC(has_state, dec.GetBool());
  if (has_state) {
    RECRAFT_DEC(snap, DecodeSmSnapshot(dec));
    out.state = std::make_shared<const sm::Snapshot>(std::move(snap));
  }
  RECRAFT_DEC(config, DecodeConfigState(dec));
  out.config = std::move(config);
  RECRAFT_DEC(nh, dec.GetU32());
  for (uint32_t i = 0; i < nh; ++i) {
    RECRAFT_DEC(rec, DecodeReconfigRecord(dec));
    out.history.push_back(std::move(rec));
  }
  RECRAFT_DEC(na, dec.GetU32());
  for (uint32_t i = 0; i < na; ++i) {
    RECRAFT_DEC(tx, dec.GetU64());
    RECRAFT_DEC(plan, DecodeMergePlan(dec));
    out.unsettled_aborts.emplace(tx, std::move(plan));
  }
  return out;
}

#undef RECRAFT_DEC

}  // namespace recraft::storage
