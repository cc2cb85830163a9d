#include "common/codec.h"

namespace recraft {

Result<uint8_t> Decoder::GetU8() {
  const uint8_t* p = Take(1);
  if (p == nullptr) return Internal("codec: truncated buffer");
  return *p;
}

Result<uint32_t> Decoder::GetU32() {
  const uint8_t* p = Take(4);
  if (p == nullptr) return Internal("codec: truncated buffer");
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  const uint8_t* p = Take(8);
  if (p == nullptr) return Internal("codec: truncated buffer");
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

Result<bool> Decoder::GetBool() {
  auto v = GetU8();
  if (!v.ok()) return v.status();
  return *v != 0;
}

Result<std::string> Decoder::GetString() {
  auto n = GetU32();
  if (!n.ok()) return n.status();
  const uint8_t* p = Take(*n);
  if (p == nullptr) return Internal("codec: truncated buffer");
  return std::string(reinterpret_cast<const char*>(p), *n);
}

const char* CodeName(Code c) {
  switch (c) {
    case Code::kOk: return "OK";
    case Code::kNotLeader: return "NOT_LEADER";
    case Code::kNotFound: return "NOT_FOUND";
    case Code::kRejected: return "REJECTED";
    case Code::kBusy: return "BUSY";
    case Code::kTimeout: return "TIMEOUT";
    case Code::kUnavailable: return "UNAVAILABLE";
    case Code::kConflict: return "CONFLICT";
    case Code::kOutOfRange: return "OUT_OF_RANGE";
    case Code::kInternal: return "INTERNAL";
    case Code::kWrongShard: return "WRONG_SHARD";
  }
  return "UNKNOWN";
}

std::string Status::ToString() const {
  std::string s = CodeName(code_);
  if (!msg_.empty()) {
    s += ": ";
    s += msg_;
  }
  return s;
}

}  // namespace recraft
