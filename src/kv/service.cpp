#include "kv/service.h"

#include "common/codec.h"

namespace recraft {

template <>
inline constexpr kv::OpType kEnumMax<kv::OpType> = kv::OpType::kScan;

namespace kv {

/// The command body: a format byte, then the operation. The key travels
/// beside the body, in sm::Command::key.
template <class IO>
void Fields(IO& io, Command& c) {
  uint8_t format = kCommandFormat;
  io(format);
  if constexpr (IO::kReading) {
    if (format != kCommandFormat) {
      return io.Fail(Rejected("not a kv command body"));
    }
  }
  io(c.op, c.client_id, c.seq, c.value, c.expected, c.scan_hi, c.scan_limit);
}

sm::Command EncodeCommand(const Command& cmd) {
  sm::Command out;
  out.key = cmd.key;
  out.body = Encode(cmd);
  // Bandwidth accounting matches the pre-sm typed payloads byte-for-byte
  // (24 + key + value for the classic ops), so existing deterministic
  // schedules replay unchanged.
  out.wire_hint = static_cast<uint32_t>(cmd.WireBytes());
  return out;
}

Result<Command> DecodeCommand(const sm::Command& cmd) {
  auto out = Decode<Command>(cmd.body);
  if (out.ok()) out->key = cmd.key;
  return out;
}

std::string EncodeScanBatch(const ScanBatch& entries) {
  auto bytes = Encode(entries);
  return std::string(bytes.begin(), bytes.end());
}

Result<ScanBatch> DecodeScanBatch(const std::string& payload) {
  Decoder dec(payload);  // view, no copy: payload outlives the decode
  return Decode<ScanBatch>(dec);
}

Response DecodeResponse(OpType op, Status status, const std::string& payload) {
  Response r;
  r.status = std::move(status);
  if (op == OpType::kScan) {
    if (r.status.ok()) {
      auto batch = DecodeScanBatch(payload);
      if (batch.ok()) {
        r.entries = std::move(*batch);
      } else {
        // A corrupt/foreign batch must not read as "empty range".
        r.status = batch.status();
      }
    }
  } else {
    r.value = payload;
  }
  return r;
}

}  // namespace kv

}  // namespace recraft
