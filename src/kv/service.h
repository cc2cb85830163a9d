// The typed client-facing service surface of the KV state machine, and the
// codec that maps it onto the opaque sm::Command / result-payload boundary.
//
// Request side: kv::Command (kv.h) is the typed request — Put / Get /
// Delete / CAS / Scan. EncodeCommand turns it into an sm::Command whose
// `key` is the routing coordinate and whose `body` only the KV machine
// decodes; wire_hint pins the simulator's bandwidth accounting to the same
// sizes the pre-sm system charged, so schedules are reproducible across the
// refactor.
//
// Response side: Response carries the decoded result — a status, a value
// (gets, CAS-mismatch echoes) and the entry batch (scans). Scan batches are
// encoded into the opaque result payload by EncodeScanBatch and decoded by
// DecodeScanBatch.
//
// Read routing: IsReadOnly(op) tells the client whether the op may use the
// leader's ReadIndex path (raft::ReadRequest — quorum-confirmed, served
// from applied state, zero log entries) instead of a log append.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "kv/kv.h"
#include "sm/state_machine.h"

namespace recraft::kv {

/// Scans with scan_limit == 0 are capped here.
inline constexpr size_t kDefaultScanLimit = 64;

/// Format tag leading every KV command body, so a foreign machine's bytes
/// (or a corrupt entry) are rejected instead of misparsed.
inline constexpr uint8_t kCommandFormat = 0x4b;  // 'K'

/// True for ops that must not mutate — eligible for the ReadIndex path.
inline bool IsReadOnly(OpType op) {
  return op == OpType::kGet || op == OpType::kScan;
}

/// Typed response decoded from a ClientReply (or a raw result payload).
struct Response {
  Status status;
  std::string value;  // gets; CAS mismatch: the actual current value
  std::vector<std::pair<std::string, std::string>> entries;  // scans
};

sm::Command EncodeCommand(const Command& cmd);
Result<Command> DecodeCommand(const sm::Command& cmd);

/// A scan's (key, value) entries: a u32 count, then the pairs.
using ScanBatch = std::vector<std::pair<std::string, std::string>>;
std::string EncodeScanBatch(const ScanBatch& entries);
Result<ScanBatch> DecodeScanBatch(const std::string& payload);

/// Decode (status, opaque payload) into the typed Response for `op`.
Response DecodeResponse(OpType op, Status status, const std::string& payload);

}  // namespace recraft::kv
