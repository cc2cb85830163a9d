// Wire format for raft::Message over a real transport. The simulator never
// serializes (payloads travel as shared pointers); UdpTransport does. The
// message and client-body field lists and their pinned, append-only tags
// live in wire.cpp; the fields they share with the WAL (log entries, plans,
// configurations, snapshots) ride the storage/codec.h field lists — one
// binary dialect for disk and wire.
//
// DecodeMessage treats truncation, unknown tags and counts larger than the
// datagram as errors, never UB or an exception: a datagram that passed the
// reliable link's framing can still be from a different build or hostile.
// Decoded AppendEntries/PullReply spans are rebuilt into a fresh EntrySlab.
#pragma once

#include "common/codec.h"
#include "common/status.h"
#include "raft/messages.h"

namespace recraft::net {

/// Serialize `m` (tag + fields). Appends to `enc`.
void EncodeMessage(Encoder& enc, const raft::Message& m);

/// Parse one message. Consumes exactly the bytes EncodeMessage produced.
Result<raft::MessagePtr> DecodeMessage(Decoder& dec);

}  // namespace recraft::net
