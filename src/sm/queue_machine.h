// A deliberately non-KV state machine: ordered per-topic event queues with
// destructive dequeues. Topics are the key-space coordinate (so splits,
// merges and routing work unchanged); each topic holds a FIFO of opaque
// event payloads. Dequeue is NOT idempotent — exactly-once application
// under client retries (sessions) and strict apply-order are load-bearing,
// which is precisely what makes this machine a good witness that the
// consensus core is state-machine-generic: any kv:: assumption left in the
// core, log, codec or harness breaks its integration tests.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "sm/state_machine.h"

namespace recraft::sm {

/// Queue command opcodes (first byte of the body after the format tag).
enum class QueueOp : uint8_t {
  kEnqueue = 0,  // append payload to the topic's queue
  kDequeue = 1,  // pop the topic's head (result payload = the event)
  kPeek = 2,     // read-only: the head without popping
  kLen = 3,      // read-only: decimal queue length
};

/// Format tag leading every queue command body.
inline constexpr uint8_t kQueueCommandFormat = 0x51;  // 'Q'

struct QueueRequest {
  QueueOp op = QueueOp::kEnqueue;
  std::string topic;
  std::string payload;     // enqueue only
  uint64_t client_id = 0;  // 0 = no session
  uint64_t seq = 0;
};

Command EncodeQueueRequest(const QueueRequest& req);
Result<QueueRequest> DecodeQueueRequest(const Command& cmd);
inline bool IsReadOnly(QueueOp op) {
  return op == QueueOp::kPeek || op == QueueOp::kLen;
}

class QueueMachine final : public StateMachine {
 public:
  explicit QueueMachine(KeyRange range) : range_(std::move(range)) {}

  const char* Name() const override { return "queue"; }

  CmdResult Apply(const Command& cmd) override;
  CmdResult Query(const Command& query) const override;

  const KeyRange& range() const override { return range_; }
  /// Total queued events across topics (drives split thresholds).
  size_t Size() const override { return total_events_; }
  size_t ApproxBytes() const override { return approx_bytes_; }
  Result<std::string> SplitHint(double fraction) const override;

  SnapshotPtr TakeSnapshot() const override;
  Result<SnapshotPtr> TakeSnapshot(const KeyRange& sub) const override;
  Status Restore(const Snapshot& snap) override;
  void Reset(const KeyRange& range) override;
  Status Rebase(const KeyRange& range) override;
  Status RestrictRange(const KeyRange& sub) override;
  Status MergeIn(const Snapshot& snap) override;

  // Test probes.
  size_t TopicDepth(const std::string& topic) const {
    auto it = topics_.find(topic);
    return it == topics_.end() ? 0 : it->second.size();
  }

 private:
  struct Session {
    uint64_t last_seq = 0;
    CmdResult last_result;
  };

  CmdResult Execute(const QueueRequest& req);
  void Prune(const KeyRange& keep);

  KeyRange range_;
  std::map<std::string, std::deque<std::string>> topics_;
  std::map<uint64_t, Session> sessions_;
  size_t total_events_ = 0;
  size_t approx_bytes_ = 0;
};

MachineFactory QueueMachineFactory();

}  // namespace recraft::sm
