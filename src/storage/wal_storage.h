// Write-ahead-log storage backend over a Disk (SimDisk in simulated
// worlds, FileDisk under recraftd).
//
// Layout on the disk:
//   "wal"             append-only record stream (framing below)
//   "snap-<gen>"      consensus snapshot blobs, atomic, monotone generation
//   "seal-<tx>-<src>" sealed merge-exchange state-machine snapshots, atomic
//   "exmeta"          exchange runtime metadata, atomic
//
// WAL record framing: [u32 len][u32 crc32(payload)][payload], where the
// payload is a pinned one-byte record tag and the record's field list
// (wal_storage.cpp). The checkpoint is the same records; the exmeta and
// snapshot blobs are bare field lists (storage/codec.h). Replay walks the
// stream and stops at the first truncated or CRC-failing record — a torn
// tail write is detected and discarded, never replayed as garbage. Because
// group commit preserves write order and a crash loses only a suffix of the
// unflushed bytes, the surviving prefix is always a consistent history.
//
// Group commit: mutations append records to the disk's pending region and
// arm a flush timer on the net::Clock (flush_interval); when it fires, one
// fsync makes every batched record durable and the node is poked
// through the durable callback (acks and commit-quorum votes are gated on
// DurableIndex, see storage.h). flush_interval == 0 disables batching:
// every record is written and fsynced on its own, inside the mutation that
// appended it. Term/vote changes and every blob write flush synchronously
// regardless — a node must never forget a vote.
//
// The WAL file is checkpoint-rewritten (atomically) when compaction has
// left more dead bytes than live state, so it cannot grow without bound.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/codec.h"
#include "net/clock.h"
#include "obs/trace.h"
#include "storage/disk.h"
#include "storage/storage.h"

namespace recraft::storage {

/// Deterministic crash points for fault injection. All of them model what a
/// real disk can do to writes that were *in flight* (never acknowledged) at
/// the moment of the crash.
enum class CrashPoint : uint8_t {
  /// Pending (unflushed) bytes are lost cleanly at a batch boundary.
  kLosePending = 0,
  /// The tail record of the in-flight batch reaches the platter half-way:
  /// recovery must detect the torn record (CRC) and discard it.
  kTornTail,
  /// A whole-record prefix of the in-flight batch survives, the rest is
  /// lost: recovery accepts exactly the surviving records.
  kPartialBatch,
  /// The snapshot blob is durable but the WAL marker tying the log to it is
  /// lost (crash between snapshot install and log truncation): recovery
  /// must fall back to the previous snapshot + the longer log.
  kSnapLogDivergence,
};

struct CrashSpec {
  CrashPoint point = CrashPoint::kLosePending;
};

class WalStorage final : public Storage {
 public:
  struct Options {
    /// Group-commit window. 0 = no batching: one write plus one fsync per
    /// record, inside the mutation that appended it.
    Duration flush_interval = 0;
    /// Rewrite the WAL once its file is this much larger than the live
    /// state it encodes (dead records from compacted/overwritten history).
    size_t rewrite_slack_bytes = 256 * 1024;
  };

  struct Stats {
    // Write side.
    uint64_t records = 0;          // WAL records appended
    uint64_t entry_records = 0;    // of which log-entry appends
    uint64_t sync_flushes = 0;     // synchronous barriers (votes, blobs)
    uint64_t batch_flushes = 0;    // group-commit timer flushes
    uint64_t snapshots_written = 0;
    uint64_t wal_rewrites = 0;
    // Recovery side (filled by Load()).
    uint64_t replayed_records = 0;
    uint64_t replayed_entries = 0;
    uint64_t dropped_tail_bytes = 0;  // bytes after the first bad record
    bool tore_tail = false;           // trailing garbage was detected
    bool snapshot_fallback = false;   // newest snapshot gen was unusable
  };

  WalStorage(std::shared_ptr<Disk> disk, net::Clock* clock)
      : WalStorage(std::move(disk), clock, Options()) {}
  WalStorage(std::shared_ptr<Disk> disk, net::Clock* clock, Options opts);
  ~WalStorage() override;

  WalStorage(const WalStorage&) = delete;
  WalStorage& operator=(const WalStorage&) = delete;

  // LogSink. Appends encode the WAL record from the log's slab slot and
  // mirror it into the model by reference — one durable framing, no deep
  // copy into the mirror.
  void OnLogAppend(const raft::EntryRef& e) override;
  void OnLogTruncateFrom(Index i) override;
  void OnLogCompactTo(Index i, uint64_t term) override;
  void OnLogReset(Index base, uint64_t term) override;

  void PersistHardState(const HardState& hs) override;
  void InstallSnapshot(const raft::RaftSnapshotPtr& snap) override;
  void PersistSealed(TxId tx, int source,
                     const sm::SnapshotPtr& snap) override;
  void PruneSealed(TxId tx) override;
  void PersistExchangeMeta(const ExchangeMeta& meta) override;
  void WipeAll() override;
  Result<BootImage> Load() override;
  Index DurableIndex() const override;
  void Sync() override;

  /// Apply a crash: discard or mangle not-yet-durable writes per the spec.
  /// The instance is dead afterwards; recovery opens a fresh one over the
  /// same medium. Injection needs a SimDisk; over any other Disk this only
  /// cancels the flush timer.
  void Crash(const CrashSpec& spec);

  const Stats& stats() const { return stats_; }
  const Disk& disk() const { return *disk_; }
  size_t wal_file_bytes() const;

  /// Arm the flight recorder for flush instants; `owner` labels the records
  /// with the node this WAL belongs to. Pure observation — does not change
  /// flush scheduling or the durable byte stream.
  void SetRecorder(obs::Recorder* rec, NodeId owner) {
    recorder_ = rec;
    recorder_node_ = owner;
  }

 private:
  // In-memory mirror of the durable logical state, maintained so the WAL
  // can be checkpoint-rewritten compactly and DurableIndex tracked.
  struct Model {
    HardState hard;
    uint32_t snap_gen = 0;  // 0 = no snapshot
    Index snap_index = 0;
    uint64_t snap_term = 0;
    Index base_index = 0;
    uint64_t base_term = 0;
    raft::EntryList entries;  // shares the log's slabs on the append path
    Index last_index() const { return base_index + entries.size(); }
  };

  static std::string SnapFile(uint32_t gen);
  static std::string SealFile(TxId tx, int source);

  /// Appends one framed record (PutRecord in the .cpp), then flushes or
  /// arms the group-commit timer.
  void AppendRecord(const Encoder& record, bool force_sync);
  void ArmFlush();
  /// Flush-timer body: honors the disk's injected fsync stall (re-poll
  /// until it clears) and latency spike (defer this batch once), so gray
  /// disk behavior flows through the event schedule, never wall clock.
  void OnFlushTimer();
  Duration StallPollInterval() const;
  void FlushNow(bool from_timer);
  void MaybeRewriteWal();
  std::vector<uint8_t> EncodeCheckpoint() const;
  /// Replay the durable WAL bytes into `model`; updates recovery stats.
  void ReplayWal(const std::vector<uint8_t>& bytes, Model* model);

  std::shared_ptr<Disk> disk_;
  net::Clock* clock_;  // may be null (unit tests drive Sync())
  Options opts_;
  Model model_;
  Index durable_index_ = 0;
  uint64_t pending_records_ = 0;
  /// Byte offsets (within the total wal stream) where each pending record
  /// starts — the crash injector cuts at or inside these.
  std::vector<size_t> pending_record_offsets_;
  size_t wal_len_ = 0;  // durable + pending bytes
  size_t last_snap_record_off_ = 0;
  net::TimerId flush_event_ = net::kNoTimer;
  bool flush_deferred_ = false;  // latency spike applied to this batch
  obs::Recorder* recorder_ = nullptr;
  NodeId recorder_node_ = 0;
  Stats stats_;
};

}  // namespace recraft::storage
