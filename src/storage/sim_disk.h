// A deterministic simulated disk for the persistence subsystem. Holds named
// byte files with a durable region and a pending (written-but-not-fsynced)
// region; Flush() moves pending bytes to the durable region and counts the
// barrier in Stats. Crashing discards pending bytes — optionally keeping a
// prefix, which is how torn tail records and partially flushed batches are
// injected (a real crash can land mid-way through the sector writes of an
// fsync that never returned). The disk models no I/O time of its own: the
// only latency it injects is the nemesis-armed fsync delay, which the
// owning WalStorage applies to its group commit.
//
// Determinism: the disk draws no randomness and schedules no events; all
// timing flows through the owning WalStorage's use of the EventQueue, so a
// run remains a pure function of its seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "storage/disk.h"

namespace recraft::storage {

class SimDisk final : public Disk {
 public:
  /// Append bytes to a file's pending region (not durable until Flush).
  void Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;

  /// Make a file's pending bytes durable (fsync).
  void Flush(const std::string& file) override;

  /// Atomically replace a file's contents, durable immediately (models
  /// write-temp + fsync + rename). Old content survives a crash up to the
  /// moment of the rename; the replacement is all-or-nothing.
  void WriteAtomic(const std::string& file,
                   std::vector<uint8_t> bytes) override;

  void Delete(const std::string& file) override;
  bool Exists(const std::string& file) const override;
  /// Durable contents (pending bytes are invisible to readers — recovery
  /// only ever sees what survived the crash).
  std::vector<uint8_t> ReadDurable(const std::string& file) const override;
  std::vector<std::string> List(const std::string& prefix) const override;
  /// Sizes of a file's two regions (tests, benches, crash injection).
  size_t DurableSize(const std::string& file) const;
  size_t PendingSize(const std::string& file) const;

  // --- latency injection (nemesis hooks) ----------------------------------
  /// Add `extra` microseconds to every fsync completion (a disk-latency
  /// spike: a shared SSD hiccup, a rebuilding RAID). The owning WalStorage
  /// defers each group commit by this amount. 0 restores normal latency.
  void SetExtraFsyncLatency(Duration extra) { extra_fsync_latency_ = extra; }
  Duration extra_fsync_latency() const override {
    return extra_fsync_latency_;
  }
  /// Stall fsyncs entirely (the classic gray failure: writes buffer but
  /// never reach the platter). While stalled the owning WalStorage keeps
  /// batching pending records and re-arming its flush timer; durability —
  /// and everything gated on it (acks, the leader's own commit vote) —
  /// waits until the stall clears.
  void SetFsyncStalled(bool stalled) { fsync_stalled_ = stalled; }
  bool fsync_stalled() const override { return fsync_stalled_; }

  // --- crash injection ----------------------------------------------------
  /// Crash: every file loses its pending region.
  void CrashAll();
  /// Crash, but `keep_pending_bytes` of `file`'s pending prefix reached the
  /// platter first (torn/partial write injection). Other files lose all
  /// pending bytes.
  void CrashKeepingPrefix(const std::string& file, size_t keep_pending_bytes);
  /// Truncate durable contents to `len` bytes. Doubles as an injection
  /// helper (simulates the tail sectors of the last acknowledged write
  /// being lost or torn — the snapshot/log divergence and torn-tail crash
  /// points) and as recovery's torn-tail cut.
  void TruncateDurable(const std::string& file, size_t len) override;
  /// Injection helper: flip one durable byte (checksum-detectable rot).
  void CorruptDurable(const std::string& file, size_t offset);

  const Stats& stats() const override { return stats_; }
  size_t file_count() const { return files_.size(); }

 private:
  struct File {
    std::vector<uint8_t> durable;
    std::vector<uint8_t> pending;
  };

  std::map<std::string, File> files_;
  Stats stats_;
  Duration extra_fsync_latency_ = 0;
  bool fsync_stalled_ = false;
};

}  // namespace recraft::storage
