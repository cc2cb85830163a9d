// The durable-medium seam under WalStorage. A Disk holds named byte files,
// each with a durable region and a pending (written-but-not-yet-synced)
// region; Flush() is the durability barrier. The seam itself holds no
// bytes: writers hand bytes down, and only boot-time recovery reads them
// back (ReadDurable, by value). Two implementations:
//
//   * SimDisk (sim_disk.h)   — deterministic in-memory model with injectable
//     crash points, latency spikes and fsync stalls; what every simulated
//     world runs on.
//   * FileDisk (file_disk.h) — real files in a directory via
//     write/fdatasync, for the recraftd deployment mode; it keeps no copy
//     of file contents. "Crashing" a FileDisk is SIGKILLing the process,
//     which loses the page-cache pending region exactly as the model
//     prescribes.
//
// WalStorage is written against this interface only; it decides *when* to
// flush (group commit, vote barriers), the Disk decides *what that costs*.
// Crash injection stays on SimDisk — a real disk's crash is the OS's to
// deliver, not ours to fake.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace recraft::storage {

class Disk {
 public:
  struct Stats {
    uint64_t flushes = 0;           // fsync count (durability barriers)
    uint64_t flushed_bytes = 0;     // bytes made durable by flushes
    uint64_t atomic_writes = 0;     // whole-file atomic replacements
    uint64_t appended_bytes = 0;    // bytes entering the pending region
    Duration io_busy = 0;           // time spent writing (simulated or real)
    uint64_t crash_lost_bytes = 0;  // pending bytes discarded by crashes
  };

  virtual ~Disk() = default;

  /// Append bytes to a file's pending region (not durable until Flush).
  virtual void Append(const std::string& file,
                      const std::vector<uint8_t>& bytes) = 0;

  /// Make a file's pending bytes durable (fsync).
  virtual void Flush(const std::string& file) = 0;

  /// Atomically replace a file's contents, durable on return (write-temp +
  /// fsync + rename). Old content survives a crash up to the moment of the
  /// rename; the replacement is all-or-nothing.
  virtual void WriteAtomic(const std::string& file,
                           std::vector<uint8_t> bytes) = 0;

  virtual void Delete(const std::string& file) = 0;
  virtual bool Exists(const std::string& file) const = 0;
  /// Durable contents, read at boot (pending bytes are invisible to
  /// readers — recovery only ever sees what survived a crash). Empty for a
  /// missing file.
  virtual std::vector<uint8_t> ReadDurable(const std::string& file) const = 0;
  virtual std::vector<std::string> List(const std::string& prefix) const = 0;

  /// Truncate a file's durable contents to `len` bytes, durably. Recovery
  /// uses this to cut a torn tail off the WAL so post-recovery appends land
  /// at the end of the replayable prefix.
  virtual void TruncateDurable(const std::string& file, size_t len) = 0;

  /// Gray-failure posture, polled by WalStorage's flush timer. Real disks
  /// report "healthy"; SimDisk's nemesis hooks override these.
  virtual Duration extra_fsync_latency() const { return 0; }
  virtual bool fsync_stalled() const { return false; }

  virtual const Stats& stats() const = 0;
};

}  // namespace recraft::storage
