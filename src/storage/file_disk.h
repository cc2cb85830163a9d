// Real-file Disk backend: a flat directory of files driven through
// write/fdatasync, for the recraftd deployment mode. The durable/pending
// split maps onto the OS page cache — Append write()s immediately (bytes
// the kernel may or may not have persisted when the process dies), Flush is
// fdatasync (the durability barrier WalStorage's group commit and vote
// barriers rely on), WriteAtomic is write-temp + fdatasync + rename +
// directory fsync. The first Append to a file this disk did not know
// fsyncs the directory too, so the new file's name is as durable as the
// first records synced into it.
//
// FileDisk holds no file bytes: per file it keeps an append fd and a count
// of unsynced bytes. Construction only records the directory's file names;
// ReadDurable reads the file itself, at boot. After a kill -9, whatever the
// kernel retained IS the durable truth, and WalStorage's CRC-framed replay
// drops any torn tail.
//
// Deliberately synchronous and single-threaded, like everything below the
// net:: seam — recraftd's poll loop is the only caller. File names are the
// WAL layout's ("wal", "snap-<gen>", "seal-<tx>-<src>", "exmeta"): flat,
// no separators, no traversal.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/disk.h"

namespace recraft::storage {

class FileDisk final : public Disk {
 public:
  /// Creates `dir` if missing, records the names of its files and unlinks
  /// ".tmp" orphans. Fatal-logs and aborts on I/O errors — a node that
  /// cannot trust its disk must not serve.
  explicit FileDisk(std::string dir);
  ~FileDisk() override;

  FileDisk(const FileDisk&) = delete;
  FileDisk& operator=(const FileDisk&) = delete;

  void Append(const std::string& file,
              const std::vector<uint8_t>& bytes) override;
  void Flush(const std::string& file) override;
  void WriteAtomic(const std::string& file,
                   std::vector<uint8_t> bytes) override;
  void Delete(const std::string& file) override;
  bool Exists(const std::string& file) const override;
  /// Reads the file from disk. Boot-time only: the file must have no
  /// unsynced appends.
  std::vector<uint8_t> ReadDurable(const std::string& file) const override;
  std::vector<std::string> List(const std::string& prefix) const override;
  void TruncateDurable(const std::string& file, size_t len) override;

  const Stats& stats() const override { return stats_; }
  const std::string& dir() const { return dir_; }

 private:
  struct File {
    int fd = -1;         // append handle, opened lazily
    size_t pending = 0;  // bytes written since the last fdatasync
  };

  std::string PathOf(const std::string& file) const;
  File& OpenForAppend(const std::string& file);
  void SyncDir();

  std::string dir_;
  int dir_fd_ = -1;
  std::map<std::string, File> files_;
  Stats stats_;
};

}  // namespace recraft::storage
