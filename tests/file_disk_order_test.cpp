// FileDisk's sync ordering, observed at the syscall boundary. This binary
// links with -Wl,--wrap=fsync,--wrap=fdatasync (see CMakeLists.txt), so
// every fsync/fdatasync the library issues passes through the recorders
// below first; nothing in src/ knows about it.
//
// The property under test: a file FileDisk creates has its directory entry
// synced before the first Flush of that file returns. Without it a power
// loss can drop the whole WAL — and with it every acked vote and entry —
// even though each record in it was fdatasync'ed.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <memory>
#include <ostream>
#include <vector>

#include "storage/file_disk.h"
#include "storage/wal_storage.h"
#include "tests/test_util.h"

namespace {

struct SyncCall {
  bool datasync;  // fdatasync (else fsync)
  bool on_dir;    // the fd is a directory

  bool operator==(const SyncCall&) const = default;
};

void PrintTo(const SyncCall& c, std::ostream* os) {
  *os << (c.datasync ? "fdatasync" : "fsync")
      << (c.on_dir ? "(dir)" : "(file)");
}

bool g_recording = false;
std::vector<SyncCall> g_calls;

void Record(bool datasync, int fd) {
  if (!g_recording) return;
  struct stat st {};
  const bool on_dir = ::fstat(fd, &st) == 0 && S_ISDIR(st.st_mode);
  g_calls.push_back(SyncCall{datasync, on_dir});
}

}  // namespace

extern "C" {
int __real_fsync(int fd);
int __real_fdatasync(int fd);

int __wrap_fsync(int fd) {
  Record(false, fd);
  return __real_fsync(fd);
}

int __wrap_fdatasync(int fd) {
  Record(true, fd);
  return __real_fdatasync(fd);
}
}

namespace recraft::storage {
namespace {

constexpr SyncCall kDirFsync{false, true};
constexpr SyncCall kFileDatasync{true, false};

/// Records the sync calls made between construction and Take().
class SyncLog {
 public:
  SyncLog() {
    g_calls.clear();
    g_recording = true;
  }
  ~SyncLog() { g_recording = false; }
  std::vector<SyncCall> Take() {
    g_recording = false;
    return std::move(g_calls);
  }
};

TEST(FileDiskOrder, NewFileNameIsSyncedBeforeItsFirstFlushReturns) {
  test::TempDir dir;
  FileDisk disk(dir.path());
  SyncLog log;
  disk.Append("wal", {1, 2, 3});
  disk.Flush("wal");
  disk.Append("wal", {4});  // the name is durable now: no second dir sync
  disk.Flush("wal");
  EXPECT_EQ(log.Take(),
            (std::vector<SyncCall>{kDirFsync, kFileDatasync, kFileDatasync}));
}

TEST(FileDiskOrder, FileFoundAtBootIsNotResynced) {
  test::TempDir dir;
  {
    FileDisk disk(dir.path());
    disk.Append("wal", {1});
    disk.Flush("wal");
  }
  FileDisk disk(dir.path());
  SyncLog log;
  disk.Append("wal", {2});
  disk.Flush("wal");
  EXPECT_EQ(log.Take(), (std::vector<SyncCall>{kFileDatasync}));
}

TEST(FileDiskOrder, FirstVoteOnABlankDiskSyncsTheWalName) {
  // recraftd's path: boot on an empty data dir, then persist a vote, which
  // WalStorage makes durable before returning.
  test::TempDir dir;
  WalStorage wal(std::make_shared<FileDisk>(dir.path()), nullptr);
  ASSERT_TRUE(wal.Load().ok());
  SyncLog log;
  wal.PersistHardState(HardState{1, 2, 0});
  EXPECT_EQ(log.Take(), (std::vector<SyncCall>{kDirFsync, kFileDatasync}));
}

}  // namespace
}  // namespace recraft::storage
