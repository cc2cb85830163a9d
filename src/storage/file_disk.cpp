#include "storage/file_disk.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace recraft::storage {

namespace {

[[noreturn]] void DieErrno(const char* op, const std::string& path) {
  RLOG_ERROR("disk", "%s(%s): %s", op, path.c_str(), std::strerror(errno));
  std::fprintf(stderr, "filedisk: %s(%s): %s\n", op, path.c_str(),
               std::strerror(errno));
  std::abort();
}

void WriteFully(int fd, const uint8_t* data, size_t len,
                const std::string& path) {
  size_t off = 0;
  while (off < len) {
    ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      DieErrno("write", path);
    }
    off += static_cast<size_t>(n);
  }
}

std::vector<uint8_t> ReadFully(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) DieErrno("open", path);
  std::vector<uint8_t> out;
  uint8_t buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      DieErrno("read", path);
    }
    if (n == 0) break;
    out.insert(out.end(), buf, buf + n);
  }
  ::close(fd);
  return out;
}

}  // namespace

FileDisk::FileDisk(std::string dir) : dir_(std::move(dir)) {
  if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
    DieErrno("mkdir", dir_);
  }
  dir_fd_ = ::open(dir_.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd_ < 0) DieErrno("open", dir_);
  DIR* d = ::opendir(dir_.c_str());
  if (d == nullptr) DieErrno("opendir", dir_);
  while (struct dirent* ent = ::readdir(d)) {
    std::string name = ent->d_name;
    if (name == "." || name == "..") continue;
    // A crash between WriteAtomic's temp write and its rename leaves a
    // ".tmp" orphan; it was never the durable file, discard it.
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      ::unlink(PathOf(name).c_str());
      continue;
    }
    files_.emplace(std::move(name), File{});
  }
  ::closedir(d);
}

FileDisk::~FileDisk() {
  for (auto& [name, f] : files_) {
    if (f.fd >= 0) ::close(f.fd);
  }
  if (dir_fd_ >= 0) ::close(dir_fd_);
}

std::string FileDisk::PathOf(const std::string& file) const {
  return dir_ + "/" + file;
}

FileDisk::File& FileDisk::OpenForAppend(const std::string& file) {
  auto [it, created] = files_.try_emplace(file);
  File& f = it->second;
  if (f.fd < 0) {
    f.fd = ::open(PathOf(file).c_str(),
                  O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (f.fd < 0) DieErrno("open", PathOf(file));
    // A new file's directory entry is not covered by fdatasync on the
    // file: sync it now, or a power loss could drop the whole file along
    // with every record later acked from it.
    if (created) SyncDir();
  }
  return f;
}

void FileDisk::Append(const std::string& file,
                      const std::vector<uint8_t>& bytes) {
  File& f = OpenForAppend(file);
  WriteFully(f.fd, bytes.data(), bytes.size(), PathOf(file));
  f.pending += bytes.size();
  stats_.appended_bytes += bytes.size();
}

void FileDisk::Flush(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  File& f = it->second;
  if (f.fd >= 0 && ::fdatasync(f.fd) != 0) DieErrno("fdatasync", PathOf(file));
  ++stats_.flushes;
  stats_.flushed_bytes += f.pending;
  f.pending = 0;
}

void FileDisk::WriteAtomic(const std::string& file,
                           std::vector<uint8_t> bytes) {
  const std::string tmp_path = PathOf(file) + ".tmp";
  int fd = ::open(tmp_path.c_str(),
                  O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) DieErrno("open", tmp_path);
  WriteFully(fd, bytes.data(), bytes.size(), tmp_path);
  if (::fdatasync(fd) != 0) DieErrno("fdatasync", tmp_path);
  ::close(fd);
  if (::rename(tmp_path.c_str(), PathOf(file).c_str()) != 0) {
    DieErrno("rename", tmp_path);
  }
  SyncDir();
  // Any open append handle now points at the unlinked old inode.
  File& f = files_[file];
  if (f.fd >= 0) {
    ::close(f.fd);
    f.fd = -1;
  }
  f.pending = 0;
  ++stats_.atomic_writes;
  stats_.flushed_bytes += bytes.size();
}

void FileDisk::Delete(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  files_.erase(it);
  if (::unlink(PathOf(file).c_str()) != 0 && errno != ENOENT) {
    DieErrno("unlink", PathOf(file));
  }
  SyncDir();
}

bool FileDisk::Exists(const std::string& file) const {
  return files_.count(file) > 0;
}

std::vector<uint8_t> FileDisk::ReadDurable(const std::string& file) const {
  auto it = files_.find(file);
  if (it == files_.end()) return {};
  // Boot reads happen before any append: unsynced bytes here would be read
  // back as durable.
  assert(it->second.pending == 0);
  return ReadFully(PathOf(file));
}

std::vector<std::string> FileDisk::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

void FileDisk::TruncateDurable(const std::string& file, size_t len) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  File& f = it->second;
  // Recovery calls this before any post-boot appends, so the cut is within
  // the durable region; drop unsynced tail bytes along with it.
  if (f.fd >= 0) {
    ::close(f.fd);
    f.fd = -1;
  }
  if (::truncate(PathOf(file).c_str(), static_cast<off_t>(len)) != 0) {
    DieErrno("truncate", PathOf(file));
  }
  int fd = ::open(PathOf(file).c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) DieErrno("open", PathOf(file));
  if (::fdatasync(fd) != 0) DieErrno("fdatasync", PathOf(file));
  ::close(fd);
  f.pending = 0;
}

void FileDisk::SyncDir() {
  if (::fsync(dir_fd_) != 0) DieErrno("fsync", dir_);
}

}  // namespace recraft::storage
