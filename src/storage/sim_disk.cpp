#include "storage/sim_disk.h"

#include <algorithm>
#include <cstddef>

namespace recraft::storage {

void SimDisk::ChargeWrite(size_t bytes) {
  stats_.io_busy += opts_.fsync_latency + extra_fsync_latency_;
  if (opts_.throughput_bytes_per_sec > 0) {
    stats_.io_busy += static_cast<Duration>(
        (static_cast<unsigned __int128>(bytes) * kSecond) /
        opts_.throughput_bytes_per_sec);
  }
}

void SimDisk::Append(const std::string& file,
                     const std::vector<uint8_t>& bytes) {
  auto& f = files_[file];
  f.pending.insert(f.pending.end(), bytes.begin(), bytes.end());
  stats_.appended_bytes += bytes.size();
}

void SimDisk::Flush(const std::string& file) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  File& f = it->second;
  ++stats_.flushes;
  stats_.flushed_bytes += f.pending.size();
  ChargeWrite(f.pending.size());
  f.durable.insert(f.durable.end(), f.pending.begin(), f.pending.end());
  f.pending.clear();
}

void SimDisk::WriteAtomic(const std::string& file,
                          std::vector<uint8_t> bytes) {
  ++stats_.atomic_writes;
  ChargeWrite(bytes.size());
  File& f = files_[file];
  f.durable = std::move(bytes);
  f.pending.clear();
}

void SimDisk::Delete(const std::string& file) { files_.erase(file); }

bool SimDisk::Exists(const std::string& file) const {
  return files_.count(file) > 0;
}

std::vector<uint8_t> SimDisk::ReadDurable(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? std::vector<uint8_t>{} : it->second.durable;
}

size_t SimDisk::DurableSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.durable.size();
}

size_t SimDisk::PendingSize(const std::string& file) const {
  auto it = files_.find(file);
  return it == files_.end() ? 0 : it->second.pending.size();
}

std::vector<std::string> SimDisk::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, f] : files_) {
    if (name.compare(0, prefix.size(), prefix) == 0) out.push_back(name);
  }
  return out;
}

void SimDisk::CrashAll() { CrashKeepingPrefix("", 0); }

void SimDisk::CrashKeepingPrefix(const std::string& file,
                                 size_t keep_pending_bytes) {
  for (auto& [name, f] : files_) {
    size_t keep = name == file
                      ? std::min(keep_pending_bytes, f.pending.size())
                      : 0;
    if (keep > 0) {
      f.durable.insert(f.durable.end(), f.pending.begin(),
                       f.pending.begin() + static_cast<ptrdiff_t>(keep));
    }
    stats_.crash_lost_bytes += f.pending.size() - keep;
    f.pending.clear();
  }
}

void SimDisk::TruncateDurable(const std::string& file, size_t len) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  auto& d = it->second.durable;
  if (len < d.size()) d.resize(len);
}

void SimDisk::CorruptDurable(const std::string& file, size_t offset) {
  auto it = files_.find(file);
  if (it == files_.end()) return;
  auto& d = it->second.durable;
  if (offset < d.size()) d[offset] ^= 0xa5u;
}

}  // namespace recraft::storage
