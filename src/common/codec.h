// Simple binary encoder/decoder used to serialize snapshots and to account
// for on-wire sizes. Little-endian, length-prefixed strings, varint-free for
// simplicity (fixed-width integers).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace recraft {

class Encoder {
 public:
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutString(const std::string& s) {
    PutU32(static_cast<uint32_t>(s.size()));
    PutRaw(s.data(), s.size());
  }
  /// Length-prefixed byte blob (nested encodings, e.g. kv snapshots).
  void PutBytes(const std::vector<uint8_t>& b) {
    PutU32(static_cast<uint32_t>(b.size()));
    PutRaw(b.data(), b.size());
  }

  /// Overwrite four bytes already written at `pos` (back-patching a header
  /// reserved before its body was encoded).
  void PatchU32(size_t pos, uint32_t v) {
    std::memcpy(buf_.data() + pos, &v, sizeof(v));
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void PutRaw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

class Decoder {
 public:
  /// Views, not copies: the buffer must outlive the decoder.
  explicit Decoder(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Decoder(const std::string& buf)
      : data_(reinterpret_cast<const uint8_t*>(buf.data())),
        size_(buf.size()) {}

  Result<uint8_t> GetU8();
  Result<uint32_t> GetU32();
  Result<uint64_t> GetU64();
  Result<bool> GetBool();
  Result<std::string> GetString();
  Result<std::vector<uint8_t>> GetBytes();

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Need(size_t n) {
    if (pos_ + n > size_) return Internal("codec: truncated buffer");
    return OkStatus();
  }
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace recraft
