// The one binary dialect of the system: the wire (net/wire.h), the WAL and
// its blobs (storage/codec.h, storage/wal_storage.h) and the KV machine's
// command, scan-batch and snapshot images all use it. Little-endian
// fixed-width integers, u32-length-prefixed strings and blobs, no varints.
//
// Each struct is described once, by a field list found through
// argument-dependent lookup in the struct's namespace:
//
//   template <class IO> void Fields(IO& io, RequestVote& m) {
//     io(m.et, m.candidate, m.last_idx, m.last_term);
//   }
//
// Writer walks the list to append bytes; Reader walks the same list to fill
// a value, so the two directions cannot disagree on order or width. Every
// other shape has one rule here:
//   * bool and 1-, 4- and 8-byte integers (an int travels as u32); an enum
//     travels as one byte, and the reader rejects a byte above kEnumMax<E>;
//   * std::string and std::vector<uint8_t>: u32 length, then the bytes;
//   * any other vector, and maps: u32 count, then the elements (key, value
//     for maps); Seq64 writes the count as u64;
//   * std::optional and std::shared_ptr: a bool presence flag, then the
//     value;
//   * std::pair: first, then second;
//   * std::variant: the alternative's tag byte, pinned in VariantTags<V>,
//     then the alternative; the reader rejects a tag the table lacks;
//   * Status: the code byte, then the message.
//
// The reader keeps the first error it meets and turns every later read into
// a no-op, so a field list carries no error handling; a check of its own
// (a format byte, a range invariant) goes under `if constexpr
// (IO::kReading)` and calls io.Fail. A count read from input is checked
// against the bytes left before anything is allocated for it, so a corrupt
// or hostile count fails the decode instead of exhausting memory.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
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

  /// The next `n` bytes, consumed; nullptr (consuming nothing) when fewer
  /// than `n` remain.
  const uint8_t* Take(size_t n) {
    if (n > size_ - pos_) return nullptr;
    const uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// --- tagged variants and checked enums ---------------------------------

/// Pins `kTag` as the tag byte of alternative `T`.
template <class T, uint8_t kTag>
struct Tag {
  using type = T;
  static constexpr uint8_t value = kTag;
};

/// A variant's tags, one per alternative. Tags belong to the durable and
/// wire formats: they are pinned by value, never derived from the
/// alternative's position, so reordering a variant renumbers nothing.
template <class... Tags>
struct TagTable {
  static constexpr size_t kSize = sizeof...(Tags);
  static constexpr bool kDistinct = [] {
    const uint8_t tags[] = {Tags::value...};
    for (size_t i = 0; i < kSize; ++i) {
      for (size_t j = i + 1; j < kSize; ++j) {
        if (tags[i] == tags[j]) return false;
      }
    }
    return true;
  }();
  static_assert(kDistinct, "two alternatives share a tag");

  template <class T>
  static constexpr uint8_t Of() {
    static_assert((std::is_same_v<T, typename Tags::type> || ...),
                  "alternative without a pinned tag");
    uint8_t tag = 0;
    (void)((std::is_same_v<T, typename Tags::type> ? (tag = Tags::value, true)
                                                    : false) ||
           ...);
    return tag;
  }

  /// Calls f(std::type_identity<T>{}) for the alternative pinned to `tag`;
  /// false when no alternative is.
  template <class F>
  static bool Visit(uint8_t tag, F&& f) {
    return ((tag == Tags::value
                 ? (f(std::type_identity<typename Tags::type>{}), true)
                 : false) ||
            ...);
  }
};

/// The tag table of variant type V. Specialize it next to V's field lists:
///   template <> struct VariantTags<V> : TagTable<Tag<A, 1>, Tag<B, 2>> {};
template <class V>
struct VariantTags;

/// The highest valid value of enum E. Specialize it for every enum a field
/// list carries; the primary template does not compile.
template <class E>
inline constexpr E kEnumMax = E::kEnumMaxIsNotSpecialized;

template <>
inline constexpr Code kEnumMax<Code> = Code::kWrongShard;

namespace codec_detail {

template <class T, template <class...> class Tmpl>
struct IsA : std::false_type {};
template <template <class...> class Tmpl, class... Args>
struct IsA<Tmpl<Args...>, Tmpl> : std::true_type {};
template <class T, template <class...> class Tmpl>
inline constexpr bool kIsA = IsA<T, Tmpl>::value;

template <class T>
inline constexpr bool kIsBlob =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::vector<uint8_t>>;

template <class T>
inline constexpr bool kIsSeq =
    !kIsBlob<T> && (kIsA<T, std::vector> || kIsA<T, std::map>);

/// The fewest bytes one encoded T can occupy; a struct, optional, pointer
/// or variant takes at least one.
template <class T>
constexpr size_t MinBytes() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (kIsBlob<T> || kIsSeq<T>) {
    return 4;
  } else if constexpr (kIsA<T, std::pair>) {
    return MinBytes<std::remove_const_t<typename T::first_type>>() +
           MinBytes<typename T::second_type>();
  } else {
    return 1;
  }
}

}  // namespace codec_detail

// --- the two walkers -----------------------------------------------------

/// Appends values to an Encoder by the rules above.
class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(Encoder& enc) : enc_(enc) {}

  template <class... Ts>
  void operator()(const Ts&... vs) {
    (Put(vs), ...);
  }

  /// A sequence count (Reader::Count's counterpart).
  void Count(size_t n) { enc_.PutU32(static_cast<uint32_t>(n)); }
  /// A vector or map whose count travels as u64.
  template <class C>
  void Seq64(const C& c) {
    enc_.PutU64(c.size());
    for (const auto& e : c) Put(e);
  }
  /// The code byte of `s` alone; its message is not carried.
  void StatusCode(const Status& s) {
    enc_.PutU8(static_cast<uint8_t>(s.code()));
  }
  /// Alternative `alt` of variant type V — its pinned tag, then its
  /// fields — without building the variant.
  template <class V, class T>
  void Tagged(const T& alt) {
    enc_.PutU8(VariantTags<V>::template Of<T>());
    Put(alt);
  }

 private:
  template <class T>
  void Put(const T& v) {
    using namespace codec_detail;
    if constexpr (std::is_same_v<T, bool>) {
      enc_.PutBool(v);
    } else if constexpr (std::is_enum_v<T>) {
      static_assert(sizeof(T) == 1, "enums travel as one byte");
      enc_.PutU8(static_cast<uint8_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      static_assert(sizeof(T) == 1 || sizeof(T) == 4 || sizeof(T) == 8);
      if constexpr (sizeof(T) == 1) enc_.PutU8(static_cast<uint8_t>(v));
      if constexpr (sizeof(T) == 4) enc_.PutU32(static_cast<uint32_t>(v));
      if constexpr (sizeof(T) == 8) enc_.PutU64(static_cast<uint64_t>(v));
    } else if constexpr (std::is_same_v<T, std::string>) {
      enc_.PutString(v);
    } else if constexpr (std::is_same_v<T, std::vector<uint8_t>>) {
      enc_.PutBytes(v);
    } else if constexpr (kIsA<T, std::optional> || kIsA<T, std::shared_ptr>) {
      enc_.PutBool(static_cast<bool>(v));
      if (v) Put(*v);
    } else if constexpr (kIsA<T, std::pair>) {
      Put(v.first);
      Put(v.second);
    } else if constexpr (kIsA<T, std::variant>) {
      static_assert(VariantTags<T>::kSize == std::variant_size_v<T>,
                    "every alternative needs a pinned tag");
      std::visit([this](const auto& alt) { Tagged<T>(alt); }, v);
    } else if constexpr (std::is_same_v<T, Status>) {
      StatusCode(v);
      enc_.PutString(v.message());
    } else if constexpr (kIsSeq<T>) {
      Count(v.size());
      for (const auto& e : v) Put(e);
    } else {
      // One field list serves both walkers; the writer only reads through
      // the reference.
      Fields(*this, const_cast<T&>(v));
    }
  }

  Encoder& enc_;
};

/// Fills values from a Decoder by the same rules, keeping the first error.
class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(Decoder& dec) : dec_(dec) {}

  template <class... Ts>
  void operator()(Ts&... vs) {
    (Get(vs), ...);
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Records `s` unless an earlier error is already recorded.
  void Fail(Status s) {
    if (ok()) status_ = std::move(s);
  }

  /// Reads a u32 count of E elements (N: the count's width). Fails, and
  /// returns 0, when the remaining bytes cannot hold that many.
  template <class E, class N = uint32_t>
  size_t Count() {
    N n = 0;
    GetRaw(n);
    if (n > dec_.remaining() / codec_detail::MinBytes<E>()) {
      Fail(Internal("codec: count exceeds the remaining bytes"));
      return 0;
    }
    return static_cast<size_t>(n);
  }
  template <class C>
  void Seq64(C& c) {
    GetSeq<uint64_t>(c);
  }
  void StatusCode(Status& s) {
    Code code = Code::kOk;
    Get(code);
    s = Status(code);
  }

 private:
  template <class T>
  void GetRaw(T& v) {
    if (!ok()) return;
    const uint8_t* p = dec_.Take(sizeof(T));
    if (p == nullptr) return Fail(Internal("codec: truncated buffer"));
    std::memcpy(&v, p, sizeof(T));
  }

  template <class N, class C>
  void GetSeq(C& c) {
    using E = typename C::value_type;
    if constexpr (codec_detail::kIsA<C, std::map>) {
      const size_t n = Count<E, N>();
      for (size_t i = 0; i < n && ok(); ++i) {
        std::pair<typename C::key_type, typename C::mapped_type> kv;
        Get(kv);
        if (ok()) c.emplace(std::move(kv));
      }
    } else {
      const size_t n = Count<E, N>();
      c.reserve(n);
      for (size_t i = 0; i < n && ok(); ++i) Get(c.emplace_back());
    }
  }

  template <class T>
  void Get(T& v) {
    using namespace codec_detail;
    if (!ok()) return;
    if constexpr (std::is_same_v<T, bool>) {
      uint8_t b = 0;
      GetRaw(b);
      v = b != 0;
    } else if constexpr (std::is_enum_v<T>) {
      uint8_t b = 0;
      GetRaw(b);
      if (b > static_cast<uint8_t>(kEnumMax<T>)) {
        return Fail(Internal("codec: enum value out of range"));
      }
      v = static_cast<T>(b);
    } else if constexpr (std::is_integral_v<T>) {
      if constexpr (sizeof(T) == 4) {
        uint32_t u = 0;
        GetRaw(u);
        v = static_cast<T>(u);
      } else {
        GetRaw(v);
      }
    } else if constexpr (kIsBlob<T>) {
      uint32_t n = 0;
      GetRaw(n);
      if (!ok()) return;
      const uint8_t* p = dec_.Take(n);
      if (p == nullptr) return Fail(Internal("codec: truncated buffer"));
      v.assign(reinterpret_cast<const typename T::value_type*>(p),
               reinterpret_cast<const typename T::value_type*>(p) + n);
    } else if constexpr (kIsA<T, std::optional>) {
      bool has = false;
      Get(has);
      if (has) {
        Get(v.emplace());
      } else {
        v.reset();
      }
    } else if constexpr (kIsA<T, std::shared_ptr>) {
      bool has = false;
      Get(has);
      if (!has) {
        v.reset();
        return;
      }
      auto p = std::make_shared<std::remove_const_t<typename T::element_type>>();
      Get(*p);
      v = std::move(p);
    } else if constexpr (kIsA<T, std::pair>) {
      Get(v.first);
      Get(v.second);
    } else if constexpr (kIsA<T, std::variant>) {
      uint8_t tag = 0;
      GetRaw(tag);
      if (!ok()) return;
      const bool known = VariantTags<T>::Visit(tag, [&](auto alt) {
        Get(v.template emplace<typename decltype(alt)::type>());
      });
      if (!known) Fail(Internal("codec: unknown variant tag"));
    } else if constexpr (std::is_same_v<T, Status>) {
      Code code = Code::kOk;
      std::string msg;
      Get(code);
      Get(msg);
      v = code == Code::kOk ? Status() : Status(code, std::move(msg));
    } else if constexpr (kIsSeq<T>) {
      GetSeq<uint32_t>(v);
    } else {
      Fields(*this, v);
    }
  }

  Decoder& dec_;
  Status status_;
};

/// Appends the encoding of `v` to `enc`.
template <class T>
void Encode(Encoder& enc, const T& v) {
  Writer w(enc);
  w(v);
}

/// The encoding of `v` as a fresh buffer.
template <class T>
std::vector<uint8_t> Encode(const T& v) {
  Encoder enc;
  Encode(enc, v);
  return enc.Take();
}

/// Decodes one T from `dec`, leaving it just past the consumed bytes.
template <class T>
Result<T> Decode(Decoder& dec) {
  T v;
  Reader r(dec);
  r(v);
  if (!r.ok()) return r.status();
  return v;
}

/// Decodes one T from the start of `bytes` (trailing bytes are ignored).
template <class T>
Result<T> Decode(const std::vector<uint8_t>& bytes) {
  Decoder dec(bytes);
  return Decode<T>(dec);
}

}  // namespace recraft
