// Key ranges: half-open lexicographic intervals [lo, hi) over string keys.
// An empty hi represents +infinity. Clusters own one contiguous range each;
// splits partition a range at chosen keys and merges concatenate adjacent
// ranges, as in the paper's etcd/TiKV setting.
#pragma once

#include <string>
#include <vector>

#include "common/status.h"

namespace recraft {

class KeyRange {
 public:
  /// Full key space [ "", +inf ).
  KeyRange() = default;
  KeyRange(std::string lo, std::string hi);

  static KeyRange Full() { return KeyRange(); }
  static KeyRange Empty();

  const std::string& lo() const { return lo_; }
  const std::string& hi() const { return hi_; }
  bool hi_is_inf() const { return hi_inf_; }

  bool empty() const;
  bool Contains(const std::string& key) const;
  /// Three-way position of `key` relative to this range: negative when the
  /// key sorts below lo, 0 when the range contains it, positive when it is at
  /// or above hi. The shard map's binary-search lookup builds on this.
  int CompareKey(const std::string& key) const;
  bool ContainsRange(const KeyRange& other) const;
  bool Overlaps(const KeyRange& other) const;
  /// True when `this.hi == other.lo` (they can merge into one interval).
  bool AdjacentBefore(const KeyRange& other) const;

  /// Split this range at `keys` (strictly increasing, strictly inside the
  /// range). Returns keys.size()+1 subranges covering this range exactly.
  Result<std::vector<KeyRange>> SplitAt(const std::vector<std::string>& keys) const;

  /// Concatenation of adjacent ranges; fails if not adjacent/ordered.
  static Result<KeyRange> MergeAdjacent(const std::vector<KeyRange>& parts);

  bool operator==(const KeyRange& o) const;
  std::string ToString() const;

  /// The codec's field list (common/codec.h): lo, hi, then the +inf flag.
  /// A decoded finite range must have a non-empty hi.
  template <class IO>
  friend void Fields(IO& io, KeyRange& r) {
    io(r.lo_, r.hi_, r.hi_inf_);
    if constexpr (IO::kReading) {
      if (r.hi_inf_) {
        r.hi_.clear();
      } else if (r.hi_.empty()) {
        io.Fail(Internal("codec: finite range with empty hi"));
      }
    }
  }

 private:
  std::string lo_;
  std::string hi_;
  bool hi_inf_ = true;
};

}  // namespace recraft
