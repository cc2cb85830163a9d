// Refcounted immutable entry slabs — the shared storage behind the log, the
// AppendEntries / PullReply fan-out and the storage backends' mirrors.
//
// The old hot path materialized a fresh std::vector<LogEntry> per peer per
// send (RaftLog::Slice) and deep-copied every appended entry again into each
// storage mirror; PR 3's profile put that at ~8% of e2e wall time. Instead,
// entries now live in append-only slabs (EntrySlab) shared by shared_ptr:
//
//   * EntrySlab  — a fixed-capacity arena. Strictly append-only: a slot, once
//     written by PushBack, is never moved or mutated (the backing vector's
//     capacity is reserved up front, so pushes never reallocate). That makes
//     every published slot immutable for as long as anyone holds the slab —
//     the property that lets in-flight messages, storage mirrors and the log
//     cache all point at the same bytes while the log truncates underneath
//     them (a truncated slot simply stops being referenced; it is never
//     overwritten, because the slab's write cursor only moves forward).
//   * EntryRef   — one (slab, position) handle; the unit the LogSink API now
//     carries so storage mirrors share the slab instead of copying the entry.
//   * EntrySpan  — an immutable view over a run of slab slots (possibly
//     spanning slabs). This is what RaftLog::Slice returns and what
//     AppendEntries / PullReply carry: building one copies a couple of
//     segment descriptors, never entries.
//   * EntryList  — the growable segmented list behind RaftLog and the
//     storage mirror: PushOwned fills a tail slab the list allocates,
//     PushShared adopts another list's slab by reference (the zero-copy
//     path from RaftLog into WalStorage's model).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <memory>
#include <vector>

#include "raft/entry.h"

namespace recraft::raft {

class EntrySlab {
 public:
  /// Default arena size. Big enough that sequential appends coalesce into a
  /// handful of segments, small enough that a truncated slab's dead slots
  /// don't pin much memory.
  static constexpr uint32_t kDefaultCapacity = 64;

  explicit EntrySlab(uint32_t capacity = kDefaultCapacity) {
    slots_.reserve(capacity);
  }
  EntrySlab(const EntrySlab&) = delete;
  EntrySlab& operator=(const EntrySlab&) = delete;

  uint32_t size() const { return static_cast<uint32_t>(slots_.size()); }
  bool full() const { return slots_.size() == slots_.capacity(); }
  const LogEntry& at(uint32_t i) const {
    assert(i < slots_.size());
    return slots_[i];
  }

  /// Append one entry; returns its slot. The slot is immutable from here on.
  uint32_t PushBack(LogEntry e) {
    assert(!full());
    slots_.push_back(std::move(e));
    return static_cast<uint32_t>(slots_.size() - 1);
  }

 private:
  // NOLINTNEXTLINE(recraft-entry-copy): the slab IS the one owning store every span shares
  std::vector<LogEntry> slots_;  // capacity reserved once; never reallocates
};

using SlabPtr = std::shared_ptr<EntrySlab>;

/// A shared handle to one immutable entry. Implicitly constructible from a
/// bare LogEntry (a single-slot slab) so cold-path callers — boot replay,
/// unit tests, benches driving a LogSink directly — stay source-compatible.
class EntryRef {
 public:
  EntryRef() = default;
  EntryRef(SlabPtr slab, uint32_t pos) : slab_(std::move(slab)), pos_(pos) {}
  /* implicit */ EntryRef(const LogEntry& e)  // NOLINT(runtime/explicit)
      : slab_(std::make_shared<EntrySlab>(1)) {
    pos_ = slab_->PushBack(e);
  }

  const LogEntry& operator*() const { return slab_->at(pos_); }
  const LogEntry* operator->() const { return &slab_->at(pos_); }
  const SlabPtr& slab() const { return slab_; }
  uint32_t pos() const { return pos_; }

 private:
  SlabPtr slab_;
  uint32_t pos_ = 0;
};

/// An immutable view over a run of entries held in shared slabs. Copying a
/// span copies segment descriptors (refcount bumps), not entries.
class EntrySpan {
 public:
  struct Segment {
    SlabPtr slab;
    uint32_t begin = 0;
    uint32_t len = 0;
  };

  EntrySpan() = default;
  /// Materializing constructor for literal assignment (tests build
  /// `ae.entries = {e}`): copies the listed entries into a fresh slab.
  EntrySpan(std::initializer_list<LogEntry> entries) {
    if (entries.size() == 0) return;
    auto slab = std::make_shared<EntrySlab>(
        static_cast<uint32_t>(entries.size()));
    for (const auto& e : entries) slab->PushBack(e);
    size_ = entries.size();
    segs_.push_back(Segment{std::move(slab), 0, static_cast<uint32_t>(size_)});
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const LogEntry& front() const {
    assert(!empty());
    return segs_.front().slab->at(segs_.front().begin);
  }
  const LogEntry& back() const {
    assert(!empty());
    const Segment& s = segs_.back();
    return s.slab->at(s.begin + s.len - 1);
  }

  const LogEntry& operator[](size_t i) const {
    assert(i < size_);
    for (const Segment& s : segs_) {
      if (i < s.len) return s.slab->at(s.begin + static_cast<uint32_t>(i));
      i -= s.len;
    }
    __builtin_unreachable();
  }

  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = LogEntry;
    using difference_type = std::ptrdiff_t;
    using pointer = const LogEntry*;
    using reference = const LogEntry&;

    const_iterator() = default;
    const_iterator(const Segment* seg, const Segment* end, uint32_t off)
        : seg_(seg), end_(end), off_(off) {}

    reference operator*() const { return seg_->slab->at(seg_->begin + off_); }
    pointer operator->() const { return &**this; }
    const_iterator& operator++() {
      if (++off_ == seg_->len) {
        ++seg_;
        off_ = 0;
      }
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator t = *this;
      ++*this;
      return t;
    }
    bool operator==(const const_iterator& o) const {
      return seg_ == o.seg_ && off_ == o.off_;
    }
    bool operator!=(const const_iterator& o) const { return !(*this == o); }

   private:
    const Segment* seg_ = nullptr;
    const Segment* end_ = nullptr;
    uint32_t off_ = 0;
  };

  const_iterator begin() const {
    return {segs_.data(), segs_.data() + segs_.size(), 0};
  }
  const_iterator end() const {
    return {segs_.data() + segs_.size(), segs_.data() + segs_.size(), 0};
  }

  void PushSegment(SlabPtr slab, uint32_t begin, uint32_t len) {
    assert(len > 0);
    size_ += len;
    segs_.push_back(Segment{std::move(slab), begin, len});
  }

 private:
  std::vector<Segment> segs_;
  size_t size_ = 0;
};

/// Growable ordered entry list over shared slabs: the storage behind RaftLog
/// and the backends' durable-model mirrors. Supports the operations those
/// call sites need — append (owned or shared), pop at either end, positional
/// reads, and zero-copy sub-span extraction.
class EntryList {
 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  const LogEntry& front() const {
    assert(!empty());
    return segs_.front().slab->at(segs_.front().begin);
  }
  const LogEntry& back() const {
    assert(!empty());
    const Seg& s = segs_.back();
    return s.slab->at(s.begin + s.len - 1);
  }

  /// Entry at logical position `i` (0-based from the current front).
  /// Sequential access (apply loops) hits a cached segment hint; random
  /// access binary-searches the segment directory.
  const LogEntry& At(size_t i) const {
    const Seg& s = SegFor(i);
    return s.slab->at(s.begin + static_cast<uint32_t>(head_ + i - s.start));
  }

  /// Zero-copy view of [pos, pos+count). Copies segment descriptors only.
  EntrySpan Span(size_t pos, size_t count) const {
    EntrySpan out;
    if (count == 0) return out;
    assert(pos + count <= size_);
    size_t seg_idx = SegIndexFor(pos);
    uint64_t abs = head_ + pos;
    size_t left = count;
    for (; left > 0; ++seg_idx) {
      const Seg& s = segs_[seg_idx];
      uint32_t off = static_cast<uint32_t>(abs - s.start);
      uint32_t take = static_cast<uint32_t>(
          std::min<uint64_t>(left, s.len - off));
      out.PushSegment(s.slab, s.begin + off, take);
      abs += take;
      left -= take;
    }
    return out;
  }

  /// Append into the list's own tail slab (allocating a fresh slab when the
  /// current one fills). Returns the shared handle to the stored entry.
  EntryRef PushOwned(LogEntry e) {
    if (tail_ == nullptr || tail_->full()) {
      tail_ = std::make_shared<EntrySlab>(EntrySlab::kDefaultCapacity);
    }
    uint32_t pos = tail_->PushBack(std::move(e));
    Adopt(tail_, pos);
    return EntryRef(tail_, pos);
  }

  /// Append by reference into another list's slab — the zero-copy path from
  /// the log into the storage mirrors. Contiguous refs into the same slab
  /// coalesce into one segment.
  void PushShared(const EntryRef& ref) { Adopt(ref.slab(), ref.pos()); }

  void PopBack() {
    assert(!empty());
    Seg& s = segs_.back();
    if (--s.len == 0) segs_.pop_back();
    --size_;
    hint_ = 0;
  }

  void PopFront() {
    assert(!empty());
    Seg& s = segs_.front();
    ++s.begin;
    ++s.start;
    if (--s.len == 0) segs_.pop_front();
    ++head_;
    --size_;
    hint_ = 0;
  }

  void Clear() {
    segs_.clear();
    tail_.reset();
    size_ = 0;
    head_ = 0;
    hint_ = 0;
  }

 private:
  struct Seg {
    SlabPtr slab;
    uint32_t begin = 0;  // first slot of this segment within the slab
    uint32_t len = 0;
    uint64_t start = 0;  // absolute position of the segment's first entry
  };

  void Adopt(const SlabPtr& slab, uint32_t pos) {
    if (!segs_.empty()) {
      Seg& s = segs_.back();
      if (s.slab == slab && pos == s.begin + s.len) {
        ++s.len;
        ++size_;
        return;
      }
    }
    segs_.push_back(Seg{slab, pos, 1, head_ + size_});
    ++size_;
  }

  size_t SegIndexFor(size_t i) const {
    assert(i < size_);
    uint64_t abs = head_ + i;
    // Fast path: the segment that answered the previous lookup, or its
    // successor (sequential scans).
    for (size_t h = hint_; h < std::min(hint_ + 2, segs_.size()); ++h) {
      const Seg& s = segs_[h];
      if (abs >= s.start && abs < s.start + s.len) {
        hint_ = h;
        return h;
      }
    }
    size_t lo = 0;
    size_t hi = segs_.size();
    while (hi - lo > 1) {
      size_t mid = (lo + hi) / 2;
      if (segs_[mid].start <= abs) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    hint_ = lo;
    return lo;
  }

  const Seg& SegFor(size_t i) const { return segs_[SegIndexFor(i)]; }

  std::deque<Seg> segs_;
  SlabPtr tail_;  // slab PushOwned is currently filling
  size_t size_ = 0;
  uint64_t head_ = 0;  // absolute position of the current front entry
  mutable size_t hint_ = 0;
};

}  // namespace recraft::raft
