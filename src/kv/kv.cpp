#include "kv/kv.h"

#include <algorithm>
#include <cassert>

#include "kv/service.h"

namespace recraft::kv {

// A session travels as its last sequence number, the code of its recorded
// status (not the message) and its recorded value.
template <class IO>
void Fields(IO& io, Session& s) {
  io(s.last_seq);
  io.StatusCode(s.last_result.status);
  io(s.last_result.value);
}

/// The range, then the data and the sessions behind u64 counts. Honest
/// serializers emit key order, so decoding keeps `data` sorted.
template <class IO>
void Fields(IO& io, Snapshot& s) {
  io(s.range);
  io.Seq64(s.data);
  io.Seq64(s.sessions);
}

namespace {
size_t EntryBytes(const std::string& k, const std::string& v) {
  return k.size() + v.size() + 16;  // keys+values plus per-entry overhead
}
size_t EntryBytes(const std::string& k, size_t value_size) {
  return k.size() + value_size + 16;
}
const std::string kEmpty;
}  // namespace

std::string& SnapshotData::operator[](const std::string& key) {
  auto it = std::lower_bound(
      begin(), end(), key,
      [](const value_type& e, const std::string& k) { return e.first < k; });
  if (it != end() && it->first == key) return it->second;
  return emplace(it, key, std::string())->second;
}

const std::string& SnapshotData::at(const std::string& key) const {
  auto it = std::lower_bound(
      begin(), end(), key,
      [](const value_type& e, const std::string& k) { return e.first < k; });
  assert(it != end() && it->first == key);
  return it->second;
}

size_t Snapshot::SerializedBytes() const {
  if (serialized_bytes_memo_ != 0) return serialized_bytes_memo_;
  size_t n = 64;  // header: range, counts
  n += range.lo().size() + range.hi().size();
  for (const auto& [k, v] : data) n += 8 + k.size() + v.size();
  n += sessions.size() * 48;
  serialized_bytes_memo_ = n;  // n >= 64, so 0 stays a safe "unset" sentinel
  return n;
}

std::vector<uint8_t> Snapshot::Serialize() const { return Encode(*this); }

Result<Snapshot> Snapshot::Deserialize(const std::vector<uint8_t>& bytes) {
  return Decode<Snapshot>(bytes);
}

OpResult Store::Apply(const Command& cmd) {
  // Session dedup before anything else: a retry of an already-applied
  // command must return the original result even if the range has changed
  // since (the session table travels with the data).
  Session* sess = nullptr;
  if (cmd.client_id != 0) {
    sess = &sessions_[cmd.client_id];
    if (cmd.seq != 0 && cmd.seq <= sess->last_seq) {
      return sess->last_result;
    }
  }

  OpResult res;
  if (!range_.Contains(cmd.key)) {
    res.status = OutOfRange("key " + cmd.key + " outside " + range_.ToString());
  } else {
    switch (cmd.op) {
      case OpType::kPut: {
        // Single-descent upsert: the tree hands back the value slot.
        auto [val, inserted] = data_.GetOrInsert(cmd.key);
        if (!inserted) approx_bytes_ -= EntryBytes(cmd.key, val->size());
        *val = cmd.value;
        approx_bytes_ += EntryBytes(cmd.key, cmd.value);
        res.status = OkStatus();
        break;
      }
      case OpType::kGet: {
        const std::string* val = data_.Find(cmd.key);
        if (val == nullptr) {
          res.status = NotFound(cmd.key);
        } else {
          res.status = OkStatus();
          res.value = *val;
        }
        break;
      }
      case OpType::kDelete: {
        size_t value_size = 0;
        if (!data_.Erase(cmd.key, &value_size)) {
          res.status = NotFound(cmd.key);
        } else {
          approx_bytes_ -= EntryBytes(cmd.key, value_size);
          res.status = OkStatus();
        }
        break;
      }
      case OpType::kCas: {
        // expected "" means "key must be absent" (insert-if-absent); a
        // mismatch returns kConflict with the current value as the result.
        const std::string* current = data_.Find(cmd.key);
        if ((current == nullptr ? kEmpty : *current) != cmd.expected) {
          res.status = Conflict("cas mismatch on " + cmd.key);
          res.value = current == nullptr ? kEmpty : *current;
          break;
        }
        auto [val, inserted] = data_.GetOrInsert(cmd.key);
        if (!inserted) approx_bytes_ -= EntryBytes(cmd.key, val->size());
        *val = cmd.value;
        approx_bytes_ += EntryBytes(cmd.key, cmd.value);
        res.status = OkStatus();
        break;
      }
      case OpType::kScan: {
        // Scans can travel through the log too (the legacy read path); the
        // batch is encoded into the result payload by the service codec.
        res.status = OkStatus();
        res.value = EncodeScanBatch(
            Scan(cmd.key, cmd.scan_hi,
                 cmd.scan_limit == 0 ? kDefaultScanLimit : cmd.scan_limit));
        break;
      }
    }
  }

  if (sess != nullptr && cmd.seq != 0) {
    sess->last_seq = cmd.seq;
    sess->last_result = res;
  }
  return res;
}

Result<std::string> Store::KeyAtFraction(double fraction) const {
  if (data_.size() < 2) return Rejected("too few keys to pick a split point");
  if (fraction <= 0.0 || fraction >= 1.0) {
    return Rejected("fraction must be in (0,1)");
  }
  size_t idx = static_cast<size_t>(static_cast<double>(data_.size()) * fraction);
  idx = std::min(std::max<size_t>(idx, 1), data_.size() - 1);
  // Stored keys are unique and >= range().lo(), and idx >= 1, so the ranked
  // key is strictly greater than the smallest key and therefore > lo; keys
  // are stored only when inside the range, so it is also < hi. Rank select
  // is O(log n) via the tree's subtree counts (was std::advance, O(n)).
  return data_.AtRank(idx).key;
}

Result<std::string> Store::Get(const std::string& key) const {
  if (!range_.Contains(key)) return OutOfRange(key);
  const std::string* val = data_.Find(key);
  if (val == nullptr) return NotFound(key);
  return *val;
}

std::vector<std::pair<std::string, std::string>> Store::Scan(
    const std::string& lo, const std::string& hi, size_t limit) const {
  std::vector<std::pair<std::string, std::string>> out;
  auto it = data_.LowerBound(std::max(lo, range_.lo()));
  for (; it.valid() && out.size() < limit; it.Next()) {
    if (!hi.empty() && it.key() >= hi) break;
    if (!range_.Contains(it.key())) break;
    out.emplace_back(it.key(), it.value());
  }
  return out;
}

SnapshotPtr Store::TakeSnapshot() const {
  auto snap = std::make_shared<Snapshot>();
  snap->range = range_;
  snap->data.reserve(data_.size());
  for (auto it = data_.Begin(); it.valid(); it.Next()) {
    snap->data.emplace_back(it.key(), it.value());  // key order by iteration
  }
  snap->sessions = sessions_;
  return snap;
}

Result<SnapshotPtr> Store::TakeSnapshot(const KeyRange& sub) const {
  if (!range_.ContainsRange(sub)) {
    return Rejected("snapshot range " + sub.ToString() + " not within " +
                    range_.ToString());
  }
  auto snap = std::make_shared<Snapshot>();
  snap->range = sub;
  auto it = data_.LowerBound(sub.lo());
  for (; it.valid() && sub.Contains(it.key()); it.Next()) {
    snap->data.emplace_back(it.key(), it.value());
  }
  snap->sessions = sessions_;
  return SnapshotPtr(std::move(snap));
}

void Store::Restore(const Snapshot& snap) {
  range_ = snap.range;
  std::vector<BTreeMap::Item> items;
  items.reserve(snap.data.size());
  approx_bytes_ = 0;
  for (const auto& [k, v] : snap.data) {
    approx_bytes_ += EntryBytes(k, v);
    items.push_back(BTreeMap::Item{k, v});
  }
  data_.BuildFromSorted(std::move(items));  // snapshot data is key-sorted
  sessions_ = snap.sessions;
}

Status Store::RestrictRange(const KeyRange& sub) {
  if (!range_.ContainsRange(sub)) {
    return Rejected("restrict range " + sub.ToString() + " not within " +
                    range_.ToString());
  }
  Rebase(sub);
  return OkStatus();
}

void Store::Rebase(const KeyRange& range) {
  range_ = range;
  // Collect the surviving items in order and bulk-rebuild: cheaper and
  // simpler than per-key deletion for what is a rare, bulk operation.
  std::vector<BTreeMap::Item> keep;
  keep.reserve(data_.size());
  approx_bytes_ = 0;
  for (auto it = data_.Begin(); it.valid(); it.Next()) {
    if (!range.Contains(it.key())) continue;
    approx_bytes_ += EntryBytes(it.key(), it.value());
    keep.push_back(BTreeMap::Item{it.key(), it.value()});
  }
  data_.BuildFromSorted(std::move(keep));
}

Status Store::MergeIn(const Snapshot& snap) {
  if (range_.Overlaps(snap.range)) {
    return Rejected("merge ranges overlap: " + range_.ToString() + " / " +
                    snap.range.ToString());
  }
  auto merged = KeyRange::MergeAdjacent({range_, snap.range});
  if (!merged.ok()) return merged.status();
  range_ = *merged;
  for (const auto& [k, v] : snap.data) {
    // Ranges are disjoint, so these keys are new; keep-existing semantics
    // (emplace) are preserved by GetOrInsert's insert-if-absent.
    auto [val, inserted] = data_.GetOrInsert(k);
    if (inserted) *val = v;
    approx_bytes_ += EntryBytes(k, v);
  }
  for (const auto& [id, s] : snap.sessions) {
    auto [it, inserted] = sessions_.emplace(id, s);
    if (!inserted && s.last_seq > it->second.last_seq) it->second = s;
  }
  return OkStatus();
}

}  // namespace recraft::kv
