// Unit tests for the KV state machine: operations, range enforcement,
// session dedup, snapshots (serialize / restore / sub-range / merge).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>

#include "common/rng.h"
#include "kv/kv.h"
#include "kv/service.h"
#include "tests/codec_corpus.h"

namespace recraft::kv {
namespace {

Command Put(std::string k, std::string v, uint64_t client = 0,
            uint64_t seq = 0) {
  Command c;
  c.op = OpType::kPut;
  c.key = std::move(k);
  c.value = std::move(v);
  c.client_id = client;
  c.seq = seq;
  return c;
}

Command Get(std::string k) {
  Command c;
  c.op = OpType::kGet;
  c.key = std::move(k);
  return c;
}

Command Del(std::string k) {
  Command c;
  c.op = OpType::kDelete;
  c.key = std::move(k);
  return c;
}

TEST(KvStore, PutGetDelete) {
  Store s;
  EXPECT_TRUE(s.Apply(Put("a", "1")).status.ok());
  EXPECT_EQ(s.Apply(Get("a")).value, "1");
  EXPECT_TRUE(s.Apply(Del("a")).status.ok());
  EXPECT_EQ(s.Apply(Get("a")).status.code(), Code::kNotFound);
  EXPECT_EQ(s.Apply(Del("a")).status.code(), Code::kNotFound);
}

TEST(KvStore, RangeEnforced) {
  Store s(KeyRange("b", "m"));
  EXPECT_TRUE(s.Apply(Put("c", "1")).status.ok());
  EXPECT_EQ(s.Apply(Put("z", "1")).status.code(), Code::kOutOfRange);
  EXPECT_EQ(s.Apply(Get("z")).status.code(), Code::kOutOfRange);
}

TEST(KvStore, SessionDedupReturnsRecordedResult) {
  Store s;
  EXPECT_TRUE(s.Apply(Put("k", "v1", 9, 1)).status.ok());
  // Retry of seq 1 with different payload: no effect, original result.
  auto res = s.Apply(Put("k", "v2", 9, 1));
  EXPECT_TRUE(res.status.ok());
  EXPECT_EQ(s.Apply(Get("k")).value, "v1");
  // Newer seq applies.
  EXPECT_TRUE(s.Apply(Put("k", "v3", 9, 2)).status.ok());
  EXPECT_EQ(s.Apply(Get("k")).value, "v3");
}

TEST(KvStore, SessionsAreIndependent) {
  Store s;
  EXPECT_TRUE(s.Apply(Put("k", "a", 1, 5)).status.ok());
  EXPECT_TRUE(s.Apply(Put("k", "b", 2, 5)).status.ok());
  EXPECT_EQ(s.Apply(Get("k")).value, "b");
}

TEST(KvStore, ApproxBytesTracksContent) {
  Store s;
  size_t empty = s.ApproxBytes();
  (void)s.Apply(Put("key", std::string(1000, 'x')));
  EXPECT_GT(s.ApproxBytes(), empty + 1000);
  (void)s.Apply(Del("key"));
  EXPECT_EQ(s.ApproxBytes(), empty);
}

TEST(KvSnapshot, RoundTripThroughBytes) {
  Store s(KeyRange("a", "n"));
  (void)s.Apply(Put("b", "1", 7, 3));
  (void)s.Apply(Put("c", "2"));
  auto snap = s.TakeSnapshot();
  auto bytes = snap->Serialize();
  EXPECT_EQ(bytes.size(), snap->Serialize().size());
  auto back = Snapshot::Deserialize(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->data, snap->data);
  EXPECT_EQ(back->range, snap->range);
  ASSERT_EQ(back->sessions.count(7), 1u);
  EXPECT_EQ(back->sessions.at(7).last_seq, 3u);
}

TEST(KvSnapshot, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage{1, 2, 3};
  EXPECT_FALSE(Snapshot::Deserialize(garbage).ok());
}

// A count read from input is checked against the bytes left: a 17-byte
// image claiming 2^64-1 entries is an error, not a huge reserve.
TEST(KvSnapshot, HugeEntryCountIsRejected) {
  Encoder enc;
  enc.PutString("");  // range lo
  enc.PutString("");  // range hi
  enc.PutBool(true);  // hi is +inf
  enc.PutU64(~0ull);  // entry count
  ASSERT_EQ(enc.size(), 17u);
  EXPECT_FALSE(Snapshot::Deserialize(enc.buffer()).ok());
}

// The KV command body, a scan batch and a snapshot image encode to the
// bytes pinned in tests/codec_golden.inc and decode back to values that
// re-encode to them.
TEST(KvCodec, EveryImageMatchesGoldenBytes) {
  const Command cmd = corpus::KvCommand();
  const std::vector<uint8_t> cmd_golden = corpus::Golden("kv/command");
  sm::Command wire = EncodeCommand(cmd);
  EXPECT_EQ(corpus::Hex(wire.body), corpus::Hex(cmd_golden));
  wire.body = cmd_golden;
  auto cmd_back = DecodeCommand(wire);
  ASSERT_TRUE(cmd_back.ok()) << cmd_back.status().ToString();
  EXPECT_EQ(cmd_back->key, cmd.key);
  EXPECT_EQ(corpus::Hex(EncodeCommand(*cmd_back).body),
            corpus::Hex(cmd_golden));

  const std::vector<uint8_t> batch_golden = corpus::Golden("kv/scan_batch");
  const std::string batch = EncodeScanBatch(corpus::ScanBatch());
  EXPECT_EQ(std::vector<uint8_t>(batch.begin(), batch.end()), batch_golden);
  auto batch_back = DecodeScanBatch(batch);
  ASSERT_TRUE(batch_back.ok());
  EXPECT_EQ(*batch_back, corpus::ScanBatch());

  const std::vector<uint8_t> snap_golden = corpus::Golden("kv/snapshot");
  EXPECT_EQ(corpus::Hex(corpus::KvSnapshot().Serialize()),
            corpus::Hex(snap_golden));
  auto snap_back = Snapshot::Deserialize(snap_golden);
  ASSERT_TRUE(snap_back.ok()) << snap_back.status().ToString();
  EXPECT_EQ(corpus::Hex(snap_back->Serialize()), corpus::Hex(snap_golden));
  EXPECT_EQ(snap_back->sessions.at(7).last_result.status.code(),
            Code::kConflict);
}

// Every strict prefix of each golden KV image fails to decode, and every
// single-byte flip decodes to a value or a Status, never an exception.
TEST(KvCodec, CorruptedImagesNeverThrow) {
  auto check = [](const std::string& name, auto decode) {
    SCOPED_TRACE(name);
    corpus::ForEachCorruption(
        corpus::Golden(name),
        [&](const std::vector<uint8_t>& bytes, bool prefix) {
          bool ok = true;
          EXPECT_NO_THROW(ok = decode(bytes));
          if (prefix) {
            EXPECT_FALSE(ok) << bytes.size() << "-byte prefix";
          }
        });
  };
  check("kv/command", [](const std::vector<uint8_t>& b) {
    sm::Command c;
    c.body = b;
    return DecodeCommand(c).ok();
  });
  check("kv/scan_batch", [](const std::vector<uint8_t>& b) {
    return DecodeScanBatch(std::string(b.begin(), b.end())).ok();
  });
  check("kv/snapshot", [](const std::vector<uint8_t>& b) {
    return Snapshot::Deserialize(b).ok();
  });
}

// A 4-byte scan batch claiming 2^32-1 entries is an error.
TEST(KvCodec, HugeScanCountIsRejected) {
  EXPECT_FALSE(DecodeScanBatch(std::string(4, '\xff')).ok());
}

TEST(KvSnapshot, SubRangeSnapshot) {
  Store s;
  (void)s.Apply(Put("a", "1"));
  (void)s.Apply(Put("h", "2"));
  (void)s.Apply(Put("q", "3"));
  auto sub = s.TakeSnapshot(KeyRange("h", "p"));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ((*sub)->data.size(), 1u);
  EXPECT_EQ((*sub)->data.at("h"), "2");
  // Requesting outside the store's range fails.
  Store narrow(KeyRange("a", "b"));
  EXPECT_FALSE(narrow.TakeSnapshot(KeyRange("c", "d")).ok());
}

TEST(KvStore, RestoreReplacesEverything) {
  Store a;
  (void)a.Apply(Put("x", "1", 5, 2));
  auto snap = a.TakeSnapshot();
  Store b;
  (void)b.Apply(Put("y", "2"));
  b.Restore(*snap);
  EXPECT_EQ(b.size(), 1u);
  EXPECT_EQ(*b.Get("x"), "1");
  EXPECT_FALSE(b.Get("y").ok());
  // Sessions restored: seq 2 deduped.
  auto res = b.Apply(Put("x", "overwrite", 5, 2));
  EXPECT_EQ(*b.Get("x"), "1");
  (void)res;
}

TEST(KvStore, RestrictRangeDropsOutsideKeys) {
  Store s;
  (void)s.Apply(Put("a", "1"));
  (void)s.Apply(Put("m", "2"));
  ASSERT_TRUE(s.RestrictRange(KeyRange("", "m")).ok());
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Get("a").ok());
  EXPECT_EQ(s.Apply(Put("z", "3")).status.code(), Code::kOutOfRange);
  // Cannot "restrict" to a non-subrange.
  EXPECT_FALSE(s.RestrictRange(KeyRange("", "z")).ok());
}

TEST(KvStore, MergeInAdjacentSnapshot) {
  Store left(KeyRange("", "m"));
  (void)left.Apply(Put("a", "1", 3, 1));
  Store right(KeyRange("m", ""));
  (void)right.Apply(Put("q", "2", 3, 4));
  auto snap = right.TakeSnapshot();
  ASSERT_TRUE(left.MergeIn(*snap).ok());
  EXPECT_EQ(left.range(), KeyRange::Full());
  EXPECT_EQ(*left.Get("a"), "1");
  EXPECT_EQ(*left.Get("q"), "2");
  // Sessions union keeps the larger seq.
  auto res = left.Apply(Put("b", "dup", 3, 4));
  EXPECT_FALSE(left.Get("b").ok());
  (void)res;
}

TEST(KvStore, MergeInRejectsOverlapAndGap) {
  Store left(KeyRange("", "m"));
  Store overlapping(KeyRange("l", ""));
  EXPECT_FALSE(left.MergeIn(*overlapping.TakeSnapshot()).ok());
  Store gap(KeyRange("n", ""));
  EXPECT_FALSE(left.MergeIn(*gap.TakeSnapshot()).ok());
}

TEST(KvSnapshot, SerializedBytesScalesWithContent) {
  Store s;
  auto empty_bytes = s.TakeSnapshot()->SerializedBytes();
  for (int i = 0; i < 100; ++i) {
    (void)s.Apply(Put("key" + std::to_string(i), std::string(100, 'v')));
  }
  EXPECT_GT(s.TakeSnapshot()->SerializedBytes(), empty_bytes + 100 * 100);
}

TEST(KvStore, ScanClampsToRangeAndRestriction) {
  Store s;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        s.Apply(Put("k" + std::to_string(i), std::to_string(i))).status.ok());
  }
  // A range restriction (split completion) must bound later scans too.
  ASSERT_TRUE(s.RestrictRange(KeyRange("", "k4")).ok());
  auto got = s.Scan("k0", "", 100);
  ASSERT_EQ(got.size(), 4u);  // k0..k3 survive, the scan stops at the range
  EXPECT_EQ(got.back().first, "k3");
  // lo below the range clamps up to range.lo().
  EXPECT_EQ(s.Scan("", "", 100).size(), 4u);
}

TEST(KvStore, CasDedupsThroughSessions) {
  Store s;
  Command cas;
  cas.op = OpType::kCas;
  cas.key = "k";
  cas.expected = "";
  cas.value = "v1";
  cas.client_id = 7;
  cas.seq = 1;
  ASSERT_TRUE(s.Apply(cas).status.ok());
  // The retried CAS must return the recorded success, not re-evaluate the
  // (now failing) expectation.
  auto retry = s.Apply(cas);
  EXPECT_TRUE(retry.status.ok());
  // A fresh CAS at the next seq sees the real state and conflicts.
  cas.seq = 2;
  auto miss = s.Apply(cas);
  EXPECT_EQ(miss.status.code(), Code::kConflict);
  EXPECT_EQ(miss.value, "v1");
}

// ---------------------------------------------------------------------------
// Differential harness: the B+-tree-backed Store against a std::map reference
// model executing the pre-swap semantics, over randomized op sequences. Every
// observable is compared — Apply results (status code + value), Get, Scan,
// KeyAtFraction, TakeSnapshot (full and sub-range), size, ApproxBytes — and
// the bulk operations (RestrictRange, Rebase, MergeIn) are applied to both
// sides mid-stream, session dedup included.

class RefModel {
 public:
  explicit RefModel(KeyRange range = KeyRange::Full())
      : range_(std::move(range)) {}

  OpResult Apply(const Command& cmd) {
    Session* sess = nullptr;
    if (cmd.client_id != 0) {
      sess = &sessions_[cmd.client_id];
      if (cmd.seq != 0 && cmd.seq <= sess->last_seq) {
        return sess->last_result;
      }
    }
    OpResult res;
    if (!range_.Contains(cmd.key)) {
      res.status = OutOfRange(cmd.key);
    } else {
      switch (cmd.op) {
        case OpType::kPut: {
          auto it = data_.find(cmd.key);
          if (it != data_.end()) {
            bytes_ -= EntryBytes(it->first, it->second);
            it->second = cmd.value;
          } else {
            data_.emplace(cmd.key, cmd.value);
          }
          bytes_ += EntryBytes(cmd.key, cmd.value);
          res.status = OkStatus();
          break;
        }
        case OpType::kGet: {
          auto it = data_.find(cmd.key);
          if (it == data_.end()) {
            res.status = NotFound(cmd.key);
          } else {
            res.status = OkStatus();
            res.value = it->second;
          }
          break;
        }
        case OpType::kDelete: {
          auto it = data_.find(cmd.key);
          if (it == data_.end()) {
            res.status = NotFound(cmd.key);
          } else {
            bytes_ -= EntryBytes(it->first, it->second);
            data_.erase(it);
            res.status = OkStatus();
          }
          break;
        }
        case OpType::kCas: {
          auto it = data_.find(cmd.key);
          const std::string current = it == data_.end() ? "" : it->second;
          if (current != cmd.expected) {
            res.status = Conflict(cmd.key);
            res.value = current;
            break;
          }
          if (it != data_.end()) {
            bytes_ -= EntryBytes(it->first, it->second);
            it->second = cmd.value;
          } else {
            data_.emplace(cmd.key, cmd.value);
          }
          bytes_ += EntryBytes(cmd.key, cmd.value);
          res.status = OkStatus();
          break;
        }
        case OpType::kScan: {
          res.status = OkStatus();
          res.value = EncodeScanBatch(Scan(
              cmd.key, cmd.scan_hi,
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

  std::vector<std::pair<std::string, std::string>> Scan(
      const std::string& lo, const std::string& hi, size_t limit) const {
    std::vector<std::pair<std::string, std::string>> out;
    auto it = data_.lower_bound(std::max(lo, range_.lo()));
    for (; it != data_.end() && out.size() < limit; ++it) {
      if (!hi.empty() && it->first >= hi) break;
      if (!range_.Contains(it->first)) break;
      out.emplace_back(it->first, it->second);
    }
    return out;
  }

  std::string KeyAtFraction(double fraction) const {
    size_t idx =
        static_cast<size_t>(static_cast<double>(data_.size()) * fraction);
    idx = std::min(std::max<size_t>(idx, 1), data_.size() - 1);
    auto it = data_.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(idx));
    return it->first;
  }

  void Rebase(const KeyRange& range) {
    range_ = range;
    for (auto it = data_.begin(); it != data_.end();) {
      if (!range.Contains(it->first)) {
        bytes_ -= EntryBytes(it->first, it->second);
        it = data_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void MergeIn(const KeyRange& merged_range, const Snapshot& snap) {
    range_ = merged_range;
    for (const auto& [k, v] : snap.data) {
      if (data_.emplace(k, v).second) bytes_ += EntryBytes(k, v);
    }
    for (const auto& [id, s] : snap.sessions) {
      auto [it, inserted] = sessions_.emplace(id, s);
      if (!inserted && s.last_seq > it->second.last_seq) it->second = s;
    }
  }

  const KeyRange& range() const { return range_; }
  size_t size() const { return data_.size(); }
  size_t bytes() const { return bytes_; }
  const std::map<std::string, std::string>& data() const { return data_; }

 private:
  static size_t EntryBytes(const std::string& k, const std::string& v) {
    return k.size() + v.size() + 16;  // must mirror kv.cpp's accounting
  }

  KeyRange range_;
  std::map<std::string, std::string> data_;
  std::map<uint64_t, Session> sessions_;
  size_t bytes_ = 0;
};

void ExpectStateParity(const Store& store, const RefModel& ref) {
  ASSERT_EQ(store.size(), ref.size());
  ASSERT_EQ(store.ApproxBytes(), ref.bytes());
  // Full snapshot doubles as the ordered-iteration check.
  SnapshotPtr snap = store.TakeSnapshot();
  ASSERT_EQ(snap->data.size(), ref.data().size());
  auto rit = ref.data().begin();
  for (const auto& [k, v] : snap->data) {
    ASSERT_EQ(k, rit->first);
    ASSERT_EQ(v, rit->second);
    ++rit;
  }
}

std::string PoolKey(uint64_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%04llu",
                static_cast<unsigned long long>(i));
  return buf;
}

TEST(KvDifferential, RandomOpSequencesMatchMapModel) {
  constexpr uint64_t kPool = 1500;  // enough keys for a three-level tree
  for (uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    Store store;
    RefModel ref;
    for (int iter = 0; iter < 8000; ++iter) {
      Command cmd;
      cmd.key = PoolKey(rng.Uniform(0, kPool - 1));
      uint64_t dice = rng.Uniform(0, 99);
      if (dice < 45) {
        cmd.op = OpType::kPut;
        cmd.value = "v" + std::to_string(rng.Uniform(0, 9999));
      } else if (dice < 60) {
        cmd.op = OpType::kGet;
      } else if (dice < 78) {
        cmd.op = OpType::kDelete;
      } else if (dice < 88) {
        cmd.op = OpType::kCas;
        cmd.value = "c" + std::to_string(rng.Uniform(0, 999));
        // Half the time aim at the live value so CAS succeeds sometimes.
        if (rng.Uniform(0, 1) == 0) {
          auto cur = store.Get(cmd.key);
          cmd.expected = cur.ok() ? *cur : "";
        } else {
          cmd.expected = "x";
        }
      } else {
        cmd.op = OpType::kScan;
        cmd.scan_hi = rng.Uniform(0, 1) == 0
                          ? PoolKey(rng.Uniform(0, kPool - 1))
                          : "";
        cmd.scan_limit = static_cast<uint32_t>(rng.Uniform(1, 40));
      }
      // A third of ops carry a session; retries (same seq) are common.
      if (rng.Uniform(0, 2) == 0) {
        cmd.client_id = 1 + rng.Uniform(0, 3);
        cmd.seq = 1 + rng.Uniform(0, 40);
      }

      OpResult got = store.Apply(cmd);
      OpResult want = ref.Apply(cmd);
      ASSERT_EQ(got.status.code(), want.status.code())
          << "seed " << seed << " iter " << iter;
      ASSERT_EQ(got.value, want.value) << "seed " << seed << " iter " << iter;

      if (iter % 97 == 0) {
        ExpectStateParity(store, ref);
        if (store.size() >= 2) {
          double f = 0.05 + 0.9 * rng.NextDouble();
          auto k = store.KeyAtFraction(f);
          ASSERT_TRUE(k.ok());
          ASSERT_EQ(*k, ref.KeyAtFraction(f));
        }
        // Sub-range snapshot parity against the model's scan.
        std::string lo = PoolKey(rng.Uniform(0, kPool / 2));
        std::string hi = PoolKey(kPool / 2 + rng.Uniform(1, kPool / 2 - 1));
        auto sub = store.TakeSnapshot(KeyRange(lo, hi));
        ASSERT_TRUE(sub.ok());
        auto want_sub = ref.Scan(lo, hi, kPool);
        ASSERT_EQ((*sub)->data.size(), want_sub.size());
        for (size_t i = 0; i < want_sub.size(); ++i) {
          ASSERT_EQ((*sub)->data[i], want_sub[i]);
        }
      }
      if (iter % 251 == 250) {
        // Shrink to a random subrange, verify, then rebase back to full —
        // exercises the bulk rebuilds against the map's erase loop.
        std::string lo = PoolKey(rng.Uniform(0, kPool / 3));
        std::string hi = PoolKey(kPool / 3 + rng.Uniform(1, kPool / 3));
        if (rng.Uniform(0, 1) == 0) {
          ASSERT_TRUE(store.RestrictRange(KeyRange(lo, hi)).ok());
        } else {
          store.Rebase(KeyRange(lo, hi));
        }
        ref.Rebase(KeyRange(lo, hi));
        ExpectStateParity(store, ref);
        store.Rebase(KeyRange::Full());
        ref.Rebase(KeyRange::Full());
      }
    }
    ExpectStateParity(store, ref);
  }
}

TEST(KvDifferential, MergeInMatchesMapModel) {
  Rng rng(7);
  Store store;
  RefModel ref;
  for (int i = 0; i < 500; ++i) {
    Command cmd;
    cmd.op = OpType::kPut;
    cmd.key = PoolKey(rng.Uniform(0, 400));
    cmd.value = "v" + std::to_string(i);
    cmd.client_id = 1 + rng.Uniform(0, 1);
    cmd.seq = static_cast<uint64_t>(i) + 1;
    store.Apply(cmd);
    ref.Apply(cmd);
  }
  store.Rebase(KeyRange("", "k0500"));
  ref.Rebase(KeyRange("", "k0500"));

  Snapshot snap;
  snap.range = KeyRange("k0500", "");
  for (uint64_t i = 500; i < 620; i += 3) {
    snap.data.emplace_back(PoolKey(i), "m" + std::to_string(i));
  }
  Session hi_seq;
  hi_seq.last_seq = 10000;
  hi_seq.last_result.status = OkStatus();
  snap.sessions.emplace(1, hi_seq);

  ASSERT_TRUE(store.MergeIn(snap).ok());
  ref.MergeIn(KeyRange::Full(), snap);
  ExpectStateParity(store, ref);

  // The merged-in session (larger last_seq) must win the dedup race on both
  // sides: a stale retry is answered from the recorded result, not applied.
  Command retry;
  retry.op = OpType::kPut;
  retry.key = PoolKey(10);
  retry.value = "should-not-apply";
  retry.client_id = 1;
  retry.seq = 9999;
  OpResult got = store.Apply(retry);
  OpResult want = ref.Apply(retry);
  EXPECT_EQ(got.status.code(), want.status.code());
  EXPECT_EQ(store.Get(PoolKey(10)).ok(), ref.data().count(PoolKey(10)) > 0);
}

}  // namespace
}  // namespace recraft::kv
