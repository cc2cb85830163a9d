// The persistence subsystem in isolation: durable-format round trips,
// SimDisk pending/durable semantics, WAL replay over SimDisk and FileDisk,
// group commit, checkpoint rewrite, and the parameterized crash-point
// matrix (torn tail, partial batch, snapshot/log divergence, double crash
// during replay).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "kv/kv_machine.h"
#include "kv/service.h"
#include "storage/codec.h"
#include "storage/file_disk.h"
#include "storage/sim_disk.h"
#include "storage/storage.h"
#include "storage/wal_storage.h"
#include "tests/test_util.h"

namespace recraft::storage {
namespace {

raft::LogEntry KvEntry(Index index, uint64_t term, const std::string& key,
                       const std::string& value) {
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = key;
  cmd.value = value;
  cmd.client_id = 7;
  cmd.seq = index;
  raft::LogEntry e;
  e.index = index;
  e.term = term;
  e.payload = kv::EncodeCommand(cmd);
  return e;
}

raft::MergePlan SamplePlan() {
  raft::MergePlan plan;
  plan.tx = 42;
  raft::SubCluster a;
  a.members = {1, 2, 3};
  a.range = KeyRange("", "m");
  a.uid = 111;
  raft::SubCluster b;
  b.members = {4, 5, 6};
  b.range = KeyRange("m", "");
  b.uid = 222;
  plan.sources = {a, b};
  plan.coordinator = 0;
  plan.new_epoch = 3;
  plan.new_uid = 333;
  plan.new_range = KeyRange::Full();
  plan.resume_members = {1, 2, 3, 4};
  return plan;
}

// ---------------------------------------------------------------------------
// Codec round trips.

TEST(StorageCodec, LogEntryPayloadsRoundTrip) {
  std::vector<raft::LogEntry> entries;
  entries.push_back(KvEntry(1, 5, "k", "v"));
  {
    raft::LogEntry e;
    e.index = 2;
    e.term = 5;
    e.payload = raft::NoOp{};
    entries.push_back(e);
  }
  {
    raft::LogEntry e;
    e.index = 3;
    e.term = 5;
    e.payload = raft::ConfInit{{1, 2, 3}, KeyRange("a", "q"), 99};
    entries.push_back(e);
  }
  {
    raft::SplitPlan sp;
    sp.subs = SamplePlan().sources;
    raft::LogEntry e;
    e.index = 4;
    e.term = 6;
    e.payload = raft::ConfSplitJoint{sp};
    entries.push_back(e);
    e.index = 5;
    e.payload = raft::ConfSplitNew{sp};
    entries.push_back(e);
  }
  {
    raft::MemberChange mc;
    mc.kind = raft::MemberChangeKind::kRemoveAndResize;
    mc.nodes = {2};
    raft::LogEntry e;
    e.index = 6;
    e.term = 6;
    e.payload = raft::ConfMember{mc};
    entries.push_back(e);
  }
  {
    raft::LogEntry e;
    e.index = 7;
    e.term = 7;
    e.payload = raft::ConfMergeTx{SamplePlan(), true};
    entries.push_back(e);
    e.index = 8;
    e.payload = raft::ConfMergeOutcome{SamplePlan(), false};
    entries.push_back(e);
  }
  {
    kv::Snapshot snap;
    snap.range = KeyRange("m", "");
    snap.data = {{"mm", "1"}, {"zz", "2"}};
    snap.sessions[9] = kv::Session{4, {OkStatus(), "r"}};
    raft::LogEntry e;
    e.index = 9;
    e.term = 7;
    e.payload = raft::ConfSetRange{
        KeyRange::Full(),
        kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>(snap))};
    entries.push_back(e);
  }
  {
    raft::LogEntry e;
    e.index = 10;
    e.term = 8;
    e.payload = raft::ConfAbortSettled{42};
    entries.push_back(e);
  }

  for (const auto& e : entries) {
    Encoder enc;
    EncodeLogEntry(enc, e);
    std::vector<uint8_t> bytes = enc.Take();
    Decoder dec(bytes);
    auto back = DecodeLogEntry(dec);
    ASSERT_TRUE(back.ok()) << e.Describe();
    EXPECT_TRUE(dec.AtEnd()) << e.Describe();
    EXPECT_EQ(back->index, e.index);
    EXPECT_EQ(back->term, e.term);
    EXPECT_EQ(back->payload.index(), e.payload.index());
    EXPECT_EQ(back->Describe(), e.Describe());
  }
}

TEST(StorageCodec, RaftSnapshotRoundTrip) {
  raft::RaftSnapshot snap;
  snap.last_index = 17;
  snap.last_term = (3ull << 32) | 4;
  kv::Snapshot data;
  data.range = KeyRange("a", "z");
  data.data = {{"b", "1"}, {"c", "2"}};
  data.sessions[5] = kv::Session{9, {NotFound("x"), ""}};
  snap.state = kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>(data));
  snap.config.mode = raft::ConfigMode::kSplitLeaving;
  snap.config.members = {1, 2, 3};
  snap.config.fixed_quorum = 2;
  snap.config.range = KeyRange("a", "z");
  snap.config.uid = 77;
  snap.config.split.subs = SamplePlan().sources;
  snap.config.joint_index = 9;
  snap.config.cnew_index = 11;
  snap.config.merge_tx = SamplePlan();
  snap.config.merge_tx_index = 12;
  snap.config.merge_outcome_index = 13;
  snap.config.merge_outcome_commit = true;
  snap.config.merge_outcome_plan = SamplePlan();
  raft::ReconfigRecord rec;
  rec.kind = raft::ReconfigRecord::Kind::kSplit;
  rec.epoch = 2;
  rec.uid = 55;
  rec.members = {1, 2};
  rec.range = KeyRange("a", "m");
  rec.boundary_index = 6;
  snap.history.push_back(rec);
  snap.unsettled_aborts[42] = SamplePlan();

  Encoder enc;
  EncodeRaftSnapshot(enc, snap);
  std::vector<uint8_t> bytes = enc.Take();
  Decoder dec(bytes);
  auto back = DecodeRaftSnapshot(dec);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->last_index, snap.last_index);
  EXPECT_EQ(back->last_term, snap.last_term);
  ASSERT_NE(back->state, nullptr);
  auto unwrapped = kv::KvMachine::Unwrap(*back->state);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(unwrapped->data, data.data);
  EXPECT_EQ(back->config.ToString(), snap.config.ToString());
  EXPECT_EQ(back->config.merge_tx->tx, 42u);
  ASSERT_EQ(back->history.size(), 1u);
  EXPECT_EQ(back->history[0].boundary_index, 6u);
  ASSERT_EQ(back->unsettled_aborts.size(), 1u);
  EXPECT_EQ(back->unsettled_aborts.begin()->second.new_uid, 333u);
}

TEST(StorageCodec, CrcDetectsBitRot) {
  std::vector<uint8_t> data{1, 2, 3, 4, 5, 6, 7, 8};
  uint32_t before = Crc32(data);
  data[3] ^= 0x10;
  EXPECT_NE(before, Crc32(data));
}

// Bit-at-a-time CRC-32 straight from the polynomial: the reference the
// table-driven Crc32 must reproduce bit for bit.
uint32_t BitwiseCrc32(const uint8_t* data, size_t n) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

TEST(StorageCodec, CrcKnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
}

TEST(StorageCodec, CrcMatchesBitwiseReferenceAtEveryAlignment) {
  std::vector<uint8_t> buf(4096 + 8);
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<uint8_t>(x);
  }
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 64; ++n) lengths.push_back(n);
  lengths.push_back(600);
  lengths.push_back(4096);
  for (size_t align = 0; align < 8; ++align) {
    for (size_t n : lengths) {
      const uint8_t* p = buf.data() + align;
      EXPECT_EQ(Crc32(p, n), BitwiseCrc32(p, n))
          << "len=" << n << " align=" << align;
    }
  }
}

// ---------------------------------------------------------------------------
// SimDisk semantics.

TEST(SimDisk, PendingBytesDieWithACrash) {
  SimDisk disk;
  disk.Append("wal", {1, 2, 3});
  EXPECT_EQ(disk.DurableSize("wal"), 0u);
  disk.Flush("wal");
  EXPECT_EQ(disk.DurableSize("wal"), 3u);
  disk.Append("wal", {4, 5});
  disk.CrashAll();
  EXPECT_EQ(disk.DurableSize("wal"), 3u);
  EXPECT_EQ(disk.PendingSize("wal"), 0u);
  EXPECT_EQ(disk.stats().crash_lost_bytes, 2u);
}

TEST(SimDisk, CrashCanKeepAPendingPrefix) {
  SimDisk disk;
  disk.Append("wal", {1, 2, 3, 4});
  disk.CrashKeepingPrefix("wal", 2);
  ASSERT_EQ(disk.DurableSize("wal"), 2u);
  EXPECT_EQ(disk.ReadDurable("wal")[1], 2);
}

TEST(SimDisk, AtomicWritesAreImmediatelyDurableAndCounted) {
  SimDisk disk;
  disk.WriteAtomic("snap-1", std::vector<uint8_t>(1024, 0xab));
  EXPECT_EQ(disk.DurableSize("snap-1"), 1024u);
  EXPECT_EQ(disk.stats().atomic_writes, 1u);
  EXPECT_EQ(disk.List("snap-").size(), 1u);
}

// ---------------------------------------------------------------------------
// WalStorage recovery over both Disk backends (synchronous flush mode).
// Reopen() is a reboot's view of the node's disk: the same SimDisk object,
// or a new FileDisk on the same directory that reads every byte back from
// the file system.

enum class DiskKind { kSim, kFile };

class WalOverDisk : public ::testing::TestWithParam<DiskKind> {
 protected:
  std::shared_ptr<Disk> Reopen() {
    if (GetParam() == DiskKind::kSim) return sim_;
    return std::make_shared<FileDisk>(dir_.path());
  }

 private:
  std::shared_ptr<SimDisk> sim_ = std::make_shared<SimDisk>();
  test::TempDir dir_;
};

TEST_P(WalOverDisk, StateRoundTripsThroughRecovery) {
  WalStorage::Options wopts;  // flush_interval = 0: synchronous
  {
    WalStorage wal(Reopen(), nullptr, wopts);
    wal.PersistHardState(HardState{5, 2, 3});
    for (Index i = 1; i <= 5; ++i) {
      wal.OnLogAppend(KvEntry(i, 5, "k" + std::to_string(i), "v"));
    }
    wal.OnLogTruncateFrom(5);  // lost a conflict at the tail
    wal.OnLogAppend(KvEntry(5, 6, "k5b", "v2"));
    kv::Snapshot sealed;
    sealed.range = KeyRange("", "m");
    sealed.data = {{"a", "1"}};
    wal.PersistSealed(
        42, 1, kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>(sealed)));
    ExchangeMeta meta;
    meta.pending_plan = SamplePlan();
    ExchangeGcImage gc;
    gc.tx = 42;
    gc.resumed = {1, 2};
    gc.targets = {1, 2, 3};
    gc.done = {2};
    gc.self_done = true;
    meta.gc.push_back(gc);
    wal.PersistExchangeMeta(meta);
  }
  WalStorage fresh(Reopen(), nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_TRUE(img->present);
  EXPECT_EQ(img->hard.term, 5u);
  EXPECT_EQ(img->hard.voted_for, 2u);
  EXPECT_EQ(img->hard.commit, 3u);
  ASSERT_EQ(img->entries.size(), 5u);
  EXPECT_EQ(img->entries.back().term, 6u);
  EXPECT_EQ(img->entries.back().Describe(),
            KvEntry(5, 6, "k5b", "v2").Describe());
  ASSERT_EQ(img->sealed.size(), 1u);
  EXPECT_EQ(img->sealed.begin()->first, (std::pair<TxId, int>{42, 1}));
  ASSERT_TRUE(img->exchange.pending_plan.has_value());
  EXPECT_EQ(img->exchange.pending_plan->new_uid, 333u);
  ASSERT_EQ(img->exchange.gc.size(), 1u);
  EXPECT_TRUE(img->exchange.gc[0].self_done);
  EXPECT_FALSE(fresh.stats().tore_tail);
}

std::string Hex(std::vector<uint8_t>::const_iterator begin,
                std::vector<uint8_t>::const_iterator end) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (auto it = begin; it != end; ++it) {
    out.push_back(kDigits[*it >> 4]);
    out.push_back(kDigits[*it & 0xf]);
  }
  return out;
}

// Pins the durable format: [u32 len][u32 crc32(payload)][type][body] for
// one hard-state record and one log-entry append, byte for byte.
TEST(WalStorage, RecordFramingIsPinned) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage wal(disk, nullptr, WalStorage::Options{});  // synchronous
  wal.PersistHardState(HardState{5, 2, 3});
  const size_t hard_bytes = disk->DurableSize("wal");
  wal.OnLogAppend(KvEntry(1, 5, "k1", "v"));
  const std::vector<uint8_t>& wal_bytes = disk->ReadDurable("wal");
  EXPECT_EQ(Hex(wal_bytes.begin(), wal_bytes.begin() + hard_bytes),
            "15000000" "760fe097"  // len, crc
            "01" "0500000000000000" "02000000"  // type, term, voted_for
            "0300000000000000");                // commit
  EXPECT_EQ(Hex(wal_bytes.begin() + hard_bytes, wal_bytes.end()),
            "43000000" "42594ba8"  // len, crc
            "02" "0100000000000000" "0500000000000000"  // type, index, term
            "01" "02000000" "6b31"  // command tag, key "k1"
            "23000000"              // kv command body, 35 bytes
            "4b000700000000000000010000000000000001000000"
            "76000000000000000000000000"
            "1b000000");            // wire hint
}

TEST_P(WalOverDisk, SnapshotInstallAndCompactionSurviveRecovery) {
  WalStorage::Options wopts;
  {
    WalStorage wal(Reopen(), nullptr, wopts);
    for (Index i = 1; i <= 10; ++i) {
      wal.OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
    }
    auto snap = std::make_shared<raft::RaftSnapshot>();
    snap->last_index = 8;
    snap->last_term = 1;
    kv::Snapshot data;
    data.data = {{"k1", "v"}};
    snap->state =
        kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>(data));
    snap->config.members = {1, 2, 3};
    snap->config.uid = 9;
    wal.InstallSnapshot(snap);
    wal.OnLogCompactTo(8, 1);
    wal.Sync();
  }
  WalStorage fresh(Reopen(), nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  ASSERT_NE(img->snap, nullptr);
  EXPECT_EQ(img->snap->last_index, 8u);
  EXPECT_EQ(img->base_index, 8u);
  ASSERT_EQ(img->entries.size(), 2u);
  EXPECT_EQ(img->entries.front().index, 9u);
}

TEST(WalStorage, GroupCommitBatchesAndGatesDurableIndex) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;  // manual mode (no event queue)
  WalStorage wal(disk, nullptr, wopts);
  for (Index i = 1; i <= 8; ++i) {
    wal.OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
  }
  // Nothing flushed yet: nothing durable, nothing ackable.
  EXPECT_EQ(wal.DurableIndex(), 0u);
  EXPECT_EQ(disk->stats().flushes, 0u);
  wal.Sync();
  EXPECT_EQ(wal.DurableIndex(), 8u);
  // One fsync covered all eight records — that is the batching win.
  EXPECT_EQ(disk->stats().flushes, 1u);
}

TEST(WalStorage, VoteChangesFlushSynchronouslyEvenWhenBatched) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;
  WalStorage wal(disk, nullptr, wopts);
  wal.PersistHardState(HardState{7, 3, 0});  // term+vote: must hit the disk
  EXPECT_GE(disk->stats().flushes, 1u);
  uint64_t flushes = disk->stats().flushes;
  wal.PersistHardState(HardState{7, 3, 5});  // commit-only: may batch
  EXPECT_EQ(disk->stats().flushes, flushes);
  // A crash now must still remember the vote (commit may rewind).
  wal.Crash(CrashSpec{});
  WalStorage fresh(disk, nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->hard.term, 7u);
  EXPECT_EQ(img->hard.voted_for, 3u);
  EXPECT_EQ(img->hard.commit, 0u);
}

TEST_P(WalOverDisk, CheckpointRewriteBoundsTheWalFile) {
  WalStorage::Options wopts;
  wopts.rewrite_slack_bytes = 4 * 1024;
  WalStorage wal(Reopen(), nullptr, wopts);
  std::string big(128, 'x');
  Index next = 1;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 10; ++i, ++next) {
      wal.OnLogAppend(KvEntry(next, 1, "k" + std::to_string(next), big));
    }
    auto snap = std::make_shared<raft::RaftSnapshot>();
    snap->last_index = next - 1;
    snap->last_term = 1;
    snap->state =
        kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>());
    wal.InstallSnapshot(snap);
    wal.OnLogCompactTo(next - 1, 1);
  }
  EXPECT_GT(wal.stats().wal_rewrites, 0u);
  EXPECT_LT(wal.wal_file_bytes(), 8u * 1024u);
  // And the rewritten WAL still recovers.
  wal.Sync();
  WalStorage fresh(Reopen(), nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_EQ(img->base_index, next - 1);
  ASSERT_NE(img->snap, nullptr);
  EXPECT_EQ(img->snap->last_index, next - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Disks, WalOverDisk, ::testing::Values(DiskKind::kSim, DiskKind::kFile),
    [](const ::testing::TestParamInfo<DiskKind>& info) {
      return info.param == DiskKind::kSim ? "SimDisk" : "FileDisk";
    });

// ---------------------------------------------------------------------------
// FileDisk: what a reboot finds in the directory.

TEST(FileDisk, TmpOrphanIsDiscardedAtConstruction) {
  test::TempDir dir;
  {
    FileDisk disk(dir.path());
    disk.WriteAtomic("snap-1", {1, 2, 3});
  }
  // A crash between WriteAtomic's temp write and its rename.
  const std::string orphan = dir.path() + "/snap-2.tmp";
  std::ofstream(orphan, std::ios::binary) << "half a blob";
  ASSERT_TRUE(std::filesystem::exists(orphan));
  FileDisk disk(dir.path());
  EXPECT_FALSE(std::filesystem::exists(orphan));
  EXPECT_EQ(disk.List(""), std::vector<std::string>{"snap-1"});
  EXPECT_EQ(disk.ReadDurable("snap-1"), (std::vector<uint8_t>{1, 2, 3}));
}

TEST(FileDisk, ExternallyCutWalTailIsDroppedAndLaterAppendsSurvive) {
  test::TempDir dir;
  WalStorage::Options wopts;  // synchronous
  {
    WalStorage wal(std::make_shared<FileDisk>(dir.path()), nullptr, wopts);
    ASSERT_TRUE(wal.Load().ok());
    wal.PersistHardState(HardState{2, 1, 0});
    for (Index i = 1; i <= 4; ++i) {
      wal.OnLogAppend(KvEntry(i, 2, "k" + std::to_string(i), "v"));
    }
  }
  // Cut the file mid-way through the last record, as a power loss can.
  const std::string wal_path = dir.path() + "/wal";
  const auto full = std::filesystem::file_size(wal_path);
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(full - 5)), 0);
  {
    WalStorage wal(std::make_shared<FileDisk>(dir.path()), nullptr, wopts);
    auto img = wal.Load();
    ASSERT_TRUE(img.ok());
    EXPECT_TRUE(wal.stats().tore_tail);
    ASSERT_EQ(img->entries.size(), 3u);
    EXPECT_LT(std::filesystem::file_size(wal_path), full - 5);  // cut
    wal.OnLogAppend(KvEntry(4, 3, "k4b", "v2"));
    wal.OnLogAppend(KvEntry(5, 3, "k5", "v"));
  }
  WalStorage wal(std::make_shared<FileDisk>(dir.path()), nullptr, wopts);
  auto img = wal.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_FALSE(wal.stats().tore_tail);
  EXPECT_EQ(img->hard.term, 2u);
  ASSERT_EQ(img->entries.size(), 5u);
  EXPECT_EQ(img->entries.back().Describe(),
            KvEntry(5, 3, "k5", "v").Describe());
}

// ---------------------------------------------------------------------------
// WalStorage over SimDisk: bit rot.

TEST(WalStorage, CorruptedMiddleRecordStopsReplayAtTheCorruption) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  {
    WalStorage wal(disk, nullptr, wopts);
    wal.PersistHardState(HardState{1, kNoNode, 0});
    for (Index i = 1; i <= 6; ++i) {
      wal.OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
    }
  }
  disk->CorruptDurable("wal", disk->DurableSize("wal") / 2);
  WalStorage fresh(disk, nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_TRUE(fresh.stats().tore_tail);
  EXPECT_LT(img->entries.size(), 6u);  // suffix after the rot is discarded
}

// ---------------------------------------------------------------------------
// Crash-point matrix: prepare the same batched workload, crash at each
// injection point, recover, and check exactly what must survive.

class CrashMatrix : public ::testing::TestWithParam<CrashPoint> {};

TEST_P(CrashMatrix, RecoversTheRightPrefix) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;  // manual: everything below is one batch
  auto wal = std::make_unique<WalStorage>(disk, nullptr, wopts);

  const CrashPoint point = GetParam();

  // Durable prefix: 4 entries, flushed.
  for (Index i = 1; i <= 4; ++i) {
    wal->OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
  }
  wal->Sync();
  auto snap = std::make_shared<raft::RaftSnapshot>();
  snap->last_index = 2;
  snap->last_term = 1;
  snap->state =
        kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>());
  snap->config.members = {1, 2, 3};
  wal->InstallSnapshot(snap);
  wal->OnLogCompactTo(2, 1);
  if (point != CrashPoint::kSnapLogDivergence) {
    // For the divergence point the snapshot marker itself must still be in
    // flight — that is the injected window. Everywhere else it is durable.
    wal->Sync();
  }

  // The in-flight batch: 4 more entries, never flushed.
  for (Index i = 5; i <= 8; ++i) {
    wal->OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
  }

  wal->Crash(CrashSpec{point});
  wal.reset();

  WalStorage fresh(disk, nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());

  switch (point) {
    case CrashPoint::kLosePending:
      // Exactly the flushed state: snapshot at 2, entries 3..4.
      ASSERT_NE(img->snap, nullptr);
      EXPECT_EQ(img->base_index, 2u);
      ASSERT_EQ(img->entries.size(), 2u);
      EXPECT_FALSE(fresh.stats().tore_tail);
      break;
    case CrashPoint::kTornTail: {
      // Whole in-flight records before the torn one survive; the torn one
      // is detected (CRC/truncation) and discarded.
      EXPECT_TRUE(fresh.stats().tore_tail);
      EXPECT_GT(fresh.stats().dropped_tail_bytes, 0u);
      ASSERT_GE(img->entries.size(), 2u);  // at least the durable prefix
      EXPECT_LT(img->entries.back().index, 8u);
      // Whatever survived is contiguous.
      Index want = img->base_index + 1;
      for (const auto& e : img->entries) EXPECT_EQ(e.index, want++);
      break;
    }
    case CrashPoint::kPartialBatch: {
      // A record-aligned prefix of the batch survives, cleanly.
      EXPECT_FALSE(fresh.stats().tore_tail);
      ASSERT_GE(img->entries.size(), 2u);
      EXPECT_GE(img->entries.back().index, 5u);  // some of the batch made it
      EXPECT_LT(img->entries.back().index, 8u);  // but not all of it
      break;
    }
    case CrashPoint::kSnapLogDivergence: {
      // The snapshot blob is durable but the WAL marker is gone: recovery
      // must fall back to the pre-snapshot state — the full log from the
      // genesis, no base movement — and stay consistent.
      EXPECT_EQ(img->base_index, 0u);
      ASSERT_EQ(img->entries.size(), 4u);
      EXPECT_EQ(img->snap, nullptr);
      EXPECT_TRUE(disk->Exists("snap-1"));  // the orphan blob is ignored
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPoints, CrashMatrix,
                         ::testing::Values(CrashPoint::kLosePending,
                                           CrashPoint::kTornTail,
                                           CrashPoint::kPartialBatch,
                                           CrashPoint::kSnapLogDivergence));

// Two snapshot generations stay on disk: installing the third deletes the
// first, and a crash that loses the third's WAL marker boots from the
// second — the generation the surviving WAL references — with no fallback.
TEST(WalStorage, DivergenceAfterThirdSnapshotBootsFromTheSecond) {
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;  // manual: the third marker stays in flight
  auto wal = std::make_unique<WalStorage>(disk, nullptr, wopts);
  for (Index i = 1; i <= 6; ++i) {
    wal->OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
  }
  wal->Sync();
  auto install = [&](Index at) {
    auto snap = std::make_shared<raft::RaftSnapshot>();
    snap->last_index = at;
    snap->last_term = 1;
    snap->state = kv::KvMachine::Wrap(std::make_shared<const kv::Snapshot>());
    snap->config.members = {1, 2, 3};
    wal->InstallSnapshot(snap);
    wal->OnLogCompactTo(at, 1);
  };
  install(2);
  wal->Sync();
  install(4);
  wal->Sync();
  install(6);  // blob durable, marker pending
  EXPECT_FALSE(disk->Exists("snap-1"));

  wal->Crash(CrashSpec{CrashPoint::kSnapLogDivergence});
  wal.reset();

  WalStorage fresh(disk, nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  ASSERT_NE(img->snap, nullptr);
  EXPECT_EQ(img->snap->last_index, 4u);  // snap-2
  EXPECT_EQ(img->base_index, 4u);
  ASSERT_EQ(img->entries.size(), 2u);
  EXPECT_EQ(img->entries.front().index, 5u);
  EXPECT_FALSE(disk->Exists("snap-1"));
  EXPECT_TRUE(disk->Exists("snap-2"));
  EXPECT_TRUE(disk->Exists("snap-3"));  // the orphan blob is ignored
  EXPECT_FALSE(fresh.stats().snapshot_fallback);
}

TEST(WalStorage, WritesAfterTornTailRecoverySurviveTheNextCrash) {
  // Regression: recovery must truncate the torn tail off the durable file.
  // If it merely skipped it, records appended after the reboot would land
  // BEHIND the garbage and a second crash would silently drop them —
  // including fsynced entries a leader counted toward commit.
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;
  {
    WalStorage wal(disk, nullptr, wopts);
    for (Index i = 1; i <= 4; ++i) {
      wal.OnLogAppend(KvEntry(i, 1, "k" + std::to_string(i), "v"));
    }
    wal.Sync();
    wal.OnLogAppend(KvEntry(5, 1, "k5", "v"));  // in flight, will tear
    wal.Crash(CrashSpec{CrashPoint::kTornTail});
  }
  {
    WalStorage wal(disk, nullptr, wopts);
    auto img = wal.Load();
    ASSERT_TRUE(img.ok());
    ASSERT_TRUE(wal.stats().tore_tail);
    ASSERT_EQ(img->entries.size(), 4u);
    // Post-recovery writes, fully fsynced...
    wal.OnLogAppend(KvEntry(5, 2, "k5b", "v2"));
    wal.OnLogAppend(KvEntry(6, 2, "k6", "v"));
    wal.PersistHardState(HardState{2, 3, 6});
    wal.Sync();
    wal.Crash(CrashSpec{CrashPoint::kLosePending});  // clean second crash
  }
  WalStorage fresh(disk, nullptr, wopts);
  auto img = fresh.Load();
  ASSERT_TRUE(img.ok());
  EXPECT_FALSE(fresh.stats().tore_tail);
  ASSERT_EQ(img->entries.size(), 6u);
  EXPECT_EQ(img->entries.back().index, 6u);
  EXPECT_EQ(img->hard.voted_for, 3u);  // the durably granted vote survived
}

TEST(WalStorage, DoubleCrashDuringReplayIsIdempotent) {
  // Recovery writes nothing except discarding a detected torn tail — an
  // idempotent cut. Crashing again mid-boot (before anything new is
  // written) and replaying once more must yield the identical image.
  auto disk = std::make_shared<SimDisk>();
  WalStorage::Options wopts;
  wopts.flush_interval = 1000;
  {
    WalStorage wal(disk, nullptr, wopts);
    wal.PersistHardState(HardState{3, 1, 2});
    for (Index i = 1; i <= 6; ++i) {
      wal.OnLogAppend(KvEntry(i, 3, "k" + std::to_string(i), "v"));
    }
    wal.Sync();
    wal.OnLogAppend(KvEntry(7, 3, "k7", "v"));  // in flight
    wal.Crash(CrashSpec{CrashPoint::kTornTail});
  }
  auto first = WalStorage(disk, nullptr, wopts).Load();  // crash mid-boot...
  ASSERT_TRUE(first.ok());
  std::vector<uint8_t> disk_after_first = disk->ReadDurable("wal");
  WalStorage again(disk, nullptr, wopts);
  auto second = again.Load();  // ...the second replay sees the same state.
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(again.stats().tore_tail);  // the cut does not repeat
  EXPECT_EQ(disk->ReadDurable("wal"), disk_after_first);
  EXPECT_EQ(second->hard.term, first->hard.term);
  EXPECT_EQ(second->entries.size(), first->entries.size());
  EXPECT_EQ(second->entries.back().index, 6u);
}

}  // namespace
}  // namespace recraft::storage
