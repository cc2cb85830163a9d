#include "storage/wal_storage.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "storage/codec.h"
#include "storage/sim_disk.h"

namespace recraft::storage {

namespace {
constexpr char kWalFile[] = "wal";
constexpr char kExMetaFile[] = "exmeta";
constexpr size_t kRecordHeaderBytes = 8;  // u32 len + u32 crc
/// Snapshot generations kept on disk: Load's divergence fallback needs the
/// previous one when the newest one's WAL marker was lost in a crash.
constexpr uint32_t kSnapshotsToKeep = 2;
}  // namespace

WalStorage::WalStorage(std::shared_ptr<Disk> disk, net::Clock* clock,
                       Options opts)
    : disk_(std::move(disk)), clock_(clock), opts_(opts) {
  assert(disk_ != nullptr);
}

WalStorage::~WalStorage() {
  if (clock_ != nullptr && flush_event_ != net::kNoTimer) {
    clock_->Cancel(flush_event_);
  }
}

std::string WalStorage::SnapFile(uint32_t gen) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "snap-%u", gen);
  return buf;
}

std::string WalStorage::SealFile(TxId tx, int source) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "seal-%llu-%d",
                static_cast<unsigned long long>(tx), source);
  return buf;
}

size_t WalStorage::wal_file_bytes() const { return wal_len_; }

size_t WalStorage::BeginRecord(Encoder& enc, RecordType type) {
  const size_t start = enc.size();
  enc.PutU32(0);  // len, patched by FinishRecord
  enc.PutU32(0);  // crc, patched by FinishRecord
  enc.PutU8(type);
  return start;
}

void WalStorage::FinishRecord(Encoder& enc, size_t start) {
  const size_t payload_at = start + kRecordHeaderBytes;
  const size_t n = enc.size() - payload_at;
  enc.PatchU32(start, static_cast<uint32_t>(n));
  enc.PatchU32(start + 4, Crc32(enc.buffer().data() + payload_at, n));
}

void WalStorage::AppendRecord(Encoder& record, bool force_sync) {
  FinishRecord(record, 0);
  pending_record_offsets_.push_back(wal_len_);
  wal_len_ += record.size();
  disk_->Append(kWalFile, record.buffer());
  ++stats_.records;
  ++pending_records_;
  if (force_sync || opts_.flush_interval == 0) {
    FlushNow(/*from_timer=*/false);
  } else if (clock_ != nullptr) {
    ArmFlush();
  }
  // clock_ == nullptr with a flush interval: manual mode — the owner
  // drives durability with Sync() (unit tests, crash injection setups).
}

void WalStorage::ArmFlush() {
  if (flush_event_ != net::kNoTimer) return;
  flush_event_ =
      clock_->CallAfter(opts_.flush_interval, [this]() { OnFlushTimer(); });
}

Duration WalStorage::StallPollInterval() const {
  return opts_.flush_interval > 0 ? opts_.flush_interval : 100;
}

void WalStorage::OnFlushTimer() {
  flush_event_ = net::kNoTimer;
  if (disk_->fsync_stalled()) {
    // The platter is unreachable: keep batching pending records and poll
    // until the stall heals. DurableIndex freezes, so follower acks and the
    // leader's own commit vote wait — delayed, never unsafe.
    flush_event_ =
        clock_->CallAfter(StallPollInterval(), [this]() { OnFlushTimer(); });
    return;
  }
  if (disk_->extra_fsync_latency() > 0 && !flush_deferred_) {
    // A latency spike defers this group commit once by the injected amount;
    // the next timer firing flushes whatever accumulated meanwhile.
    flush_deferred_ = true;
    flush_event_ = clock_->CallAfter(disk_->extra_fsync_latency(),
                                     [this]() { OnFlushTimer(); });
    return;
  }
  flush_deferred_ = false;
  FlushNow(/*from_timer=*/true);
}

void WalStorage::FlushNow(bool from_timer) {
  flush_deferred_ = false;
  if (pending_records_ > 0) {
    disk_->Flush(kWalFile);
    if (recorder_ != nullptr) {
      recorder_->Emit(recorder_node_, obs::Name::kWalFlush, obs::TraceCtx{},
                      pending_records_, from_timer ? 0 : 1);
    }
    if (from_timer) {
      ++stats_.batch_flushes;
    } else {
      ++stats_.sync_flushes;
    }
    pending_records_ = 0;
    pending_record_offsets_.clear();
    durable_index_ = model_.last_index();
  }
  // The callback is only safe from the top of the event loop: timer fires
  // and explicit Sync() qualify, mid-mutation synchronous flushes do not.
  if (from_timer && durable_cb_) durable_cb_();
}

void WalStorage::Sync() {
  FlushNow(/*from_timer=*/false);
  if (durable_cb_) durable_cb_();
}

Index WalStorage::DurableIndex() const {
  return std::min(durable_index_, model_.last_index());
}

// --- LogSink ---------------------------------------------------------------

void WalStorage::OnLogAppend(const raft::EntryRef& e) {
  assert(e->index == model_.last_index() + 1);
  Encoder enc;
  BeginRecord(enc, kRecAppend);
  EncodeLogEntry(enc, *e);
  model_.entries.PushShared(e);  // mirror by slab reference, no deep copy
  ++stats_.entry_records;
  AppendRecord(enc, /*force_sync=*/false);
}

void WalStorage::OnLogTruncateFrom(Index i) {
  Encoder enc;
  BeginRecord(enc, kRecTruncateFrom);
  enc.PutU64(i);
  while (!model_.entries.empty() && model_.entries.back().index >= i) {
    model_.entries.PopBack();
  }
  durable_index_ = std::min(durable_index_, model_.last_index());
  AppendRecord(enc, /*force_sync=*/false);
}

void WalStorage::OnLogCompactTo(Index i, uint64_t term) {
  Encoder enc;
  BeginRecord(enc, kRecCompactTo);
  enc.PutU64(i);
  enc.PutU64(term);
  while (!model_.entries.empty() && model_.entries.front().index <= i) {
    model_.entries.PopFront();
  }
  model_.base_index = i;
  model_.base_term = term;
  // Entries at or below the compaction point are covered by the snapshot
  // blob (installed synchronously before the log compacts).
  durable_index_ = std::max(durable_index_, i);
  AppendRecord(enc, /*force_sync=*/false);
  MaybeRewriteWal();
}

void WalStorage::OnLogReset(Index base, uint64_t term) {
  Encoder enc;
  BeginRecord(enc, kRecReset);
  enc.PutU64(base);
  enc.PutU64(term);
  model_.entries.Clear();
  model_.base_index = base;
  model_.base_term = term;
  durable_index_ = base;
  AppendRecord(enc, /*force_sync=*/false);
  MaybeRewriteWal();
}

// --- non-log state ---------------------------------------------------------

void WalStorage::PersistHardState(const HardState& hs) {
  // A node must never forget a granted vote or an adopted term; pure
  // commit-index advances may ride the next group commit.
  bool sync = hs.term != model_.hard.term ||
              hs.voted_for != model_.hard.voted_for;
  model_.hard = hs;
  Encoder enc;
  BeginRecord(enc, kRecHardState);
  enc.PutU64(hs.term);
  enc.PutU32(hs.voted_for);
  enc.PutU64(hs.commit);
  AppendRecord(enc, sync);
}

void WalStorage::InstallSnapshot(const raft::RaftSnapshotPtr& snap) {
  assert(snap != nullptr);
  uint32_t gen = model_.snap_gen + 1;
  Encoder blob;
  EncodeRaftSnapshot(blob, *snap);
  disk_->WriteAtomic(SnapFile(gen), blob.Take());  // durable before marker
  ++stats_.snapshots_written;
  if (gen > kSnapshotsToKeep) {
    disk_->Delete(SnapFile(gen - kSnapshotsToKeep));
  }
  model_.snap_gen = gen;
  model_.snap_index = snap->last_index;
  model_.snap_term = snap->last_term;
  Encoder enc;
  BeginRecord(enc, kRecSnapInstalled);
  enc.PutU32(gen);
  enc.PutU64(snap->last_index);
  enc.PutU64(snap->last_term);
  last_snap_record_off_ = wal_len_;
  // Deliberately batched: the window until the next flush is the
  // "crash between snapshot install and log truncation" crash point.
  AppendRecord(enc, /*force_sync=*/false);
}

void WalStorage::PersistSealed(TxId tx, int source,
                               const sm::SnapshotPtr& snap) {
  assert(snap != nullptr);
  Encoder enc;
  EncodeSmSnapshot(enc, *snap);
  disk_->WriteAtomic(SealFile(tx, source), enc.Take());
}

void WalStorage::PruneSealed(TxId tx) {
  char prefix[48];
  std::snprintf(prefix, sizeof(prefix), "seal-%llu-",
                static_cast<unsigned long long>(tx));
  for (const auto& name : disk_->List(prefix)) disk_->Delete(name);
}

void WalStorage::PersistExchangeMeta(const ExchangeMeta& meta) {
  Encoder enc;
  enc.PutBool(meta.pending_plan.has_value());
  if (meta.pending_plan) EncodeMergePlan(enc, *meta.pending_plan);
  enc.PutU32(static_cast<uint32_t>(meta.gc.size()));
  for (const auto& gc : meta.gc) {
    enc.PutU64(gc.tx);
    EncodeNodeVec(enc, gc.resumed);
    EncodeNodeVec(enc, gc.targets);
    EncodeNodeVec(enc, gc.done);
    enc.PutBool(gc.self_done);
  }
  disk_->WriteAtomic(kExMetaFile, enc.Take());
}

void WalStorage::WipeAll() {
  for (const auto& name : disk_->List("")) disk_->Delete(name);
  model_ = Model{};
  durable_index_ = 0;
  pending_records_ = 0;
  pending_record_offsets_.clear();
  wal_len_ = 0;
  last_snap_record_off_ = 0;
}

// --- checkpoint rewrite ----------------------------------------------------

std::vector<uint8_t> WalStorage::EncodeCheckpoint() const {
  // A compact, replayable equivalent of the live model: snapshot marker,
  // base reset, every live entry, final hard state — framed in one buffer.
  Encoder enc;
  if (model_.snap_gen > 0) {
    const size_t at = BeginRecord(enc, kRecSnapInstalled);
    enc.PutU32(model_.snap_gen);
    enc.PutU64(model_.snap_index);
    enc.PutU64(model_.snap_term);
    FinishRecord(enc, at);
  }
  {
    const size_t at = BeginRecord(enc, kRecReset);
    enc.PutU64(model_.base_index);
    enc.PutU64(model_.base_term);
    FinishRecord(enc, at);
  }
  for (size_t i = 0; i < model_.entries.size(); ++i) {
    const size_t at = BeginRecord(enc, kRecAppend);
    EncodeLogEntry(enc, model_.entries.At(i));
    FinishRecord(enc, at);
  }
  {
    const size_t at = BeginRecord(enc, kRecHardState);
    enc.PutU64(model_.hard.term);
    enc.PutU32(model_.hard.voted_for);
    enc.PutU64(model_.hard.commit);
    FinishRecord(enc, at);
  }
  return enc.Take();
}

void WalStorage::MaybeRewriteWal() {
  if (wal_len_ <= opts_.rewrite_slack_bytes) return;
  std::vector<uint8_t> checkpoint = EncodeCheckpoint();
  if (checkpoint.size() * 2 >= wal_len_) return;  // not enough dead weight
  wal_len_ = checkpoint.size();
  last_snap_record_off_ = 0;  // the snapshot marker leads the checkpoint
  pending_records_ = 0;
  pending_record_offsets_.clear();
  disk_->WriteAtomic(kWalFile, std::move(checkpoint));
  durable_index_ = model_.last_index();  // atomic replace is durable
  ++stats_.wal_rewrites;
}

// --- crash injection -------------------------------------------------------

void WalStorage::Crash(const CrashSpec& spec) {
  if (clock_ != nullptr && flush_event_ != net::kNoTimer) {
    clock_->Cancel(flush_event_);
    flush_event_ = net::kNoTimer;
  }
  // Crash *injection* is a simulated-disk concept; a FileDisk-backed node
  // crashes by dying (SIGKILL) and the kernel decides what survived.
  auto* sim = dynamic_cast<SimDisk*>(disk_.get());
  if (sim == nullptr) return;
  const size_t pending_bytes = sim->PendingSize(kWalFile);
  const size_t pending_start = wal_len_ - pending_bytes;
  switch (spec.point) {
    case CrashPoint::kLosePending:
      sim->CrashAll();
      break;
    case CrashPoint::kTornTail: {
      if (pending_record_offsets_.empty()) {
        sim->CrashAll();
        break;
      }
      // Every whole record before the last, plus a torn half of the last.
      size_t last_off = pending_record_offsets_.back();
      size_t torn = std::max<size_t>(1, (wal_len_ - last_off) / 2);
      sim->CrashKeepingPrefix(kWalFile, last_off - pending_start + torn);
      break;
    }
    case CrashPoint::kPartialBatch: {
      if (pending_record_offsets_.empty()) {
        sim->CrashAll();
        break;
      }
      // A whole-record prefix of the batch survives; the tail records of
      // the batch are lost cleanly.
      size_t keep_records = pending_record_offsets_.size() / 2;
      size_t cut = keep_records < pending_record_offsets_.size()
                       ? pending_record_offsets_[keep_records]
                       : wal_len_;
      sim->CrashKeepingPrefix(kWalFile, cut - pending_start);
      break;
    }
    case CrashPoint::kSnapLogDivergence:
      // Only meaningful while the snapshot marker is still in flight —
      // that IS the "between snapshot install and log truncation" window.
      // Once the marker was fsynced it is acknowledged state and no crash
      // may take it back; degrade to a clean pending loss then.
      if (model_.snap_gen > 0 && last_snap_record_off_ >= pending_start) {
        // The blob survived (it was written atomically first); the marker
        // and everything queued behind it are lost.
        sim->CrashKeepingPrefix(kWalFile,
                                  last_snap_record_off_ - pending_start);
      } else {
        sim->CrashAll();
      }
      break;
  }
}

// --- recovery --------------------------------------------------------------

void WalStorage::ReplayWal(const std::vector<uint8_t>& bytes, Model* model) {
  size_t pos = 0;
  const size_t n = bytes.size();
  while (pos + kRecordHeaderBytes <= n) {
    uint32_t len;
    uint32_t crc;
    std::memcpy(&len, bytes.data() + pos, 4);
    std::memcpy(&crc, bytes.data() + pos + 4, 4);
    if (pos + kRecordHeaderBytes + len > n) break;  // truncated tail record
    const uint8_t* body = bytes.data() + pos + kRecordHeaderBytes;
    if (Crc32(body, len) != crc) break;  // torn or rotted record
    std::vector<uint8_t> payload(body, body + len);
    Decoder dec(payload);
    auto type = dec.GetU8();
    if (!type.ok()) break;
    bool ok = true;
    switch (*type) {
      case kRecHardState: {
        auto term = dec.GetU64();
        auto vote = dec.GetU32();
        auto commit = dec.GetU64();
        if (!term.ok() || !vote.ok() || !commit.ok()) {
          ok = false;
          break;
        }
        model->hard = HardState{*term, *vote, *commit};
        break;
      }
      case kRecAppend: {
        auto e = DecodeLogEntry(dec);
        if (!e.ok()) {
          ok = false;
          break;
        }
        // Defensive: an append below the current end implies a lost
        // truncate record, which suffix-loss cannot produce — but recover
        // by honoring the later write anyway.
        while (!model->entries.empty() &&
               model->entries.back().index >= e->index) {
          model->entries.PopBack();
        }
        if (e->index != model->last_index() + 1) {
          ok = false;  // gap: unreachable via suffix loss, treat as corrupt
          break;
        }
        model->entries.PushOwned(std::move(*e));
        ++stats_.replayed_entries;
        break;
      }
      case kRecTruncateFrom: {
        auto i = dec.GetU64();
        if (!i.ok()) {
          ok = false;
          break;
        }
        while (!model->entries.empty() && model->entries.back().index >= *i) {
          model->entries.PopBack();
        }
        break;
      }
      case kRecReset: {
        auto base = dec.GetU64();
        auto term = dec.GetU64();
        if (!base.ok() || !term.ok()) {
          ok = false;
          break;
        }
        model->entries.Clear();
        model->base_index = *base;
        model->base_term = *term;
        break;
      }
      case kRecCompactTo: {
        auto i = dec.GetU64();
        auto term = dec.GetU64();
        if (!i.ok() || !term.ok()) {
          ok = false;
          break;
        }
        while (!model->entries.empty() &&
               model->entries.front().index <= *i) {
          model->entries.PopFront();
        }
        model->base_index = *i;
        model->base_term = *term;
        break;
      }
      case kRecSnapInstalled: {
        auto gen = dec.GetU32();
        auto idx = dec.GetU64();
        auto term = dec.GetU64();
        if (!gen.ok() || !idx.ok() || !term.ok()) {
          ok = false;
          break;
        }
        model->snap_gen = *gen;
        model->snap_index = *idx;
        model->snap_term = *term;
        if (*idx > model->base_index) {
          while (!model->entries.empty() &&
                 model->entries.front().index <= *idx) {
            model->entries.PopFront();
          }
          model->base_index = *idx;
          model->base_term = *term;
        }
        last_snap_record_off_ = pos;
        break;
      }
      default:
        ok = false;
        break;
    }
    if (!ok) break;
    ++stats_.replayed_records;
    pos += kRecordHeaderBytes + len;
  }
  if (pos < n) {
    stats_.tore_tail = true;
    stats_.dropped_tail_bytes = n - pos;
  }
}

Result<BootImage> WalStorage::Load() {
  const std::vector<uint8_t> bytes = disk_->ReadDurable(kWalFile);
  Model m;
  ReplayWal(bytes, &m);
  const size_t replayable = bytes.size() - stats_.dropped_tail_bytes;
  if (stats_.tore_tail) {
    // Cut the torn/garbage tail off the durable file NOW: records appended
    // after this recovery must land at the end of the *replayable* prefix,
    // or a second crash would silently drop everything written since (the
    // next replay would stop at the old torn record again).
    disk_->TruncateDurable(kWalFile, replayable);
  }

  BootImage img;
  img.present = !bytes.empty() || !disk_->List("").empty();

  // Resolve the snapshot blob. If the newest generation is unreadable,
  // fall back generation by generation (an injected divergence can leave a
  // blob the WAL never references — that one is simply ignored, while a
  // missing/corrupt referenced blob falls back to its predecessor plus the
  // longer log retained in the WAL).
  raft::RaftSnapshotPtr snap;
  uint32_t gen = m.snap_gen;
  while (gen > 0) {
    const std::vector<uint8_t> blob = disk_->ReadDurable(SnapFile(gen));
    if (!blob.empty()) {
      Decoder dec(blob);
      auto decoded = DecodeRaftSnapshot(dec);
      if (decoded.ok()) {
        snap = std::make_shared<raft::RaftSnapshot>(std::move(*decoded));
        break;
      }
    }
    stats_.snapshot_fallback = true;
    --gen;
  }
  if (m.snap_gen > 0 && snap == nullptr) {
    // The WAL references a snapshot but no blob generation is readable:
    // the log below the base is unrecoverable.
    return Internal("wal: no readable snapshot blob for gen " +
                    std::to_string(m.snap_gen));
  }
  if (snap == nullptr && replayable == 0) {
    // Empty (or fully torn) WAL: fall back to the newest readable blob so
    // a divergence injection right after a checkpoint cannot cause total
    // amnesia.
    uint32_t best = 0;
    for (const auto& name : disk_->List("snap-")) {
      best = std::max(best, static_cast<uint32_t>(
                                std::strtoul(name.c_str() + 5, nullptr, 10)));
    }
    while (best > 0) {
      const std::vector<uint8_t> blob = disk_->ReadDurable(SnapFile(best));
      Decoder dec(blob);
      auto decoded = DecodeRaftSnapshot(dec);
      if (!blob.empty() && decoded.ok()) {
        snap = std::make_shared<raft::RaftSnapshot>(std::move(*decoded));
        m.snap_gen = best;
        m.snap_index = snap->last_index;
        m.snap_term = snap->last_term;
        m.base_index = snap->last_index;
        m.base_term = snap->last_term;
        stats_.snapshot_fallback = true;
        break;
      }
      --best;
    }
  }
  if (snap != nullptr && snap->last_index < m.base_index) {
    return Internal("wal: snapshot older than log base");
  }

  img.hard = m.hard;
  img.snap = snap;
  img.base_index = m.base_index;
  img.base_term = m.base_term;
  // Zero-copy: the image's span holds refs into the replayed model's slabs,
  // which survive the move into model_ below (shared ownership).
  img.entries = m.entries.Span(0, m.entries.size());

  // Sealed merge-exchange snapshots.
  for (const auto& name : disk_->List("seal-")) {
    unsigned long long tx = 0;
    int src = -1;
    if (std::sscanf(name.c_str(), "seal-%llu-%d", &tx, &src) != 2) continue;
    const std::vector<uint8_t> blob = disk_->ReadDurable(name);
    Decoder dec(blob);
    auto decoded = DecodeSmSnapshot(dec);
    if (!decoded.ok()) continue;  // corrupt seal: peers still hold copies
    img.sealed[{static_cast<TxId>(tx), src}] =
        std::make_shared<const sm::Snapshot>(std::move(*decoded));
  }

  // Exchange runtime metadata.
  if (disk_->Exists(kExMetaFile)) {
    const std::vector<uint8_t> blob = disk_->ReadDurable(kExMetaFile);
    Decoder dec(blob);
    auto has_plan = dec.GetBool();
    if (has_plan.ok()) {
      bool meta_ok = true;
      if (*has_plan) {
        auto plan = DecodeMergePlan(dec);
        if (plan.ok()) {
          img.exchange.pending_plan = std::move(*plan);
        } else {
          meta_ok = false;
        }
      }
      auto ngc = dec.GetU32();
      if (meta_ok && ngc.ok()) {
        for (uint32_t i = 0; i < *ngc; ++i) {
          ExchangeGcImage gc;
          auto tx = dec.GetU64();
          auto resumed = DecodeNodeVec(dec);
          auto targets = DecodeNodeVec(dec);
          auto done = DecodeNodeVec(dec);
          auto self_done = dec.GetBool();
          if (!tx.ok() || !resumed.ok() || !targets.ok() || !done.ok() ||
              !self_done.ok()) {
            break;
          }
          gc.tx = *tx;
          gc.resumed = std::move(*resumed);
          gc.targets = std::move(*targets);
          gc.done = std::move(*done);
          gc.self_done = *self_done;
          img.exchange.gc.push_back(std::move(gc));
        }
      }
    }
  }

  // Adopt the recovered state as the live model so subsequent mutations
  // and checkpoints continue from it. New records start at the end of the
  // replayable prefix (the torn tail, if any, was truncated above).
  model_ = std::move(m);
  durable_index_ = model_.last_index();
  wal_len_ = replayable;
  pending_records_ = 0;
  pending_record_offsets_.clear();
  return img;
}

}  // namespace recraft::storage
