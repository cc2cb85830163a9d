// Each nemesis behavior in isolation: the fault does what its name says
// (one-way loss starves acks but not appends; an fsync stall freezes
// durability-gated commit; clock skew, churn, crash waves and hot-key
// migration preserve the §VI safety properties), healing restores
// liveness, and the on/off schedule itself alternates deterministically.
#include <map>

#include "harness/nemesis.h"
#include "harness/sweep.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using harness::NemesisTargets;

/// Fire-and-forget puts at the current leader (losses are fine; the
/// checkers only validate what committed).
void Blast(World& w, const std::vector<NodeId>& members, int n,
           const std::string& prefix) {
  NodeId l = w.LeaderOf(members);
  if (l == kNoNode) return;
  for (int i = 0; i < n; ++i) {
    kv::Command cmd;
    cmd.op = kv::OpType::kPut;
    cmd.key = prefix + std::to_string(i);
    cmd.value = "v";
    cmd.client_id = 555;
    cmd.seq = 0;  // no dedup: unique keys
    raft::ClientRequest req;
    req.req_id = w.NextReqId();
    req.from = harness::kAdminId;
    req.body = kv::EncodeCommand(cmd);
    w.net().Send(harness::kAdminId, l, raft::MakeMessage(raft::Message(req)),
                 64);
  }
}

/// Pin a nemesis' schedule so a short test window sees several phases.
void TightSchedule(harness::Nemesis& n, Duration quiet, Duration active) {
  n.schedule().min_quiet = quiet;
  n.schedule().max_quiet = quiet;
  n.schedule().min_active = active;
  n.schedule().max_active = active;
}

// One-way loss severs follower->leader (the ack direction) while
// leader->follower appends still flow: follower logs keep growing, but the
// leader can assemble no quorum and commit freezes. Healing releases it.
TEST(OneWayLoss, StarvesAcksButNotAppends) {
  World w(TestWorldOptions(0x0511));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "warm", "up").ok());
  NodeId leader = w.LeaderOf(c);

  for (NodeId id : c) {
    if (id != leader) w.net().SetLinkDropProbability(id, leader, 1.0);
  }
  Index commit_before = w.node(leader).commit_index();
  std::map<NodeId, Index> follower_log_before;
  for (NodeId id : c) {
    if (id != leader) follower_log_before[id] = w.node(id).last_log_index();
  }
  Blast(w, c, 10, "starved-");
  w.RunFor(500 * kMillisecond);

  // Appends were delivered: every follower's log grew past the old commit.
  for (const auto& [id, before] : follower_log_before) {
    EXPECT_GT(w.node(id).last_log_index(), before) << "follower " << id;
  }
  // ...but no ack ever came back, so nothing new committed anywhere.
  // (Followers keep receiving heartbeats, so nobody starts an election.)
  for (NodeId id : c) {
    EXPECT_LE(w.node(id).commit_index(), commit_before) << "node " << id;
  }
  EXPECT_GT(w.node(leader).last_log_index(), commit_before);

  w.net().HealAll();
  ASSERT_TRUE(w.WaitForLeader(c, 10 * kSecond));
  EXPECT_TRUE(w.Put(c, "healed", "yes", 10 * kSecond).ok());
  ExpectConverged(w, c, 10 * kSecond);
}

// With a quorum of disks fsync-stalled (leader + one follower, group-commit
// mode), appended entries never become durable on a majority; acks and the
// leader's own commit vote are gated on DurableIndex, so the commit index
// freezes — delayed, never unsafe. The unstalled follower keeps acking, so
// leadership stays stable throughout. (Stalling ALL disks instead starves
// check-quorum, and the resulting election's force-sync vote write flushes
// the batch — vote persistence deliberately bypasses the stall.)
TEST(FsyncStall, DelaysDurabilityGatedCommit) {
  WorldOptions o = TestWorldOptions(0x57a1);
  o.wal.flush_interval = 500;
  World w(o);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "warm", "up").ok());
  NodeId leader = w.LeaderOf(c);
  Index commit_before = w.node(leader).commit_index();

  std::vector<NodeId> stalled{leader};
  for (NodeId id : c) {
    if (id != leader && stalled.size() < 2) stalled.push_back(id);
  }
  for (NodeId id : stalled) w.NodeDisk(id)->SetFsyncStalled(true);
  Blast(w, c, 10, "stalled-");
  w.RunFor(500 * kMillisecond);

  // Entries were appended and replicated everywhere, but they are durable
  // on at most a minority, so the quorum count never moves.
  EXPECT_GT(w.node(leader).last_log_index(), commit_before);
  for (NodeId id : c) {
    EXPECT_LE(w.node(id).commit_index(), commit_before) << "node " << id;
  }
  for (NodeId id : stalled) {
    auto* storage = w.NodeStorage(id);
    ASSERT_NE(storage, nullptr);
    EXPECT_LE(storage->DurableIndex(), commit_before) << "node " << id;
  }

  for (NodeId id : stalled) w.NodeDisk(id)->SetFsyncStalled(false);
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(c);
        return l != kNoNode && w.node(l).commit_index() > commit_before;
      },
      10 * kSecond));
  EXPECT_TRUE(w.Put(c, "healed", "yes", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

// A disk-latency spike slows durability but never blocks it: commits still
// land, just later, and the cluster reconverges once the spike clears.
TEST(DiskLatency, SpikeDelaysButNeverBlocksCommit) {
  WorldOptions o = TestWorldOptions(0xd15c);
  o.wal.flush_interval = 500;
  World w(o);
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));
  for (NodeId id : c) w.NodeDisk(id)->SetExtraFsyncLatency(5 * kMillisecond);
  EXPECT_TRUE(w.Put(c, "spiked", "yes", 10 * kSecond).ok());
  for (NodeId id : c) w.NodeDisk(id)->SetExtraFsyncLatency(0);
  EXPECT_TRUE(w.Put(c, "normal", "again", 10 * kSecond).ok());
  ExpectConverged(w, c, 10 * kSecond);
}

TEST(ClockSkew, SkewedTicksPreserveSafety) {
  World w(TestWorldOptions(0xc10c));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));

  harness::ClockSkewNemesis skew;
  TightSchedule(skew, 100 * kMillisecond, 300 * kMillisecond);
  skew.Arm(w, NemesisTargets{c, {}}, Rng(0xc10c));
  for (int round = 0; round < 6; ++round) {
    Blast(w, c, 5, "skew" + std::to_string(round) + "-");
    w.RunFor(400 * kMillisecond);
  }
  skew.Disarm();
  EXPECT_GE(skew.activations(), 3u);

  // Disarm restored every tick interval; the cluster must be fully live.
  for (NodeId id : c) {
    EXPECT_EQ(w.TickIntervalOf(id), w.options().node.tick_interval);
  }
  ASSERT_TRUE(w.WaitForLeader(c, 10 * kSecond));
  EXPECT_TRUE(w.Put(c, "final", "ok", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectConverged(w, c, 10 * kSecond);
}

TEST(ChurnStorm, AddsAndRemovesSpareSafely) {
  World w(TestWorldOptions(0xc4a2));
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(3);
  NodeId spare = w.CreateSpareNode();
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "warm", "up").ok());

  harness::ChurnStormNemesis churn;
  TightSchedule(churn, 200 * kMillisecond, 400 * kMillisecond);
  churn.Arm(w, NemesisTargets{c, {spare}}, Rng(0xc4a2));
  for (int round = 0; round < 8; ++round) {
    Blast(w, c, 3, "churn" + std::to_string(round) + "-");
    w.RunFor(400 * kMillisecond);
  }
  churn.Disarm();
  EXPECT_GE(churn.changes_requested(), 2u);

  // Settle on whatever configuration the storm left behind, then prove the
  // survivors are live and the history is clean.
  std::vector<NodeId> everyone = c;
  everyone.push_back(spare);
  raft::ConfigState cfg;
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        cfg = w.ConfigOf(everyone);
        if (cfg.members.empty() || cfg.ReconfigPending()) return false;
        return w.LeaderOf(cfg.members) != kNoNode;
      },
      30 * kSecond));
  EXPECT_TRUE(w.Put(cfg.members, "final", "ok", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(CrashWave, RollingHardCrashesConverge) {
  WorldOptions o = TestWorldOptions(0xcafe);
  o.wal.flush_interval = 500;
  World w(o);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();
  auto c = w.CreateCluster(5);
  ASSERT_TRUE(w.WaitForLeader(c));
  ASSERT_TRUE(w.Put(c, "warm", "up").ok());

  harness::CrashWaveNemesis wave;
  TightSchedule(wave, 150 * kMillisecond, 300 * kMillisecond);
  wave.Arm(w, NemesisTargets{c, {}}, Rng(0xcafe));
  for (int round = 0; round < 8; ++round) {
    Blast(w, c, 5, "wave" + std::to_string(round) + "-");
    w.RunFor(400 * kMillisecond);
  }
  wave.Disarm();  // restarts anything still down
  EXPECT_GE(wave.activations(), 3u);
  for (NodeId id : c) {
    EXPECT_TRUE(w.HasNode(id)) << "node " << id << " left down after disarm";
    EXPECT_FALSE(w.IsCrashed(id));
  }

  ASSERT_TRUE(w.WaitForLeader(c, 20 * kSecond));
  EXPECT_TRUE(w.Put(c, "final", "ok", 10 * kSecond).ok());
  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
  ExpectConverged(w, c, 20 * kSecond);
}

// The hot-key nemesis migrates the Zipfian hot set: with a long active
// phase, the most-hit key is the rotated rank-0 key.
TEST(HotKey, MigrationMovesTheHotSet) {
  World w(TestWorldOptions(0x407e));
  auto c = w.CreateCluster(3);
  ASSERT_TRUE(w.WaitForLeader(c));

  harness::HotKeyNemesis hot;
  // Near-immediate activation, then active for the whole window.
  TightSchedule(hot, 20 * kMillisecond, 60 * kSecond);
  hot.Arm(w, NemesisTargets{c, {}}, Rng(0x407e));

  harness::Router router;
  harness::Router::Entry entry;
  entry.members = c;
  entry.range = KeyRange::Full();
  router.SetClusters({entry});
  harness::ClientOptions copts;
  copts.key_space = 64;
  copts.value_bytes = 8;
  copts.zipf_theta = 0.99;
  copts.key_offset = hot.offset_ptr();
  std::map<std::string, int> hits;
  copts.on_op_complete = [&](const std::string& key, TimePoint) {
    ++hits[key];
  };
  harness::ClientFleet fleet(w, router, 2, copts);
  fleet.Start();
  w.RunFor(3 * kSecond);
  fleet.Stop();
  ASSERT_GE(hot.activations(), 1u);
  uint64_t offset = hot.offset();
  ASSERT_NE(offset, 0u);
  hot.Disarm();
  EXPECT_EQ(hot.offset(), 0u);  // heal resets the rotation

  ASSERT_FALSE(hits.empty());
  char expect[32];
  std::snprintf(expect, sizeof(expect), "k%08llu",
                static_cast<unsigned long long>(offset % copts.key_space));
  auto hottest = hits.begin();
  for (auto it = hits.begin(); it != hits.end(); ++it) {
    if (it->second > hottest->second) hottest = it;
  }
  EXPECT_EQ(hottest->first, expect);
}

// The scheduling skeleton itself: phases alternate inflict/heal, disarm
// heals and is idempotent, and orphaned toggle events are no-ops.
class ProbeNemesis final : public harness::Nemesis {
 public:
  ProbeNemesis() : Nemesis("probe") {}
  int inflicted = 0;
  int healed = 0;

 private:
  void Inflict(World&, Rng&) override { ++inflicted; }
  void Heal(World&) override { ++healed; }
};

TEST(NemesisSchedule, AlternatesAndDisarmHeals) {
  World w(TestWorldOptions(0x5c4e));
  ProbeNemesis probe;
  TightSchedule(probe, 50 * kMillisecond, 50 * kMillisecond);
  probe.Arm(w, NemesisTargets{}, Rng(7));
  w.RunFor(kSecond);
  EXPECT_GE(probe.activations(), 5u);
  // Phases strictly alternate: heals trail inflictions by at most one.
  EXPECT_GE(probe.inflicted, probe.healed);
  EXPECT_LE(probe.inflicted - probe.healed, 1);
  probe.Disarm();
  EXPECT_FALSE(probe.active());
  EXPECT_EQ(probe.inflicted, probe.healed);
  int healed_after_disarm = probe.healed;
  probe.Disarm();  // idempotent
  EXPECT_EQ(probe.healed, healed_after_disarm);
  w.RunFor(kSecond);  // queued toggles are orphaned, not replayed
  EXPECT_EQ(probe.inflicted, probe.healed);
  EXPECT_EQ(probe.healed, healed_after_disarm);
}

// Same seed, same mix -> bit-identical world execution; different seeds
// diverge. (The sweep-level 1-vs-N-thread identity lives in sweep_test.)
TEST(NemesisDeterminism, SameSeedSameDigest) {
  harness::SweepOptions opts;
  opts.mix = "all";
  opts.chaos_ticks = 50;
  auto a = harness::RunSweepWorld(opts, 11);
  auto b = harness::RunSweepWorld(opts, 11);
  auto c = harness::RunSweepWorld(opts, 12);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.client_ops, b.client_ops);
  EXPECT_NE(a.digest, c.digest);
}

}  // namespace
}  // namespace recraft::test
