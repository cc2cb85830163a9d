// Determinism regression: a run is a pure function of (seed, configuration).
// The chaos/property suites are schedule-sensitive, so the simulator core's
// (time, seq) pop order and the network's RNG draw order are frozen
// contracts — this test enforces them by executing the same seeded chaos
// scenario twice and asserting bit-identical executed-event digests, event
// counts and final counters. Any change that reorders events, perturbs an
// RNG stream, or makes per-run state leak across runs fails here before it
// turns a seeded chaos test flaky.
#include "tests/test_util.h"

namespace recraft::test {
namespace {

struct RunTrace {
  uint64_t digest = 0;
  uint64_t executed = 0;
  TimePoint end = 0;
  std::map<std::string, uint64_t> net_counters;
  std::map<std::string, uint64_t> node_counters;  // summed across nodes
  std::string final_value;
};

/// A miniature chaos scenario: client traffic under crashes, partitions and
/// message drops, a membership resize, then heal and converge. Optionally
/// runs with the flight recorder armed — which must not change anything.
RunTrace RunChaosScenario(uint64_t seed, obs::Recorder* rec = nullptr) {
  WorldOptions wo = TestWorldOptions(seed);
  wo.recorder = rec;
  World w(wo);
  auto c = w.CreateCluster(5);
  EXPECT_TRUE(w.WaitForLeader(c));
  Rng chaos(seed * 131 + 17);

  std::vector<NodeId> down;
  for (int round = 0; round < 8; ++round) {
    // Fire-and-forget traffic at whoever leads.
    NodeId l = w.LeaderOf(c);
    if (l != kNoNode) {
      for (int i = 0; i < 4; ++i) {
        kv::Command cmd;
        cmd.op = kv::OpType::kPut;
        cmd.key = "r" + std::to_string(round) + "-" + std::to_string(i);
        cmd.value = "v";
        cmd.client_id = 777;
        cmd.seq = 0;
        raft::ClientRequest req;
        req.req_id = w.NextReqId();
        req.from = harness::kAdminId;
        req.body = kv::EncodeCommand(cmd);
        auto msg = raft::MakeMessage(raft::Message(std::move(req)));
        w.net().Send(harness::kAdminId, l, msg, msg.wire_bytes());
      }
    }
    // Heal last round's damage, inflict new damage.
    for (NodeId n : down) EXPECT_TRUE(w.Restart(n).ok());
    down.clear();
    w.net().ClearPartitions();
    w.net().set_drop_probability(chaos.Chance(0.5) ? 0.02 : 0.0);
    if (chaos.Chance(0.5)) {
      NodeId victim = c[chaos.Uniform(0, c.size() - 1)];
      if (!w.IsCrashed(victim)) {
        EXPECT_TRUE(w.Crash(victim).ok());
        down.push_back(victim);
      }
    }
    if (chaos.Chance(0.3)) {
      std::vector<NodeId> a, b;
      for (NodeId n : c) (chaos.Chance(0.5) ? a : b).push_back(n);
      if (!a.empty() && !b.empty()) w.net().SetPartitions({a, b});
    }
    w.RunFor(400 * kMillisecond);
  }
  for (NodeId n : down) EXPECT_TRUE(w.Restart(n).ok());
  w.net().HealAll();  // partitions and any per-link overrides in one sweep
  w.net().set_drop_probability(0);
  EXPECT_TRUE(w.WaitForLeader(c));
  EXPECT_TRUE(w.Put(c, "final", "ok", 10 * kSecond).ok());

  RunTrace t;
  auto v = w.Get(c, "final");
  if (v.ok()) t.final_value = *v;
  t.digest = w.events().execution_digest();
  t.executed = w.events().events_executed();
  t.end = w.now();
  t.net_counters = w.net().counters().all();
  for (NodeId n : c) {
    for (const auto& [name, val] : w.node(n).counters().all()) {
      t.node_counters[name] += val;
    }
  }
  return t;
}

TEST(Determinism, SameSeedSameExecutedTraceAndCounters) {
  RunTrace a = RunChaosScenario(7);
  RunTrace b = RunChaosScenario(7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.end, b.end);
  EXPECT_EQ(a.net_counters, b.net_counters);
  EXPECT_EQ(a.node_counters, b.node_counters);
  EXPECT_EQ(a.final_value, "ok");
  EXPECT_EQ(b.final_value, "ok");
}

TEST(Determinism, TracingArmedDigestIdentical) {
  // The flight recorder is pure observation: arming it (even with a tiny
  // ring that wraps constantly) leaves the executed schedule bit-identical.
  RunTrace plain = RunChaosScenario(7);
  obs::Recorder armed;
  RunTrace traced = RunChaosScenario(7, &armed);
  obs::Recorder tiny(64);
  RunTrace wrapped = RunChaosScenario(7, &tiny);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.executed, traced.executed);
  EXPECT_EQ(plain.node_counters, traced.node_counters);
  EXPECT_EQ(plain.digest, wrapped.digest);
  EXPECT_EQ(plain.executed, wrapped.executed);
  EXPECT_GT(armed.buffer().total(), 0u);
  EXPECT_TRUE(tiny.buffer().wrapped());
}

TEST(Determinism, DifferentSeedsDiverge) {
  // Sanity that the digest actually discriminates schedules: two different
  // seeds must not collide on both digest and event count.
  RunTrace a = RunChaosScenario(7);
  RunTrace b = RunChaosScenario(8);
  EXPECT_TRUE(a.digest != b.digest || a.executed != b.executed);
}

}  // namespace
}  // namespace recraft::test
