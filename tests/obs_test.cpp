// Flight-recorder correctness: the recorder is pure observation (digest
// bit-identical disarmed / armed / with a wrapping ring), the ring buffer
// overwrites oldest-first, protocol spans pair up across a full split, a
// full merge-abort and overlapping read rounds, and the Chrome-trace export
// is structurally valid JSON with monotone timestamps per track.
#include <sstream>

#include "core/node.h"
#include "harness/sweep.h"
#include "kv/kv_machine.h"
#include "kv/service.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using obs::Kind;
using obs::Name;
using obs::Outcome;
using obs::Recorder;
using obs::TraceRecord;

// --------------------------------------------------------------------------
// Ring buffer.

TEST(TraceBuffer, FillWithoutWrap) {
  obs::TraceBuffer buf(8);
  for (uint64_t i = 0; i < 5; ++i) {
    TraceRecord r;
    r.a = i;
    buf.Push(r);
  }
  EXPECT_EQ(buf.size(), 5u);
  EXPECT_EQ(buf.total(), 5u);
  EXPECT_FALSE(buf.wrapped());
  auto snap = buf.Snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (uint64_t i = 0; i < 5; ++i) EXPECT_EQ(snap[i].a, i);
}

TEST(TraceBuffer, WrapKeepsNewestOldestFirst) {
  obs::TraceBuffer buf(4);
  for (uint64_t i = 0; i < 11; ++i) {
    TraceRecord r;
    r.a = i;
    buf.Push(r);
  }
  EXPECT_EQ(buf.capacity(), 4u);
  EXPECT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf.total(), 11u);
  EXPECT_TRUE(buf.wrapped());
  auto snap = buf.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // The survivors are the newest four, oldest first: 7, 8, 9, 10.
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(snap[i].a, 7 + i);
}

// --------------------------------------------------------------------------
// Digest neutrality on a seeded all-mix chaos world.

TEST(Obs, DigestIdenticalDisarmedArmedWrapping) {
  harness::SweepOptions opts;
  opts.mix = "all";
  opts.chaos_ticks = 50;

  auto plain = harness::RunSweepWorld(opts, 11);

  Recorder armed;
  harness::SweepOptions armed_opts = opts;
  armed_opts.recorder = &armed;
  auto traced = harness::RunSweepWorld(armed_opts, 11);

  Recorder tiny(128);  // wraps constantly
  harness::SweepOptions tiny_opts = opts;
  tiny_opts.recorder = &tiny;
  auto wrapped = harness::RunSweepWorld(tiny_opts, 11);

  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(plain.events, traced.events);
  EXPECT_EQ(plain.sim_end, traced.sim_end);
  EXPECT_EQ(plain.client_ops, traced.client_ops);
  EXPECT_EQ(plain.digest, wrapped.digest);
  EXPECT_EQ(plain.events, wrapped.events);
  EXPECT_GT(armed.buffer().total(), 0u);
  EXPECT_TRUE(tiny.buffer().wrapped());
  // The causal chain reached the buffer: client ops began and network
  // deliveries were stamped.
  auto records = armed.Snapshot();
  bool saw_client_op = false, saw_deliver = false;
  for (const auto& r : records) {
    saw_client_op |= r.name == Name::kClientOp && r.kind == Kind::kSpanBegin;
    saw_deliver |= r.name == Name::kNetDeliver;
  }
  EXPECT_TRUE(saw_client_op);
  EXPECT_TRUE(saw_deliver);
}

// --------------------------------------------------------------------------
// Span pairing across full protocol runs.

// Find the begin/end pair for `name`; returns false if either is missing.
bool FindSpan(const std::vector<TraceRecord>& records, Name name,
              TraceRecord* begin, TraceRecord* end) {
  for (const auto& r : records) {
    if (r.name != name) continue;
    if (r.kind == Kind::kSpanBegin) {
      *begin = r;
    } else if (r.kind == Kind::kSpanEnd && begin->span != 0 &&
               begin->span == r.span) {
      *end = r;
      return true;
    }
  }
  return false;
}

TEST(Obs, SplitSpanCoversJointAndLeave) {
  Recorder rec;
  WorldOptions wo = TestWorldOptions(21);
  wo.recorder = &rec;
  World w(wo);
  auto all = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(all));
  ASSERT_TRUE(w.Put(all, "a1", "v").ok());
  ASSERT_TRUE(w.Put(all, "p1", "v").ok());
  std::vector<std::vector<NodeId>> groups = {
      {all[0], all[1], all[2]}, {all[3], all[4], all[5]}};
  ASSERT_TRUE(w.AdminSplit(all, groups, {"m"}).ok());
  for (auto& g : groups) ASSERT_TRUE(w.WaitForLeader(g));

  auto records = rec.Snapshot();
  TraceRecord begin{}, end{};
  ASSERT_TRUE(FindSpan(records, Name::kSplit, &begin, &end));
  EXPECT_EQ(end.b, static_cast<uint64_t>(Outcome::kOk));
  EXPECT_LE(begin.ts, end.ts);
  // The protocol instants land inside the span, in order.
  constexpr TimePoint kUnset = static_cast<TimePoint>(-1);
  TimePoint joint_ts = kUnset, leave_ts = kUnset;
  for (const auto& r : records) {
    if (r.name == Name::kSplitJointCommitted && joint_ts == kUnset) {
      joint_ts = r.ts;
    }
    if (r.name == Name::kSplitLeaveProposed && leave_ts == kUnset) {
      leave_ts = r.ts;
    }
  }
  ASSERT_NE(joint_ts, kUnset);
  ASSERT_NE(leave_ts, kUnset);
  EXPECT_LE(begin.ts, joint_ts);
  EXPECT_LE(joint_ts, leave_ts);
  EXPECT_LE(leave_ts, end.ts);
}

TEST(Obs, MergeAbortSpanEndsAborted) {
  Recorder rec;
  WorldOptions wo = TestWorldOptions(22);
  wo.recorder = &rec;
  World w(wo);
  auto all = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(all));
  ASSERT_TRUE(w.Put(all, "a1", "v").ok());
  std::vector<std::vector<NodeId>> groups = {
      {all[0], all[1], all[2]}, {all[3], all[4], all[5]}};
  ASSERT_TRUE(w.AdminSplit(all, groups, {"m"}).ok());
  for (auto& g : groups) ASSERT_TRUE(w.WaitForLeader(g));

  // Occupy the participant with a fake pending transaction so the real
  // merge's prepare vote is NO and the coordinator aborts (the recipe from
  // merge_test's AbortWhenParticipantBusy).
  auto plan = w.MakeMergeDraft({groups[0], groups[1]});
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() { return w.LeaderOf(groups[1]) != kNoNode; }, 5 * kSecond));
  ASSERT_TRUE(w.Put(groups[1], "n0", "warm").ok());
  raft::MergePlan fake = *plan;
  fake.tx = w.NextTxId();
  fake.new_uid = raft::DeriveMergeUid(fake.tx);
  raft::MergePrepareReq req;
  req.from = harness::kAdminId;
  req.plan = fake;
  w.net().Send(harness::kAdminId, w.LeaderOf(groups[1]),
               raft::MakeMessage(raft::Message(req)), 128);
  w.RunFor(200 * kMillisecond);
  Status s = w.AdminMerge({groups[0], groups[1]});
  EXPECT_EQ(s.code(), Code::kRejected) << s.ToString();
  // Run until the coordinator finalizes the abort (every participant acked)
  // — that is where the merge span closes.
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : groups[0]) {
          if (!w.IsCrashed(id) &&
              w.node(id).counters().Get("merge.abort_finalized") > 0) {
            return true;
          }
        }
        return false;
      },
      20 * kSecond));

  auto records = rec.Snapshot();
  TraceRecord begin{}, end{};
  ASSERT_TRUE(FindSpan(records, Name::kMerge, &begin, &end));
  EXPECT_EQ(end.b, static_cast<uint64_t>(Outcome::kAborted));
  EXPECT_LE(begin.ts, end.ts);
  bool saw_prepare = false, saw_outcome = false;
  for (const auto& r : records) {
    saw_prepare |= r.name == Name::kMergePrepareSent;
    saw_outcome |= r.name == Name::kMergeOutcomeApplied && r.b == 0;
  }
  EXPECT_TRUE(saw_prepare);
  EXPECT_TRUE(saw_outcome) << "abort outcome instant missing";
}

// Pipelined ReadIndex rounds each get their own kReadRound span: two rounds
// in flight at once close separately, each spanning one probe round trip
// (a single span over both would stretch from the first launch to the last
// ack).
TEST(Obs, ReadRoundSpanPerOverlappingRound) {
  Recorder rec;
  TimePoint now = 0;
  rec.BindClock(&now);
  core::Options opts;
  opts.machine_factory = kv::KvMachineFactory();
  opts.recorder = &rec;
  raft::ConfigState genesis;
  genesis.members = {1, 2, 3};
  genesis.range = KeyRange::Full();
  genesis.uid = 99;
  std::vector<raft::MessagePtr> sent;
  core::Node n(1, opts, genesis, Rng(7),
               [&sent](NodeId, raft::MessagePtr m) { sent.push_back(m); });
  for (int i = 0; i < 100 && n.role() != core::Role::kCandidate; ++i) {
    n.Tick();
  }
  const uint64_t et = n.current_et().raw();
  raft::VoteReply grant;
  grant.et = et;
  grant.granted = true;
  grant.from = 2;
  n.Receive(2, grant);
  raft::AppendReply commit_noop;
  commit_noop.et = et;
  commit_noop.from = 2;
  commit_noop.ok = true;
  commit_noop.match = n.last_log_index();
  n.Receive(2, commit_noop);
  ASSERT_TRUE(n.IsLeader());

  auto get = [&n](uint64_t req_id) {
    kv::Command cmd;
    cmd.op = kv::OpType::kGet;
    cmd.key = "k";
    raft::ClientRequest req;
    req.req_id = req_id;
    req.from = 1000;
    req.body = raft::ReadRequest{kv::EncodeCommand(cmd)};
    n.Receive(1000, req);
  };
  auto last_probe_seq = [&sent]() {
    uint64_t seq = 0;
    for (const auto& m : sent) {
      if (const auto* p = std::get_if<raft::ReadIndexProbe>(m.get())) {
        seq = p->seq;
      }
    }
    return seq;
  };
  auto ack = [&n, et](uint64_t seq) {
    raft::ReadIndexAck a;
    a.et = et;
    a.from = 2;
    a.seq = seq;
    a.ok = true;
    n.Receive(2, a);
  };
  now = 10'000;
  get(1);
  const uint64_t first = last_probe_seq();
  now = 11'000;
  get(2);
  const uint64_t second = last_probe_seq();
  ASSERT_EQ(second, first + 1);
  now = 13'000;
  ack(first);
  now = 14'000;
  ack(second);

  std::map<uint64_t, TraceRecord> begins;
  std::vector<std::pair<TraceRecord, TraceRecord>> rounds;
  for (const auto& r : rec.Snapshot()) {
    if (r.name != Name::kReadRound) continue;
    if (r.kind == Kind::kSpanBegin) {
      begins[r.span] = r;
    } else if (r.kind == Kind::kSpanEnd) {
      ASSERT_EQ(begins.count(r.span), 1u);
      rounds.emplace_back(begins[r.span], r);
    }
  }
  ASSERT_EQ(begins.size(), 2u);
  ASSERT_EQ(rounds.size(), 2u);
  for (const auto& [b, e] : rounds) {
    EXPECT_EQ(e.b, static_cast<uint64_t>(Outcome::kOk));
    EXPECT_EQ(b.a, e.a);  // the round number
    EXPECT_EQ(e.ts - b.ts, 3'000u);  // one probe round trip each
  }
  EXPECT_EQ(rounds[0].first.a, first);
  EXPECT_EQ(rounds[1].first.a, second);
}

// --------------------------------------------------------------------------
// Chrome-trace export sanity.

// Structural JSON scan: balanced braces/brackets outside strings, no
// trailing garbage. Not a full parser — enough to catch malformed escapes
// and unbalanced nesting without a JSON dependency.
bool BalancedJson(const std::string& s) {
  int depth = 0;
  bool in_str = false, esc = false;
  for (char c : s) {
    if (in_str) {
      if (esc) {
        esc = false;
      } else if (c == '\\') {
        esc = true;
      } else if (c == '"') {
        in_str = false;
      }
      continue;
    }
    if (c == '"') {
      in_str = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_str;
}

TEST(Obs, ChromeTraceExportIsValidAndMonotonePerTrack) {
  Recorder rec;
  harness::SweepOptions opts;
  opts.mix = "all";
  opts.chaos_ticks = 30;
  opts.recorder = &rec;
  (void)harness::RunSweepWorld(opts, 5);

  auto records = rec.Snapshot();
  ASSERT_FALSE(records.empty());
  // Source-of-truth check: snapshot order is chronological, so per-node
  // (per-track) timestamps are monotone.
  std::map<NodeId, TimePoint> last_ts;
  for (const auto& r : records) {
    auto it = last_ts.find(r.node);
    if (it != last_ts.end()) EXPECT_LE(it->second, r.ts);
    last_ts[r.node] = r.ts;
  }

  std::ostringstream os;
  obs::ExportChromeTrace(records, os);
  std::string json = os.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_TRUE(BalancedJson(json)) << "unbalanced JSON structure";
  // Every record became an event: the events array has at least as many
  // "ph" fields as records (plus metadata events).
  size_t ph_count = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\"", pos)) != std::string::npos;
       ++pos) {
    ++ph_count;
  }
  EXPECT_GE(ph_count, records.size());
}

TEST(Obs, CriticalPathPrintsTracedOp) {
  Recorder rec;
  harness::SweepOptions opts;
  opts.mix = "none";
  opts.chaos_ticks = 30;
  opts.recorder = &rec;
  (void)harness::RunSweepWorld(opts, 3);

  auto records = rec.Snapshot();
  uint64_t slowest = obs::SlowestClientOp(records);
  ASSERT_NE(slowest, 0u);
  auto ids = obs::ClientOpTraceIds(records);
  EXPECT_FALSE(ids.empty());
  std::ostringstream os;
  obs::PrintCriticalPath(records, slowest, os);
  std::string text = os.str();
  EXPECT_NE(text.find("client.op"), std::string::npos);
  EXPECT_NE(text.find("total"), std::string::npos);
}

}  // namespace
}  // namespace recraft::test
