// The state-machine boundary: the service codec, the QueueMachine (a
// deliberately non-KV machine — per-topic FIFOs with destructive dequeues),
// and the proof that the consensus core is machine-generic: a queue-backed
// cluster survives the full split + merge + hard-crash gauntlet with
// exactly-once semantics intact.
#include <gtest/gtest.h>

#include "kv/service.h"
#include "sm/queue_machine.h"
#include "tests/test_util.h"

namespace recraft::test {
namespace {

using sm::QueueMachine;
using sm::QueueOp;
using sm::QueueRequest;

// ---------------------------------------------------------------------------
// KV service codec.

TEST(KvServiceCodec, CommandRoundTripsAllOps) {
  for (auto op : {kv::OpType::kPut, kv::OpType::kGet, kv::OpType::kDelete,
                  kv::OpType::kCas, kv::OpType::kScan}) {
    kv::Command cmd;
    cmd.op = op;
    cmd.key = "k42";
    cmd.value = "v";
    cmd.expected = "old";
    cmd.scan_hi = "k99";
    cmd.scan_limit = 7;
    cmd.client_id = 5;
    cmd.seq = 9;
    sm::Command wire = kv::EncodeCommand(cmd);
    EXPECT_EQ(wire.key, cmd.key);
    auto back = kv::DecodeCommand(wire);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->op, cmd.op);
    EXPECT_EQ(back->key, cmd.key);
    EXPECT_EQ(back->value, cmd.value);
    EXPECT_EQ(back->expected, cmd.expected);
    EXPECT_EQ(back->scan_hi, cmd.scan_hi);
    EXPECT_EQ(back->scan_limit, cmd.scan_limit);
    EXPECT_EQ(back->client_id, cmd.client_id);
    EXPECT_EQ(back->seq, cmd.seq);
  }
}

TEST(KvServiceCodec, WireHintPreservesLegacyAccounting) {
  // The simulator's deterministic schedules charge 24 + key + value for the
  // classic ops; the opaque encoding must not silently change that.
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "k00000001";
  cmd.value.assign(512, 'x');
  EXPECT_EQ(kv::EncodeCommand(cmd).WireBytes(), 24 + 9 + 512);
  cmd.op = kv::OpType::kGet;
  cmd.value.clear();
  EXPECT_EQ(kv::EncodeCommand(cmd).WireBytes(), 24u + 9u);
}

TEST(KvServiceCodec, RejectsForeignMachineBytes) {
  QueueRequest req;
  req.op = QueueOp::kEnqueue;
  req.topic = "t";
  req.payload = "e";
  EXPECT_FALSE(kv::DecodeCommand(sm::EncodeQueueRequest(req)).ok());
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = "k";
  EXPECT_FALSE(sm::DecodeQueueRequest(kv::EncodeCommand(cmd)).ok());
}

TEST(KvServiceCodec, ScanBatchRoundTrip) {
  std::vector<std::pair<std::string, std::string>> entries{
      {"a", "1"}, {"b", ""}, {"c", "333"}};
  auto back = kv::DecodeScanBatch(kv::EncodeScanBatch(entries));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, entries);
}

// ---------------------------------------------------------------------------
// Store-level Scan / CAS.

TEST(KvStoreScan, BoundedAndClamped) {
  kv::Store store;
  for (int i = 0; i < 10; ++i) {
    kv::Command put;
    put.op = kv::OpType::kPut;
    put.key = "k" + std::to_string(i);
    put.value = std::to_string(i);
    ASSERT_TRUE(store.Apply(put).status.ok());
  }
  auto all = store.Scan("k0", "", 100);
  EXPECT_EQ(all.size(), 10u);
  auto limited = store.Scan("k2", "", 3);
  ASSERT_EQ(limited.size(), 3u);
  EXPECT_EQ(limited[0].first, "k2");
  EXPECT_EQ(limited[2].first, "k4");
  auto bounded = store.Scan("k3", "k6", 100);
  ASSERT_EQ(bounded.size(), 3u);  // k3, k4, k5 — hi is exclusive
  EXPECT_EQ(bounded.back().first, "k5");
}

TEST(KvStoreCas, ConditionalSemantics) {
  kv::Store store;
  kv::Command cas;
  cas.op = kv::OpType::kCas;
  cas.key = "k";
  cas.expected = "";  // must be absent
  cas.value = "v1";
  EXPECT_TRUE(store.Apply(cas).status.ok());
  // Absent-expectation now fails and echoes the current value.
  auto miss = store.Apply(cas);
  EXPECT_EQ(miss.status.code(), Code::kConflict);
  EXPECT_EQ(miss.value, "v1");
  cas.expected = "v1";
  cas.value = "v2";
  EXPECT_TRUE(store.Apply(cas).status.ok());
  EXPECT_EQ(*store.Get("k"), "v2");
}

// ---------------------------------------------------------------------------
// QueueMachine unit semantics.

QueueRequest Enq(const std::string& topic, const std::string& payload,
                 uint64_t client = 0, uint64_t seq = 0) {
  QueueRequest r;
  r.op = QueueOp::kEnqueue;
  r.topic = topic;
  r.payload = payload;
  r.client_id = client;
  r.seq = seq;
  return r;
}

QueueRequest Deq(const std::string& topic, uint64_t client = 0,
                 uint64_t seq = 0) {
  QueueRequest r;
  r.op = QueueOp::kDequeue;
  r.topic = topic;
  r.client_id = client;
  r.seq = seq;
  return r;
}

TEST(QueueMachine, FifoPerTopic) {
  QueueMachine m(KeyRange::Full());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        m.Apply(sm::EncodeQueueRequest(Enq("t", "e" + std::to_string(i))))
            .status.ok());
  }
  EXPECT_EQ(m.Size(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto res = m.Apply(sm::EncodeQueueRequest(Deq("t")));
    ASSERT_TRUE(res.status.ok());
    EXPECT_EQ(res.payload, "e" + std::to_string(i));
  }
  EXPECT_EQ(m.Apply(sm::EncodeQueueRequest(Deq("t"))).status.code(),
            Code::kNotFound);
}

TEST(QueueMachine, RetriedDequeueDoesNotPopTwice) {
  QueueMachine m(KeyRange::Full());
  (void)m.Apply(sm::EncodeQueueRequest(Enq("t", "first")));
  (void)m.Apply(sm::EncodeQueueRequest(Enq("t", "second")));
  auto once = m.Apply(sm::EncodeQueueRequest(Deq("t", /*client=*/7, /*seq=*/1)));
  ASSERT_TRUE(once.status.ok());
  EXPECT_EQ(once.payload, "first");
  // The retry (same session, same seq) returns the recorded result; the
  // second event stays queued — destructive ops make dedup observable.
  auto retry = m.Apply(sm::EncodeQueueRequest(Deq("t", 7, 1)));
  EXPECT_EQ(retry.payload, "first");
  EXPECT_EQ(m.TopicDepth("t"), 1u);
}

TEST(QueueMachine, QueryIsReadOnly) {
  QueueMachine m(KeyRange::Full());
  (void)m.Apply(sm::EncodeQueueRequest(Enq("t", "head")));
  QueueRequest peek;
  peek.op = QueueOp::kPeek;
  peek.topic = "t";
  auto res = m.Query(sm::EncodeQueueRequest(peek));
  ASSERT_TRUE(res.status.ok());
  EXPECT_EQ(res.payload, "head");
  EXPECT_EQ(m.TopicDepth("t"), 1u);  // still there
  QueueRequest len;
  len.op = QueueOp::kLen;
  len.topic = "t";
  EXPECT_EQ(m.Query(sm::EncodeQueueRequest(len)).payload, "1");
  // Mutating ops are rejected on the read path.
  EXPECT_FALSE(m.Query(sm::EncodeQueueRequest(Deq("t"))).status.ok());
}

TEST(QueueMachine, SnapshotRestoreRestrictMerge) {
  QueueMachine m(KeyRange::Full());
  (void)m.Apply(sm::EncodeQueueRequest(Enq("a", "1", 3, 1)));
  (void)m.Apply(sm::EncodeQueueRequest(Enq("a", "2", 3, 2)));
  (void)m.Apply(sm::EncodeQueueRequest(Enq("q", "3", 3, 3)));

  auto snap = m.TakeSnapshot();
  QueueMachine copy(KeyRange::Empty());
  ASSERT_TRUE(copy.Restore(*snap).ok());
  EXPECT_EQ(copy.Size(), 3u);
  EXPECT_EQ(copy.TopicDepth("a"), 2u);
  // Sessions travel with the snapshot: the retry still dedups.
  auto dup = copy.Apply(sm::EncodeQueueRequest(Enq("a", "2", 3, 2)));
  EXPECT_TRUE(dup.status.ok());
  EXPECT_EQ(copy.TopicDepth("a"), 2u);

  // Split: restrict to ["", "m"), the "q" topic is discarded.
  ASSERT_TRUE(m.RestrictRange(KeyRange("", "m")).ok());
  EXPECT_EQ(m.Size(), 2u);
  EXPECT_EQ(m.TopicDepth("q"), 0u);

  // Merge the other half back in.
  QueueMachine other(KeyRange("m", ""));
  (void)other.Apply(sm::EncodeQueueRequest(Enq("q", "3")));
  ASSERT_TRUE(m.MergeIn(*other.TakeSnapshot()).ok());
  EXPECT_EQ(m.Size(), 3u);
  EXPECT_TRUE(m.range() == KeyRange::Full());
}

TEST(QueueMachine, SplitHintPicksAnInteriorTopic) {
  QueueMachine m(KeyRange::Full());
  EXPECT_FALSE(m.SplitHint(0.5).ok());  // too few topics
  for (int i = 0; i < 10; ++i) {
    (void)m.Apply(
        sm::EncodeQueueRequest(Enq("t" + std::to_string(i), "e")));
  }
  auto hint = m.SplitHint(0.5);
  ASSERT_TRUE(hint.ok());
  EXPECT_GT(*hint, "t0");
  EXPECT_LT(*hint, "t9");
}

// ---------------------------------------------------------------------------
// The boundary proof: a queue-backed cluster through split + merge + crash.

const QueueMachine& QueueOf(const core::Node& n) {
  EXPECT_STREQ(n.machine().Name(), "queue");
  return static_cast<const QueueMachine&>(n.machine());
}

Result<raft::ClientReply> QueueCall(World& w,
                                    const std::vector<NodeId>& members,
                                    const QueueRequest& req,
                                    bool read = false) {
  TimePoint deadline = w.now() + 10 * kSecond;
  while (w.now() < deadline) {
    if (!w.WaitForLeader(members, deadline - w.now())) break;
    NodeId l = w.LeaderOf(members);
    sm::Command cmd = sm::EncodeQueueRequest(req);
    auto reply = read ? w.Call(l, raft::ReadRequest{std::move(cmd)})
                      : w.Call(l, std::move(cmd));
    if (!reply.ok()) continue;
    if (reply->status.code() == Code::kNotLeader ||
        reply->status.code() == Code::kBusy ||
        reply->status.code() == Code::kUnavailable) {
      w.RunFor(50 * kMillisecond);
      continue;
    }
    return reply;
  }
  return Timeout("queue call did not complete");
}

TEST(QueueWorld, SplitMergeCrashIntegration) {
  auto opts = TestWorldOptions(31);
  opts.node.machine_factory = sm::QueueMachineFactory();
  World w(opts);
  harness::SafetyChecker checker(w);
  checker.AttachPeriodic();

  auto c = w.CreateCluster(6);
  ASSERT_TRUE(w.WaitForLeader(c));

  // Seed topics on both sides of the future split point, with sessions.
  uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) {
    std::string topic = (i % 2 == 0 ? "a" : "q") + std::to_string(i);
    auto r = QueueCall(w, c, Enq(topic, "e" + std::to_string(i), 900, ++seq));
    ASSERT_TRUE(r.ok() && r->status.ok()) << r.status().ToString();
  }

  // Split at "m": the a* topics stay left, q* go right.
  std::vector<NodeId> g1{c[0], c[1], c[2]}, g2{c[3], c[4], c[5]};
  ASSERT_TRUE(w.AdminSplit(c, {g1, g2}, {"m"}, 20 * kSecond).ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        for (NodeId id : c) {
          if (!w.HasNode(id) || w.node(id).epoch() != 1) return false;
        }
        return true;
      },
      20 * kSecond));
  ASSERT_TRUE(w.WaitForLeader(g1));
  ASSERT_TRUE(w.WaitForLeader(g2));
  EXPECT_EQ(QueueOf(w.node(g1[0])).Size(), 4u);  // only its half survives
  EXPECT_EQ(QueueOf(w.node(g2[0])).Size(), 4u);

  // Dequeue one event on the left (destructive, session-deduped), then
  // retry the exact command — exactly-once must hold across the machine.
  auto deq = QueueCall(w, g1, Deq("a0", 900, ++seq));
  ASSERT_TRUE(deq.ok() && deq->status.ok());
  EXPECT_EQ(deq->value, "e0");
  auto dup = QueueCall(w, g1, Deq("a0", 900, seq));
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->value, "e0");  // recorded result, not a second pop

  // Hard-crash the right group's leader mid-life and reboot it from its
  // durable image alone: the opaque snapshot/log replay must rebuild the
  // queue machine.
  NodeId victim = w.LeaderOf(g2);
  ASSERT_NE(victim, kNoNode);
  ASSERT_TRUE(w.Crash(victim).ok());
  w.RunFor(500 * kMillisecond);
  ASSERT_TRUE(w.Restart(victim).ok());
  ASSERT_TRUE(w.WaitForLeader(g2, 10 * kSecond));
  auto enq = QueueCall(w, g2, Enq("q1", "post-crash", 900, ++seq));
  ASSERT_TRUE(enq.ok() && enq->status.ok());
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        return w.HasNode(victim) && QueueOf(w.node(victim)).Size() == 5u;
      },
      10 * kSecond))
      << "rebooted node did not converge on the queue state";

  // Merge the halves back; the machine reassembles from exchanged opaque
  // snapshots (7 events: 8 seeded - 1 dequeued + 1 post-crash... the
  // dequeue removed e0, the enqueue added one).
  ASSERT_TRUE(w.AdminMerge({g1, g2}, {}, 40 * kSecond).ok());
  std::vector<NodeId> all = c;
  ASSERT_TRUE(w.RunUntil(
      [&]() {
        NodeId l = w.LeaderOf(all);
        return l != kNoNode && QueueOf(w.node(l)).Size() == 8u;
      },
      30 * kSecond));
  NodeId l = w.LeaderOf(all);

  // FIFO order survived the whole gauntlet.
  QueueRequest peek;
  peek.op = QueueOp::kPeek;
  peek.topic = "q1";
  auto head = QueueCall(w, all, peek, /*read=*/true);
  ASSERT_TRUE(head.ok() && head->status.ok());
  EXPECT_EQ(head->value, "e1");  // enqueued before "post-crash"
  EXPECT_EQ(QueueOf(w.node(l)).TopicDepth("q1"), 2u);

  checker.Observe();
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace recraft::test
