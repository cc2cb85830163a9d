#include "harness/world.h"

#include <cassert>
#include <ostream>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace recraft::harness {

void NamingService::HandleRegister(const raft::NamingRegister& reg) {
  auto it = clusters_.find(reg.uid);
  if (it == clusters_.end() || it->second.epoch <= reg.epoch) {
    clusters_[reg.uid] = reg;
  }
}

raft::NamingLookupReply NamingService::Directory() const {
  raft::NamingLookupReply reply;
  for (const auto& [uid, reg] : clusters_) reply.clusters.push_back(reg);
  return reply;
}

const kv::Store& KvStoreOf(const core::Node& n) {
  assert(std::string_view(n.machine().Name()) == "kv" &&
         "KvStoreOf on a non-KV machine");
  return static_cast<const kv::KvMachine&>(n.machine()).store();
}

World::World(WorldOptions opts)
    : opts_(opts),
      rng_(opts.seed),
      net_(events_, opts.net, Rng(Mix64(opts.seed, 0x4e70))) {
  // The KV machine is the default workload; worlds for other machines
  // (e.g. sm::QueueMachineFactory) inject theirs via WorldOptions::node.
  if (!opts_.node.machine_factory) {
    opts_.node.machine_factory = kv::KvMachineFactory();
  }
  opts_.node.naming_service = kNamingServiceId;
  if (opts_.recorder != nullptr) {
    opts_.recorder->BindClock(events_.now_ptr());
    net_.set_recorder(opts_.recorder);
    opts_.node.recorder = opts_.recorder;
  }
  transport_.Bind(kNamingServiceId,
                  [this](NodeId from, const raft::Message& m,
                         obs::TraceCtx ctx) {
                    if (const auto* reg =
                            std::get_if<raft::NamingRegister>(&m)) {
                      naming_.HandleRegister(*reg);
                    } else if (std::get_if<raft::NamingLookupReq>(&m) !=
                               nullptr) {
                      auto reply = raft::MakeMessage(
                          raft::Message(naming_.Directory()));
                      reply.set_trace_ctx(ctx);
                      transport_.Send(kNamingServiceId, from, reply);
                    }
                  });
  transport_.Bind(kAdminId, [this](NodeId, const raft::Message& m,
                                   obs::TraceCtx) {
    if (const auto* reply = std::get_if<raft::ClientReply>(&m)) {
      admin_replies_[reply->req_id] = *reply;
      // Fire-and-forget senders (nemesis churn storms) never collect their
      // replies; bound the stash so they cannot grow it without limit.
      // req_ids are monotone, so the oldest key is the stalest reply.
      while (admin_replies_.size() > 4096) {
        admin_replies_.erase(admin_replies_.begin());
      }
    }
  });
}

World::~World() = default;

storage::Storage* World::MakeStorage(NodeId id) {
  auto& disk = disks_[id];
  if (disk == nullptr) disk = std::make_shared<storage::SimDisk>();
  auto wal = std::make_unique<storage::WalStorage>(disk, &clock_, opts_.wal);
  if (opts_.recorder != nullptr) wal->SetRecorder(opts_.recorder, id);
  storage::Storage* raw = wal.get();
  storages_[id] = std::move(wal);
  return raw;
}

void World::RegisterNodeHandler(NodeId id) {
  transport_.Bind(id, [this, id](NodeId from, const raft::Message& m,
                                 obs::TraceCtx ctx) {
    auto it = nodes_.find(id);
    if (it == nodes_.end()) return;  // crashed — delivery dropped
    it->second->Receive(from, m, ctx);
  });
}

std::vector<NodeId> World::CreateCluster(size_t n, KeyRange range) {
  std::vector<NodeId> members;
  members.reserve(n);
  for (size_t i = 0; i < n; ++i) members.push_back(next_node_id_++);

  raft::ConfigState genesis;
  genesis.members = members;
  genesis.range = range;
  genesis.uid = Mix64(opts_.seed, members.front());

  for (NodeId id : members) {
    auto send = [this, id](NodeId to, raft::MessagePtr msg) {
      transport_.Send(id, to, msg);
    };
    nodes_[id] = std::make_unique<core::Node>(
        id, opts_.node, genesis, Rng(Mix64(opts_.seed, 0xabc0 + id)),
        std::move(send), MakeStorage(id));
    RegisterNodeHandler(id);
    ScheduleTick(id);
  }
  return members;
}

NodeId World::CreateSpareNode() {
  NodeId id = next_node_id_++;
  // A spare starts as a non-member with an empty configuration: it idles
  // (cannot campaign) until a membership change adds it and the leader
  // catches it up via appends or a snapshot.
  raft::ConfigState genesis;
  genesis.members = {};       // retired until added
  genesis.range = KeyRange::Empty();
  genesis.uid = 0;
  auto send = [this, id](NodeId to, raft::MessagePtr msg) {
    transport_.Send(id, to, msg);
  };
  nodes_[id] = std::make_unique<core::Node>(
      id, opts_.node, genesis, Rng(Mix64(opts_.seed, 0xabc0 + id)),
      std::move(send), MakeStorage(id));
  RegisterNodeHandler(id);
  ScheduleTick(id);
  return id;
}

Result<std::vector<shard::ShardId>> World::BootstrapShards(
    size_t n_shards, size_t group_size,
    const std::vector<std::string>& boundaries, Duration timeout) {
  if (n_shards == 0) return Rejected("need at least one shard");
  if (boundaries.size() + 1 != n_shards) {
    return Rejected("need exactly n_shards - 1 boundary keys");
  }
  std::vector<KeyRange> ranges;
  if (n_shards == 1) {
    ranges.push_back(KeyRange::Full());
  } else {
    auto split = KeyRange::Full().SplitAt(boundaries);
    if (!split.ok()) return split.status();
    ranges = *split;
  }
  std::vector<shard::ShardInfo> infos;
  for (const KeyRange& range : ranges) {
    auto members = CreateCluster(group_size, range);
    if (!WaitForLeader(members, timeout)) {
      return Timeout("no leader for shard over " + range.ToString());
    }
    shard::ShardInfo si;
    si.range = range;
    si.members = members;
    NodeId leader = LeaderOf(members);
    si.leader_hint = leader;
    si.epoch = node(leader).epoch();
    si.uid = node(leader).cluster_uid();
    infos.push_back(std::move(si));
  }
  if (Status s = shard_map_.Bootstrap(std::move(infos)); !s.ok()) return s;
  std::vector<shard::ShardId> ids;
  for (const auto& si : shard_map_.Shards()) ids.push_back(si.id);
  return ids;
}

Status World::WipeNode(NodeId id, Duration timeout) {
  if (!HasNode(id)) return NotFound("no node " + std::to_string(id));
  raft::BootstrapReq req;
  req.from = kAdminId;
  req.op_id = NextReqId();
  req.genesis = raft::ConfigState{};  // memberless: the node becomes a spare
  req.genesis.range = KeyRange::Empty();
  auto msg = raft::MakeMessage(raft::Message(req));
  transport_.Send(kAdminId, id, msg);
  bool ok = RunUntil(
      [&]() {
        // The node can be crashed by chaos while we wait: that is a
        // wipe failure, not a license to deref a destroyed object.
        if (!HasNode(id)) return false;
        return node(id).config().members.empty() &&
               node(id).cluster_uid() == 0;
      },
      timeout);
  return ok ? OkStatus() : Timeout("node did not reinitialize");
}

void World::ScheduleTick(NodeId id) {
  // Stagger tick phases across nodes so the world has no artificial global
  // synchrony.
  Duration offset = rng_.Uniform(0, opts_.node.tick_interval - 1);
  uint64_t gen = node_gen_[id];
  events_.Schedule(offset, [this, id, gen]() { TickNode(id, gen); });
}

void World::TickNode(NodeId id, uint64_t gen) {
  if (gen != node_gen_[id]) return;  // stale chain from before a Crash
  auto it = nodes_.find(id);
  if (it == nodes_.end()) return;
  it->second->Tick();
  events_.Schedule(TickIntervalOf(id),
                   [this, id, gen]() { TickNode(id, gen); });
}

void World::SetTickInterval(NodeId id, Duration interval) {
  if (interval == 0) {
    tick_override_.erase(id);
  } else {
    tick_override_[id] = interval;
  }
}

Duration World::TickIntervalOf(NodeId id) const {
  auto it = tick_override_.find(id);
  return it == tick_override_.end() ? opts_.node.tick_interval : it->second;
}

core::Node& World::node(NodeId id) {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return *it->second;
}

const core::Node& World::node(NodeId id) const {
  auto it = nodes_.find(id);
  assert(it != nodes_.end());
  return *it->second;
}

std::vector<NodeId> World::AllNodeIds() const {
  std::vector<NodeId> ids;
  ids.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) ids.push_back(id);
  return ids;
}

storage::Storage* World::NodeStorage(NodeId id) {
  auto it = storages_.find(id);
  return it == storages_.end() ? nullptr : it->second.get();
}

storage::SimDisk* World::NodeDisk(NodeId id) {
  auto it = disks_.find(id);
  return it == disks_.end() ? nullptr : it->second.get();
}

Status World::Crash(NodeId id, const storage::CrashSpec& spec) {
  if (disks_.count(id) == 0) {  // not a node: network isolation only
    net_.Crash(id);
    return OkStatus();
  }
  if (!HasNode(id)) {
    return Rejected("node " + std::to_string(id) + " is already crashed");
  }
  net_.Crash(id);
  ++node_gen_[id];  // kills the tick chain at its next firing
  // Mangle the in-flight (unacknowledged) writes per the crash spec, then
  // destroy every byte of volatile state. The storage instance dies too:
  // recovery must reparse the disk, not reuse a live model.
  storages_.at(id)->Crash(spec);
  storages_.erase(id);
  nodes_.erase(id);
  return OkStatus();
}

Status World::Restart(NodeId id) {
  if (disks_.count(id) == 0) {  // not a node: reconnect only
    net_.Restart(id);
    return OkStatus();
  }
  if (HasNode(id)) return Rejected("node " + std::to_string(id) + " is up");
  net_.Restart(id);
  auto send = [this, id](NodeId to, raft::MessagePtr msg) {
    transport_.Send(id, to, msg);
  };
  // A fresh deterministic RNG stream per incarnation: same seed would replay
  // the same election jitter, different incarnations must not correlate.
  uint64_t gen = ++node_gen_[id];
  nodes_[id] = std::make_unique<core::Node>(
      id, opts_.node, MakeStorage(id),
      Rng(Mix64(opts_.seed, 0xb007'0000ull + id + (gen << 16))),
      std::move(send));
  RegisterNodeHandler(id);
  ScheduleTick(id);
  return OkStatus();
}

bool World::RunUntil(const std::function<bool()>& pred, Duration timeout) {
  return events_.RunUntilPred(pred, events_.now() + timeout);
}

NodeId World::LeaderOf(const std::vector<NodeId>& members) const {
  NodeId best = kNoNode;
  uint64_t best_et = 0;
  for (NodeId id : members) {
    if (!HasNode(id)) continue;  // crashed
    const auto& n = node(id);
    if (n.IsLeader() && n.current_et().raw() >= best_et) {
      best = id;
      best_et = n.current_et().raw();
    }
  }
  return best;
}

bool World::WaitForLeader(const std::vector<NodeId>& members,
                          Duration timeout) {
  return RunUntil([&]() { return LeaderOf(members) != kNoNode; }, timeout);
}

raft::ConfigState World::ConfigOf(const std::vector<NodeId>& members) const {
  // Highest et wins; on a tie, the member that committed most. A member cut
  // off before its removal committed keeps the survivors' et (until it
  // campaigns) but not their config.
  auto rank = [](const core::Node& n) {
    return std::pair(n.current_et().raw(), n.commit_index());
  };
  const core::Node* best = nullptr;
  for (NodeId id : members) {
    if (!HasNode(id)) continue;  // crashed
    const auto& n = node(id);
    if (best == nullptr || rank(n) > rank(*best)) best = &n;
  }
  // Every member down (crash chaos): an empty state, never a dead deref —
  // callers treat memberless configs as "nothing to do" and fail softly.
  if (best == nullptr) {
    raft::ConfigState none;
    none.range = KeyRange::Empty();
    return none;
  }
  return best->config();
}

// ---------------------------------------------------------------------------
// Synchronous request helpers.

Result<raft::ClientReply> World::Call(NodeId to, raft::ClientBody body,
                                      Duration timeout) {
  uint64_t req_id = NextReqId();
  raft::ClientRequest req;
  req.req_id = req_id;
  req.from = kAdminId;
  req.body = std::move(body);
  auto msg = raft::MakeMessage(raft::Message(req));
  transport_.Send(kAdminId, to, msg);
  bool got = RunUntil(
      [&]() { return admin_replies_.count(req_id) > 0; }, timeout);
  if (!got) return Timeout("no reply from node " + std::to_string(to));
  raft::ClientReply reply = admin_replies_[req_id];
  admin_replies_.erase(req_id);
  return reply;
}

Result<raft::ClientReply> World::CallLeader(const std::vector<NodeId>& members,
                                            raft::ClientBody body,
                                            Duration timeout) {
  TimePoint deadline = now() + timeout;
  size_t rotate = 0;
  while (now() < deadline) {
    NodeId target = LeaderOf(members);
    if (target == kNoNode) {
      target = members[rotate++ % members.size()];
      RunFor(50 * kMillisecond);
      if (LeaderOf(members) == kNoNode) continue;
      target = LeaderOf(members);
    }
    auto reply = Call(target, body, std::min<Duration>(deadline - now(),
                                                       2 * kSecond));
    if (!reply.ok()) continue;  // timeout: retry (leader may have moved)
    if (reply->status.code() == Code::kNotLeader ||
        reply->status.code() == Code::kBusy) {
      // NotLeader: follow the hint on the next probe. Busy: transient (P3
      // no-op still committing, or a merge blocking); retry shortly.
      RunFor(20 * kMillisecond);
      continue;
    }
    return reply;
  }
  return Timeout("no leader answered");
}

Status World::Put(const std::vector<NodeId>& members, const std::string& key,
                  const std::string& value, Duration timeout) {
  kv::Command cmd;
  cmd.op = kv::OpType::kPut;
  cmd.key = key;
  cmd.value = value;
  auto reply = CallLeader(members, kv::EncodeCommand(cmd), timeout);
  if (!reply.ok()) return reply.status();
  return reply->status;
}

Result<std::string> World::Get(const std::vector<NodeId>& members,
                               const std::string& key, Duration timeout) {
  kv::Command cmd;
  cmd.op = kv::OpType::kGet;
  cmd.key = key;
  auto reply = CallLeader(members, kv::EncodeCommand(cmd), timeout);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return reply->value;
}

Result<std::string> World::ReadGet(const std::vector<NodeId>& members,
                                   const std::string& key, Duration timeout) {
  kv::Command cmd;
  cmd.op = kv::OpType::kGet;
  cmd.key = key;
  auto reply =
      CallLeader(members, raft::ReadRequest{kv::EncodeCommand(cmd)}, timeout);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return reply->value;
}

Result<kv::Response> World::Scan(const std::vector<NodeId>& members,
                                 const std::string& lo, const std::string& hi,
                                 uint32_t limit, Duration timeout) {
  kv::Command cmd;
  cmd.op = kv::OpType::kScan;
  cmd.key = lo;
  cmd.scan_hi = hi;
  cmd.scan_limit = limit;
  auto reply =
      CallLeader(members, raft::ReadRequest{kv::EncodeCommand(cmd)}, timeout);
  if (!reply.ok()) return reply.status();
  if (!reply->status.ok()) return reply->status;
  return kv::DecodeResponse(kv::OpType::kScan, reply->status, reply->value);
}

Status World::Preload(const std::vector<NodeId>& members, size_t n,
                      size_t value_bytes, const std::string& prefix) {
  std::string value(value_bytes, 'v');
  char buf[32];
  for (size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%s%08zu", prefix.c_str(), i);
    Status s = Put(members, buf, value);
    if (!s.ok()) return s;
  }
  return OkStatus();
}

// ---------------------------------------------------------------------------
// Admin operations.

Status World::AdminSplit(const std::vector<NodeId>& members,
                         const std::vector<std::vector<NodeId>>& groups,
                         const std::vector<std::string>& split_keys,
                         Duration timeout) {
  raft::AdminSplit body;
  body.groups = groups;
  body.split_keys = split_keys;
  auto reply = CallLeader(members, body, timeout);
  if (!reply.ok()) return reply.status();
  return reply->status;
}

Result<raft::MergePlan> World::MakeMergeDraft(
    const std::vector<std::vector<NodeId>>& clusters) {
  raft::MergePlan plan;
  plan.tx = NextTxId();
  plan.coordinator = 0;
  for (const auto& members : clusters) {
    if (members.empty()) return Rejected("empty cluster in merge draft");
    raft::ConfigState cfg = ConfigOf(members);
    if (cfg.members.empty()) {
      return Unavailable("no live member to describe a merge source");
    }
    raft::SubCluster src;
    src.members = cfg.members;
    std::sort(src.members.begin(), src.members.end());
    src.range = cfg.range;
    src.uid = cfg.uid;
    plan.sources.push_back(std::move(src));
  }
  return plan;
}

Status World::AdminMerge(const std::vector<std::vector<NodeId>>& clusters,
                         std::vector<NodeId> resume_members, Duration timeout) {
  auto plan = MakeMergeDraft(clusters);
  if (!plan.ok()) return plan.status();
  plan->resume_members = std::move(resume_members);
  raft::AdminMerge body;
  body.draft = *plan;
  auto reply = CallLeader(clusters.front(), body, timeout);
  if (!reply.ok()) return reply.status();
  return reply->status;
}

Status World::AdminMemberChange(const std::vector<NodeId>& members,
                                const raft::MemberChange& change,
                                Duration timeout) {
  auto reply = CallLeader(members, raft::AdminMember{change}, timeout);
  if (!reply.ok()) return reply.status();
  return reply->status;
}

bool World::ConfigSettled(NodeId leader) const {
  const core::Node& l = node(leader);
  const raft::ConfigState& cfg = l.config();
  const Index at = l.config_index();
  if (cfg.ReconfigPending() || cfg.fixed_quorum != 0 ||
      l.commit_index() < at) {
    return false;
  }
  size_t applied = 0;
  for (NodeId m : cfg.members) {
    if (HasNode(m) && node(m).last_applied() >= at) ++applied;
  }
  return applied >= raft::MajorityOf(cfg.members.size());
}

Result<int> World::AdminResizeTo(const std::vector<NodeId>& members,
                                 const std::vector<NodeId>& target,
                                 Duration timeout) {
  TimePoint deadline = now() + timeout;
  std::vector<NodeId> current = ConfigOf(members).members;
  std::vector<NodeId> goal = target;
  std::sort(goal.begin(), goal.end());
  int steps = 0;
  auto wait_settled = [&]() {
    return RunUntil(
        [&]() {
          NodeId l = LeaderOf(goal.empty() ? current : goal);
          if (l == kNoNode) l = LeaderOf(current);
          return l != kNoNode && ConfigSettled(l);
        },
        deadline > now() ? deadline - now() : 0);
  };

  while (now() < deadline) {
    current = ConfigOf(current).members;
    std::vector<NodeId> to_add, to_remove;
    for (NodeId n : goal) {
      if (std::find(current.begin(), current.end(), n) == current.end()) {
        to_add.push_back(n);
      }
    }
    for (NodeId n : current) {
      if (std::find(goal.begin(), goal.end(), n) == goal.end()) {
        to_remove.push_back(n);
      }
    }
    if (to_add.empty() && to_remove.empty()) return steps;

    raft::MemberChange mc;
    if (!to_add.empty()) {
      mc.kind = raft::MemberChangeKind::kAddAndResize;
      mc.nodes = to_add;
    } else {
      // §IV-B: at most Q_old - 1 removals per step; chain if necessary.
      size_t cap = raft::MajorityOf(current.size()) - 1;
      if (cap == 0) return Rejected("cannot shrink a cluster of this size");
      if (to_remove.size() > cap) to_remove.resize(cap);
      mc.kind = raft::MemberChangeKind::kRemoveAndResize;
      mc.nodes = to_remove;
    }
    Status s = AdminMemberChange(current, mc,
                                 deadline > now() ? deadline - now() : 0);
    if (!s.ok()) return s;
    ++steps;
    if (!wait_settled()) return Timeout("membership change did not settle");
  }
  return Timeout("resize did not finish");
}

void World::DumpDiagnostics(std::ostream& os) const {
  os << "=== world diagnostics @ " << FormatTime(events_.now())
     << " (seed=" << opts_.seed << ") ===\n";
  os << "-- nodes --\n";
  for (const auto& [id, n] : nodes_) {
    Index durable = 0;
    if (auto it = storages_.find(id); it != storages_.end()) {
      durable = it->second->DurableIndex();
    }
    os << "  node " << id << ": " << core::RoleName(n->role())
       << " et=" << n->current_et().raw() << " epoch=" << n->epoch()
       << " commit=" << n->commit_index() << " applied=" << n->last_applied()
       << " last_log=" << n->last_log_index() << " durable=" << durable
       << " uid=" << n->cluster_uid()
       << " merge_phase=" << static_cast<int>(n->merge_phase())
       << " pending_reads=" << n->pending_read_count() << "\n";
  }
  for (const auto& [id, disk] : disks_) {
    if (nodes_.count(id) == 0) {
      os << "  node " << id << ": CRASHED (durable medium kept)\n";
    }
  }
  os << "-- network --\n";
  for (const auto& [name, value] : net_.counters().all()) {
    if (value != 0) os << "  " << name << " = " << value << "\n";
  }
  os << "  blocked_links = " << net_.blocked_link_count()
     << "  link_overrides = " << net_.link_override_count() << "\n";
  os << "-- disks --\n";
  for (const auto& [id, disk] : disks_) {
    const auto& s = disk->stats();
    os << "  disk " << id << ": flushes=" << s.flushes
       << " flushed_bytes=" << s.flushed_bytes
       << " appended_bytes=" << s.appended_bytes
       << " crash_lost_bytes=" << s.crash_lost_bytes << "\n";
  }
  os << "-- events --\n";
  os << "  executed=" << events_.events_executed()
     << " pending=" << events_.pending() << " digest=" << std::hex
     << events_.execution_digest() << std::dec << "\n";
}

}  // namespace recraft::harness
