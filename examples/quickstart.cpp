// Quickstart: bring up a 3-node ReCraft cluster in the simulator, write and
// read keys, survive a leader crash, and grow the cluster to 5 nodes with a
// single AddAndResize consensus step.
//
//   $ ./quickstart
#include <cstdio>

#include "harness/world.h"

using namespace recraft;

int main() {
  // A deterministic world: nodes, a simulated network, and a virtual clock.
  harness::WorldOptions opts;
  opts.seed = 2024;
  opts.net.base_latency = 1 * kMillisecond;  // LAN-ish links
  harness::World world(opts);

  // 1. Bootstrap a 3-node cluster owning the whole key space.
  auto cluster = world.CreateCluster(3);
  world.WaitForLeader(cluster);
  std::printf("cluster %s elected node %u as leader\n",
              raft::NodesToString(cluster).c_str(), world.LeaderOf(cluster));

  // 2. Write and read through the consensus log.
  world.Put(cluster, "greeting", "hello recraft").ok();
  auto value = world.Get(cluster, "greeting");
  std::printf("greeting = %s\n", value.ok() ? value->c_str() : "<error>");

  // 3. Kill the leader; the survivors elect a new one and keep serving.
  NodeId old_leader = world.LeaderOf(cluster);
  (void)world.Crash(old_leader);
  std::printf("crashed leader n%u...\n", old_leader);
  world.WaitForLeader(cluster);
  std::printf("new leader: n%u\n", world.LeaderOf(cluster));
  world.Put(cluster, "still", "alive").ok();
  std::printf("still = %s\n", world.Get(cluster, "still")->c_str());
  (void)world.Restart(old_leader);

  // 4. Grow to 5 nodes with ReCraft's AddAndResize — both nodes join in ONE
  //    consensus step (plus an automatic ResizeQuorum when needed).
  NodeId n4 = world.CreateSpareNode();
  NodeId n5 = world.CreateSpareNode();
  raft::MemberChange add;
  add.kind = raft::MemberChangeKind::kAddAndResize;
  add.nodes = {n4, n5};
  Status s = world.AdminMemberChange(cluster, add);
  std::printf("AddAndResize(%u, %u): %s\n", n4, n5, s.ToString().c_str());

  std::vector<NodeId> bigger = cluster;
  bigger.push_back(n4);
  bigger.push_back(n5);
  world.RunUntil(
      [&]() {
        for (NodeId id : bigger) {
          if (world.node(id).config().members.size() != 5) return false;
        }
        return world.LeaderOf(bigger) != kNoNode;
      },
      10 * kSecond);
  std::printf("cluster is now %s\n",
              world.ConfigOf(bigger).ToString().c_str());

  // New members replicate the existing data.
  world.RunUntil([&]() { return harness::KvStoreOf(world.node(n4)).size() == 2; },
                 5 * kSecond);
  std::printf("node n%u caught up with %zu keys\n", n4,
              harness::KvStoreOf(world.node(n4)).size());
  std::printf("done (simulated time: %s)\n", FormatTime(world.now()).c_str());
  return 0;
}
