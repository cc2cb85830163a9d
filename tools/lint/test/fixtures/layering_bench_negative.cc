// RECRAFT-TIDY-PATH: work/src/recraft/bench/tc/fixture_layering_bench_negative.cc
// Benches include the system and each other's helpers freely: bench/tc is
// a library built on src/. The path also puts the checkout under a
// directory named src/, which must not make bench/ count as the system
// tree.

#include <vector>

#include "bench/tc/cluster_manager.h"
#include "harness/world.h"
#include "shard/rebalancer.h"

namespace fixture {

struct Baseline {
  std::vector<int> steps;
};

}  // namespace fixture
