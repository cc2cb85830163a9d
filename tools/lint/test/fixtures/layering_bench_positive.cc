// RECRAFT-TIDY-PATH: src/shard/fixture_layering_bench_positive.cc
// Nothing in src/ may include a bench/ header, not even the orchestration
// layers that may include harness/: the paper's baselines (bench/tc) build
// on the system, and the recraft library must link without them.

#include <memory>

#include "harness/world.h"             // src/shard may drive worlds
#include "shard/shard_map.h"
#include "bench/tc/cluster_manager.h"  // EXPECT: recraft-layering
#include "bench/bench_util.h"          // EXPECT: recraft-layering

namespace fixture {

struct Driver {
  std::unique_ptr<int> rebalancer;
};

}  // namespace fixture
