// RECRAFT-TIDY-PATH: bench/tc/fixture_determinism_bench_tc_scope.cc
// The TC baseline lives under bench/ but its cluster manager is an actor
// on the simulated network, ticking inside seeded worlds: a CM reading a
// wall clock or drawing randomness of its own would make Table I and the
// Fig. 7b/8b runs differ across replays of the same seed. So bench/tc is
// inside the recraft-determinism scope, unlike the rest of bench/.

#include <chrono>

namespace fixture {

class ClusterManager {
 public:
  unsigned long RetryAt() {
    auto t = std::chrono::steady_clock::now();  // EXPECT: recraft-determinism
    (void)t;
    unsigned long now = time(nullptr);  // EXPECT: recraft-determinism
    return now + rand();  // EXPECT: recraft-determinism
  }
};

}  // namespace fixture
