// RECRAFT-TIDY-PATH: src/client/fixture_determinism_client_scope.cc
// The client session runs inside seeded worlds as well as in recraft-cli;
// it must take time from the net::Clock it is handed, never from the OS,
// or the simulated fleet's schedule stops being a function of the seed.

#include <ctime>

namespace fixture {

class Session {
 public:
  long IssuedAt() {
    return time(nullptr);  // EXPECT: recraft-determinism
  }
};

}  // namespace fixture
