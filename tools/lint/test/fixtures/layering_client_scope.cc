// RECRAFT-TIDY-PATH: src/client/fixture_layering_client_scope.cc
// The client session links into recraft-cli next to UdpTransport, so
// src/client sits below the line too: it reaches the world through the
// net::Transport/net::Clock seams, and the harness wraps it, not the
// reverse.

#include "net/clock.h"         // the seams are the legal direction
#include "shard/shard_map.h"   // harness-free: only src/common below it
#include "harness/world.h"     // EXPECT: recraft-layering

namespace fixture {

struct Session {
  int open = 0;
};

}  // namespace fixture
