// RECRAFT-TIDY-PATH: src/core/fixture_layering_positive.cc
// The deployable core (src/{core,raft,sm,kv,storage,net,client}) links into
// recraftd with no simulator in the binary; a sim/ or harness/ include
// below the line inverts the adapter relationship and drags the test
// scaffolding into production links.

#include <vector>

#include "common/types.h"      // project includes below the line are fine
#include "net/transport.h"     // the seam itself is the legal direction
#include "sim/event_queue.h"   // EXPECT: recraft-layering
#include "harness/world.h"     // EXPECT: recraft-layering

namespace fixture {

struct Node {
  std::vector<int> peers;
};

}  // namespace fixture
