// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>

#include "harness/checkers.h"
#include "harness/client.h"
#include "harness/world.h"

namespace recraft::test {

using harness::World;
using harness::WorldOptions;

/// Default world options for protocol tests: traced applies for the safety
/// checkers, modest timeouts, deterministic seed per test unless overridden.
inline WorldOptions TestWorldOptions(uint64_t seed = 42) {
  WorldOptions o;
  o.seed = seed;
  o.node.trace_applied = true;
  return o;
}

inline raft::MemberChange Change(raft::MemberChangeKind kind,
                                 std::vector<NodeId> nodes = {}) {
  raft::MemberChange mc;
  mc.kind = kind;
  mc.nodes = std::move(nodes);
  return mc;
}

/// Assert that every live member of `members` eventually converges to the
/// same commit index and applied state.
inline void ExpectConverged(World& w, const std::vector<NodeId>& members,
                            Duration timeout = 5 * kSecond) {
  bool ok = w.RunUntil(
      [&]() {
        Index commit = 0;
        Index last = 0;
        for (NodeId id : members) {
          if (w.IsCrashed(id)) continue;
          commit = std::max(commit, w.node(id).commit_index());
          last = std::max(last, w.node(id).last_log_index());
        }
        if (commit < last) return false;  // outstanding entries uncommitted
        for (NodeId id : members) {
          if (w.IsCrashed(id)) continue;
          if (w.node(id).last_applied() < commit) return false;
        }
        return commit > 1;  // beyond the genesis ConfInit entry
      },
      timeout);
  EXPECT_TRUE(ok) << "cluster did not converge";
}

/// A fresh directory under the test temp dir, removed with its contents on
/// destruction (FileDisk tests).
class TempDir {
 public:
  TempDir() {
    std::string pattern = ::testing::TempDir() + "recraft-XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) ADD_FAILURE() << "mkdtemp";
    path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace recraft::test
