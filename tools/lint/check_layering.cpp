// recraft-layering — keeps the deployable core below the test scaffolding.
// The real-process deployment mode links core::Node, the raft protocol, the
// state machines, the storage/net layers and the client session into
// recraftd and recraft-cli with no simulator in the binary; that only stays
// true if nothing in those layers includes a sim/ or harness/ header. The
// dependency arrow must point one way: src/sim and src/harness wrap the
// core (SimTransport, SimClock, SimDisk are adapters *over* core seams),
// never the reverse.
//
// src/shard is deliberately out of scope: the placement/rebalancer plane is
// orchestration that drives harness worlds, sitting beside the harness, not
// below it. (Its ShardMap includes only src/common; src/client caches it.)
#include <array>
#include <string>
#include <vector>

#include "analysis.h"

namespace recraft::lint {
namespace {

// Layers that must stay simulator-free (virtual-path scoped).
const std::vector<std::string> kLayeredDirs = {
    "src/core", "src/raft",    "src/sm",     "src/kv",
    "src/storage", "src/net", "src/client",
};

// Include-path prefixes that may never appear below the line.
constexpr std::array kForbiddenPrefixes = {"sim/", "harness/"};

class LayeringCheck : public Check {
 public:
  std::string name() const override { return "recraft-layering"; }
  std::string description() const override {
    return "sim/ or harness/ include below the deployable core: the "
           "simulator wraps the core's seams, never the reverse";
  }

  void Run(const SourceFile& f, std::vector<Diagnostic>* out) override {
    if (!f.UnderAny(kLayeredDirs)) return;
    const std::vector<std::string>& lines = f.lines();
    for (size_t ln = 0; ln < lines.size(); ++ln) {
      std::string inc = IncludedPath(lines[ln]);
      if (inc.empty()) continue;
      for (const char* prefix : kForbiddenPrefixes) {
        if (inc.rfind(prefix, 0) != 0) continue;
        Diagnostic d;
        d.file = f.path();
        d.line = static_cast<int>(ln + 1);
        d.col = static_cast<int>(lines[ln].find('#') + 1);
        d.check = name();
        d.message = "'" + inc + "' included from the deployable core; " +
                    std::string(prefix) +
                    " must depend on this layer, not the reverse — move "
                    "the shared seam into src/net or src/common";
        out->push_back(std::move(d));
        break;
      }
    }
  }

 private:
  /// The quoted path of a `#include "..."` directive, else "". Angle-bracket
  /// includes are system/third-party and never name project layers.
  static std::string IncludedPath(const std::string& line) {
    size_t at = line.find_first_not_of(" \t");
    if (at == std::string::npos || line[at] != '#') return "";
    at = line.find_first_not_of(" \t", at + 1);
    if (at == std::string::npos || line.compare(at, 7, "include") != 0) {
      return "";
    }
    size_t open = line.find('"', at + 7);
    if (open == std::string::npos) return "";
    size_t close = line.find('"', open + 1);
    if (close == std::string::npos) return "";
    return line.substr(open + 1, close - open - 1);
  }
};

}  // namespace

std::unique_ptr<Check> MakeLayeringCheck() {
  return std::make_unique<LayeringCheck>();
}

}  // namespace recraft::lint
