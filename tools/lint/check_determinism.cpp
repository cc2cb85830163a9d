// recraft-determinism — keeps the deterministic core pure. A simulated run
// must be a pure function of (seed, configuration): the executed schedule is
// hashed by determinism_test into bit-for-bit digests, and the planned
// multi-thousand-seed sweeps replay failures from a (seed, digest) line
// alone. Inside the deterministic subsystems this check therefore flags
// every source of ambient nondeterminism:
//
//   * wall-clock reads: time(), clock(), gettimeofday(), clock_gettime(),
//     std::chrono::{system,steady,high_resolution}_clock::now()
//   * unseeded randomness: rand(), srand(), rand_r(), drand48(), random(),
//     std::random_device
//   * environment reads: getenv()/secure_getenv() (config must flow through
//     Options structs so it is part of the seed-reproducible input)
//   * pointer identity as a value: reinterpret_cast of a pointer to
//     uintptr_t/intptr_t and std::hash<T*> — address-dependent ordering or
//     hashing changes across runs under ASLR
//   * iteration over unordered_{map,set} — the visit order is
//     address/hash-seed dependent; anything state-affecting done in such a
//     loop leaks that order into the schedule. Iterate an ordered container,
//     sort the keys first, or suppress with a justification proving the loop
//     body is order-independent.
#include <array>
#include <string>
#include <vector>

#include "analysis.h"

namespace recraft::lint {
namespace {

// Directories forming the deterministic core (virtual-path scoped).
// src/harness is in scope too: the nemesis/sweep layer promises per-seed
// digest-identical replays, so it must be as clock/rand-free as the core.
// src/obs is in scope for the same reason as src/harness: the flight
// recorder promises digest-neutral observation, so it must never draw a
// clock or RNG of its own (sim time arrives via Recorder::BindClock).
// src/net is split down the middle: the seam headers and the reliable-link
// engine are driven by the simulator (times arrive as parameters, so they
// stay in the gate), while the udp_* files ARE the real-world half — their
// whole job is reading CLOCK_MONOTONIC and the kernel — and are exempted
// by filename prefix below. src/client reads time only through the
// net::Clock it is handed, sim or real, so it is in scope whole. bench/tc
// is outside src/ but runs inside seeded worlds (the TC baseline's cluster
// manager is an actor on the simulated network), so it is in scope too.
const std::vector<std::string> kScopedDirs = {
    "src/sim", "src/core",    "src/raft", "src/shard",  "src/storage",
    "src/sm",  "src/harness", "src/obs",  "src/net",    "src/client",
    "bench/tc",
};

// Path prefixes inside the scoped dirs that are exempt: the real-socket /
// real-clock implementations of the net seam (and nothing else).
const std::vector<std::string> kExemptPrefixes = {
    "src/net/udp_",
};

bool ExemptPath(const std::string& virtual_path) {
  for (const std::string& p : kExemptPrefixes) {
    size_t at = virtual_path.find(p);
    if (at != std::string::npos && (at == 0 || virtual_path[at - 1] == '/')) {
      return true;
    }
  }
  return false;
}

// Identifiers that are banned when used as a call: `name(...)` with no
// object receiver (a method named `time` on a sim type is fine).
constexpr std::array kBannedCalls = {
    "time", "clock", "gettimeofday", "clock_gettime", "timespec_get", "rand",
    "srand", "rand_r", "drand48", "lrand48", "mrand48", "random", "getenv",
    "secure_getenv",
};

// Identifiers banned on sight (type or namespace members).
constexpr std::array kBannedIdents = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock",
};

template <typename Arr>
bool In(const Arr& arr, const std::string& s) {
  for (const char* e : arr) {
    if (s == e) return true;
  }
  return false;
}

class DeterminismCheck : public Check {
 public:
  std::string name() const override { return "recraft-determinism"; }
  std::string description() const override {
    return "wall-clock, unseeded randomness, environment reads, pointer "
           "identity or unordered iteration in the deterministic core";
  }

  void Run(const SourceFile& f, std::vector<Diagnostic>* out) override {
    if (!f.UnderAny(kScopedDirs)) return;
    if (ExemptPath(f.virtual_path())) return;
    const std::vector<Token>& toks = f.tokens();
    const size_t n = toks.size();

    for (size_t i = 0; i + 1 < n; ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::kIdent) continue;

      bool member_access =
          i > 0 && (toks[i - 1].Is(".") || toks[i - 1].Is("->"));

      // Banned free-function calls. `rng_.random(` is fine (member_access);
      // `long time() const {...}` — a member *named* like a banned function
      // — is a declaration, not a call: preceded by a type identifier, or
      // followed past the `)` by a function-definition tail.
      if (!member_access && In(kBannedCalls, t.text) && toks[i + 1].Is("(") &&
          !LooksLikeDeclaration(toks, i)) {
        Emit(f, t, "call to '" + t.text +
                       "' injects ambient state into the deterministic "
                       "core; derive it from the world seed / sim clock "
                       "instead",
             out);
        continue;
      }

      // Banned identifiers.
      if (In(kBannedIdents, t.text)) {
        Emit(f, t, "'" + t.text +
                       "' is nondeterministic across runs; use the "
                       "world-seeded recraft::Rng / the simulated clock",
             out);
        continue;
      }

      // Pointer identity -> integer.
      if (t.text == "reinterpret_cast" && toks[i + 1].Is("<")) {
        size_t j = i + 2;
        bool to_int = false;
        for (; j < n && !toks[j].Is(">") && j < i + 8; ++j) {
          const std::string& s = toks[j].text;
          if (s == "uintptr_t" || s == "intptr_t") to_int = true;
        }
        if (to_int) {
          Emit(f, t,
               "pointer identity converted to an integer is "
               "address-dependent (ASLR) and must not order, hash or key "
               "anything in the deterministic core",
               out);
          continue;
        }
      }

      // std::hash<T*>.
      if (t.text == "hash" && toks[i + 1].Is("<")) {
        size_t j = i + 2;
        int depth = 1;
        bool ptr = false;
        for (; j < n && depth > 0 && j < i + 16; ++j) {
          if (toks[j].Is("<")) ++depth;
          else if (toks[j].Is(">")) --depth;
          else if (toks[j].Is("*") && depth == 1) ptr = true;
        }
        if (ptr) {
          Emit(f, t,
               "std::hash over a pointer type hashes addresses; the result "
               "is not stable across runs",
               out);
          continue;
        }
      }

      // Range-for / iterator loops over unordered containers declared in
      // this file.
      if (t.text == "for" && toks[i + 1].Is("(")) {
        size_t close = MatchParen(toks, i + 1);
        for (size_t j = i + 2; j < close; ++j) {
          if (toks[j].kind != Tok::kIdent) continue;
          if (!f.unordered_names().count(toks[j].text)) continue;
          // Either the range expression of a range-for (`: name)`), or an
          // iterator init (`name.begin()`) in a classic for.
          bool range_expr = j > 0 && toks[j - 1].Is(":");
          bool iter_init = j + 2 < close &&
                           (toks[j + 1].Is(".") || toks[j + 1].Is("->")) &&
                           (toks[j + 2].IsIdent("begin") ||
                            toks[j + 2].IsIdent("cbegin"));
          if (range_expr || iter_init) {
            Emit(f, toks[j],
                 "iteration over unordered container '" + toks[j].text +
                     "' has hash-seed/address-dependent order; iterate an "
                     "ordered view (or justify order-independence with a "
                     "NOLINT)",
                 out);
            break;
          }
        }
        i = close;
      }
    }
  }

 private:
  // True if `toks[i] (` is a function declaration/definition of that name
  // rather than a call.
  static bool LooksLikeDeclaration(const std::vector<Token>& toks, size_t i) {
    if (i > 0 && toks[i - 1].kind == Tok::kIdent) {
      const std::string& p = toks[i - 1].text;
      // These keywords precede calls, not declarators.
      if (p != "return" && p != "case" && p != "else" && p != "do" &&
          p != "co_return" && p != "co_await" && p != "co_yield") {
        return true;  // `long time(...)` — a declared name
      }
    }
    size_t close = MatchParen(toks, i + 1);
    if (close + 1 < toks.size()) {
      const Token& after = toks[close + 1];
      if (after.Is("{") || after.IsIdent("const") ||
          after.IsIdent("noexcept") || after.IsIdent("override")) {
        return true;  // `Ticker::time() const {` — a definition tail
      }
    }
    return false;
  }

  static size_t MatchParen(const std::vector<Token>& toks, size_t open) {
    int depth = 0;
    for (size_t j = open; j < toks.size(); ++j) {
      if (toks[j].Is("(")) ++depth;
      else if (toks[j].Is(")")) {
        if (--depth == 0) return j;
      }
    }
    return toks.size() - 1;
  }

  void Emit(const SourceFile& f, const Token& at, std::string msg,
            std::vector<Diagnostic>* out) {
    Diagnostic d;
    d.file = f.path();
    d.line = at.line;
    d.col = at.col;
    d.check = name();
    d.message = std::move(msg);
    out->push_back(std::move(d));
  }
};

}  // namespace

std::unique_ptr<Check> MakeDeterminismCheck() {
  return std::make_unique<DeterminismCheck>();
}

}  // namespace recraft::lint
