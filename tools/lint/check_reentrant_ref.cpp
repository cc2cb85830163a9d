// recraft-reentrant-ref — flags a reference, pointer or iterator obtained
// from node-owned container state that is still used after a call that can
// mutate or reenter that container. This is the PR 1 use-after-free family
// (`Progress&` / `ConfigState&` held across a reentrant apply in
// HandleAppendReply / OnMemberChangeCommitted) and the PR 5 placement-driver
// variant (a `ShardInfo*` from ShardMap::Get used after the rebalancer ran
// the event loop).
//
// Model (per function body):
//   1. A *binding* is created when a reference/pointer/iterator is
//      initialized from a member-container access (an identifier ending in
//      `_` followed by `[`, `.find(`, `.at(`, `.begin()`, ...) or from a
//      known accessor (LeaderProgress, Current, Get, Lookup, ConfigOf, ...),
//      or when the declared type itself is a known container-owned record
//      type (Progress, ConfigState, ShardInfo, ...).
//   2. A call to a *reentrant* method (Propose, AdvanceCommit,
//      ApplyCommitted, MaybeSendAppend, rebalancer Split/Merge, ShardMap
//      Apply, World event-loop drivers, ...) poisons every live binding —
//      including a binding passed as an argument of that very call, which is
//      exactly the `rb_.Split(*stale_ptr, ...)` shape.
//   3. Any later mention of a poisoned binding diagnoses; re-assigning the
//      name (`p = LeaderProgress(peer)`, `it = m_.find(k)`) re-validates it,
//      which is the documented "re-fetch after such calls" idiom.
#include <array>
#include <string>
#include <vector>

#include "analysis.h"

namespace recraft::lint {
namespace {

// Methods whose execution can mutate node-owned containers or reenter the
// apply/reconfiguration machinery. Receiver-independent by design: the bug
// family is about *what runs underneath*, not who is called.
constexpr std::array kReentrantCalls = {
    // Replication / apply path (core::Node).
    "Propose", "AdvanceCommit", "ApplyCommitted", "MaybeSendAppend",
    "BroadcastAppend", "ObserveEt", "MaybeCompact",
    // Reconfiguration machinery.
    "OnMemberChangeCommitted", "CompleteSplit", "StartMerge", "StartSplit",
    "StartExchange", "OnMergeOutcomeApplied", "ProposeMergeOutcome",
    "ClearProgress", "PruneProgress",
    // Message pumps: anything that can deliver a message can do all of the
    // above transitively.
    "Receive", "Tick", "Step",
    // Harness / placement: these run the simulated event loop (and with it
    // arbitrary node code) or rewrite the shard map / world node set.
    "RunFor", "RunUntil", "RunUntilPred", "RunUntilQuiescent",
    "SplitShard", "MergeShards", "WipeNode", "Crash", "Restart",
    "CreateSpareNode", "BootstrapCluster", "BootstrapShards",
    "ReconcileRegion",
    // The Rebalancer surface: both implementations drive the whole
    // split/merge protocol through the event loop.
    "Split", "Merge",
};

// Accessors that hand out references/pointers/iterators into container-owned
// state.
constexpr std::array kAccessors = {
    "LeaderProgress", "Current", "Get", "Lookup", "ConfigOf", "MetricsOf",
    "find", "at", "begin", "rbegin", "lower_bound", "upper_bound", "front",
    "back", "emplace", "insert", "try_emplace",
};

// Record types that live inside node-owned containers: declaring a
// reference/pointer of one of these is treated as a container binding even
// when the initializer is not syntactically recognizable.
constexpr std::array kOwnedRecordTypes = {
    "Progress", "ConfigState", "ShardInfo", "PendingClient", "PendingRead",
    "MergeRuntime", "ExchangeGc", "NamingRegister",
};

template <typename Arr>
bool In(const Arr& arr, const std::string& s) {
  for (const char* e : arr) {
    if (s == e) return true;
  }
  return false;
}

struct Binding {
  std::string name;
  int decl_line = 0;
  int decl_depth = 0;
  std::string source;      // what it was bound from, for the message
  bool poisoned = false;   // a reentrant call happened since (re)binding
  int poisoned_depth = 1 << 20;  // shallowest depth of any poisoning call
  std::string poisoned_by;
  int poisoned_line = 0;
  bool reported = false;
};

class ReentrantRefCheck : public Check {
 public:
  std::string name() const override { return "recraft-reentrant-ref"; }
  std::string description() const override {
    return "reference/iterator into node-owned state used across a call "
           "that can mutate or reenter its container";
  }

  void Run(const SourceFile& f, std::vector<Diagnostic>* out) override {
    const std::vector<Token>& toks = f.tokens();
    const size_t n = toks.size();
    std::vector<Binding> live;
    std::string cur_func;

    auto member_container_access = [&](size_t from, size_t to) -> std::string {
      // Scan [from, to) for `ident_ [` / `ident_.accessor(` /
      // `expr.accessor(` / bare `Accessor(`. Returns a description or "".
      for (size_t j = from; j < to && j + 1 < n; ++j) {
        const Token& t = toks[j];
        if (t.kind != Tok::kIdent) continue;
        bool member_ish = !t.text.empty() && t.text.back() == '_';
        if (member_ish && toks[j + 1].Is("[")) return t.text + "[]";
        if (j + 2 < to && (toks[j + 1].Is(".") || toks[j + 1].Is("->")) &&
            toks[j + 2].kind == Tok::kIdent &&
            In(kAccessors, toks[j + 2].text) && j + 3 < n &&
            toks[j + 3].Is("(")) {
          return t.text + "." + toks[j + 2].text + "()";
        }
        if (In(kAccessors, t.text) && toks[j + 1].Is("(") &&
            (j == from || !(toks[j - 1].Is(".") || toks[j - 1].Is("->")))) {
          return t.text + "()";
        }
      }
      return "";
    };

    for (size_t i = 0; i + 1 < n; ++i) {
      const Token& t = toks[i];
      const std::string& fn = f.FunctionAt(i);
      if (fn != cur_func) {
        live.clear();
        cur_func = fn;
      }
      if (cur_func.empty()) continue;
      // Closing a block: drop bindings declared inside it, and — when the
      // block cannot fall through (its last statement is a jump) — undo any
      // poisoning that happened only inside it. This keeps the canonical
      //   if (needs_apply) { ApplyCommitted(); return Retry(); }
      //   use(cfg);   // cfg is only reachable if the apply did NOT run
      // shape clean without a NOLINT.
      if (t.Is("}")) {
        int d = f.DepthAt(i);
        bool jump_exit = BlockEndsWithJump(toks, i);
        for (auto it = live.begin(); it != live.end();) {
          if (it->decl_depth >= d) {
            it = live.erase(it);
            continue;
          }
          if (jump_exit && it->poisoned && it->poisoned_depth >= d) {
            it->poisoned = false;
            it->poisoned_depth = 1 << 20;
          }
          ++it;
        }
        continue;
      }
      if (t.kind != Tok::kIdent) continue;

      // --- reentrant call? ---------------------------------------------
      if (In(kReentrantCalls, t.text) && toks[i + 1].Is("(")) {
        // Flag live bindings handed to the call itself — the
        // `rb_.Split(*stale, ...)` shape, where the callee receives a
        // reference to container-owned state and then invalidates it while
        // running. Only a *direct* top-level argument (`stale`, `*stale`,
        // `&stale`) is flagged: `Propose(Payload{ref.field})` copies the
        // field during argument construction, before the callee runs, and
        // is safe. Then poison everything for post-call uses.
        size_t close = MatchParen(toks, i + 1);
        for (size_t j = i + 2; j < close; ++j) {
          if (toks[j].kind != Tok::kIdent) continue;
          if (!DirectArgUse(toks, i + 1, close, j)) continue;
          for (Binding& b : live) {
            if (b.reported || toks[j].text != b.name) continue;
            Report(f, toks[j], b, t.text, out);
          }
        }
        int call_depth = f.DepthAt(i);
        for (Binding& b : live) {
          if (!b.poisoned) {
            b.poisoned = true;
            b.poisoned_by = t.text;
            b.poisoned_line = t.line;
          }
          if (call_depth < b.poisoned_depth) b.poisoned_depth = call_depth;
        }
        i = close;  // args were handled; don't treat them as uses again
        continue;
      }

      // --- use or re-binding of a tracked name? ------------------------
      bool handled = false;
      for (Binding& b : live) {
        if (t.text != b.name) continue;
        handled = true;
        // `name = ...` re-binds (and `name.field = ...` does not).
        if (toks[i + 1].Is("=")) {
          size_t semi = i + 1;
          while (semi < n && !toks[semi].Is(";")) ++semi;
          b.poisoned = false;
          b.reported = false;
          b.source = member_container_access(i + 2, semi);
          break;
        }
        if (b.poisoned && !b.reported) Report(f, t, b, b.poisoned_by, out);
        break;
      }
      if (handled) continue;

      // --- new binding declaration? ------------------------------------
      // Patterns:  T& name = expr;   T* name = expr;   auto name = expr;
      // where T is an owned record type or expr is a container access.
      if ((t.text == "auto" || In(kOwnedRecordTypes, t.text)) ||
          (toks[i + 1].Is("&") || toks[i + 1].Is("*"))) {
        size_t j = i;
        bool ref_like = false;
        if (toks[j + 1].Is("&") || toks[j + 1].Is("*")) {
          ref_like = true;
          ++j;
        }
        if (j + 2 >= n) continue;
        const Token& name = toks[j + 1];
        if (name.kind != Tok::kIdent || !toks[j + 2].Is("=")) continue;
        // Exclude comparisons and compound tokens (lexer splits "==").
        size_t eq = j + 2;
        size_t semi = eq;
        while (semi < n && !toks[semi].Is(";") && !toks[semi].Is("{")) ++semi;
        std::string src = member_container_access(eq + 1, semi);
        bool typed_record = In(kOwnedRecordTypes, t.text) && ref_like;
        bool iterator_bind =
            t.text == "auto" && !ref_like && !src.empty() &&
            (src.find(".find()") != std::string::npos ||
             src.find(".begin()") != std::string::npos ||
             src.find(".lower_bound()") != std::string::npos ||
             src.find(".upper_bound()") != std::string::npos);
        bool ref_bind = ref_like && (!src.empty() || typed_record);
        if (!ref_bind && !iterator_bind) continue;
        Binding b;
        b.name = name.text;
        b.decl_line = name.line;
        b.decl_depth = f.DepthAt(i);
        b.source = src.empty() ? (t.text + std::string("&")) : src;
        live.push_back(std::move(b));
        i = semi;
      }
    }
  }

 private:
  // True when toks[j] is a whole top-level argument of the call whose
  // argument list spans (open, close): optionally behind one `*`/`&`, and
  // delimited by `(`/`,` before and `,`/`)` after. `Payload{x.f}` and
  // `x->field` fail this test — those read/copy during argument evaluation,
  // before the callee can invalidate anything.
  static bool DirectArgUse(const std::vector<Token>& toks, size_t open,
                           size_t close, size_t j) {
    int nest = 0;  // depth relative to the call's own parens/braces
    for (size_t k = open + 1; k < j; ++k) {
      if (toks[k].Is("(") || toks[k].Is("{") || toks[k].Is("[")) ++nest;
      else if (toks[k].Is(")") || toks[k].Is("}") || toks[k].Is("]")) --nest;
    }
    if (nest != 0) return false;
    size_t before = j - 1;
    if (toks[before].Is("*") || toks[before].Is("&")) --before;
    if (before < open) return false;
    if (!(before == open || toks[before].Is("(") || toks[before].Is(",")))
      return false;
    if (j + 1 > close) return false;
    return toks[j + 1].Is(",") || toks[j + 1].Is(")");
  }

  // True when the statement immediately preceding the `}` at toks[i] is a
  // jump (return/break/continue/throw/goto): control cannot fall out of the
  // block, so poisoning confined to it does not reach code after the `}`.
  static bool BlockEndsWithJump(const std::vector<Token>& toks, size_t i) {
    if (i == 0) return false;
    size_t last = i - 1;           // expect the `;` ending the statement
    if (!toks[last].Is(";")) return false;
    // Walk back to the start of that statement.
    size_t j = last;
    while (j > 0) {
      --j;
      if (toks[j].Is(";") || toks[j].Is("{") || toks[j].Is("}")) {
        ++j;
        break;
      }
    }
    return toks[j].IsIdent("return") || toks[j].IsIdent("break") ||
           toks[j].IsIdent("continue") || toks[j].IsIdent("throw") ||
           toks[j].IsIdent("goto");
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

  void Report(const SourceFile& f, const Token& at, Binding& b,
              const std::string& call, std::vector<Diagnostic>* out) {
    b.reported = true;
    Diagnostic d;
    d.file = f.path();
    d.line = at.line;
    d.col = at.col;
    d.check = name();
    d.message = "'" + b.name + "' (bound from " + b.source + " at line " +
                std::to_string(b.decl_line) +
                ") is used after a call to '" + call +
                "', which can mutate or reenter its container; copy the "
                "value or re-fetch after the call (see core::Node "
                "WithProgress/LeaderProgress)";
    out->push_back(std::move(d));
  }
};

}  // namespace

std::unique_ptr<Check> MakeReentrantRefCheck() {
  return std::make_unique<ReentrantRefCheck>();
}

}  // namespace recraft::lint
