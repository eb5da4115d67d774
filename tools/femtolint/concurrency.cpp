#include "concurrency.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>

namespace femtolint {

namespace {

using Tokens = std::vector<Token>;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);

std::size_t match_fwd(const Tokens& t, std::size_t open) {
  const std::string& o = t[open].text;
  const char* c = o == "(" ? ")" : (o == "[" ? "]" : "}");
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::Punct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

// Token index just past a template argument list opening at @p open ('<').
std::size_t skip_angles(const Tokens& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::Punct) continue;
    const std::string& p = t[i].text;
    if (p == "<")
      ++depth;
    else if (p == ">")
      --depth;
    else if (p == ">>")
      depth -= 2;
    else if (p == "<<")
      depth += 2;
    else if (p == ";")
      return i;
    if (depth <= 0) return i + 1;
  }
  return t.size();
}

// The '(' opening a call of the identifier at @p k, accepting an explicit
// template-argument list of type-ish tokens (same shape model.cpp accepts).
std::size_t open_paren_after(const Tokens& t, std::size_t k) {
  const std::size_t n = t.size();
  if (k + 1 < n && is_punct(t[k + 1], "(")) return k + 1;
  if (k + 1 >= n || !is_punct(t[k + 1], "<")) return kNone;
  int depth = 0;
  const std::size_t limit = std::min(n, k + 1 + 32);
  for (std::size_t i = k + 1; i < limit; ++i) {
    const Token& tk = t[i];
    if (tk.kind == Tok::Ident || tk.kind == Tok::Number) continue;
    if (tk.kind != Tok::Punct) return kNone;
    if (tk.text == "<") {
      ++depth;
    } else if (tk.text == ">") {
      if (--depth == 0)
        return (i + 1 < n && is_punct(t[i + 1], "(")) ? i + 1 : kNone;
    } else if (tk.text == ">>") {
      depth -= 2;
      if (depth == 0)
        return (i + 1 < n && is_punct(t[i + 1], "(")) ? i + 1 : kNone;
      if (depth < 0) return kNone;
    } else if (tk.text != "::" && tk.text != "," && tk.text != "*" &&
               tk.text != "&") {
      return kNone;
    }
  }
  return kNone;
}

bool member_access_before(const Tokens& t, std::size_t k) {
  return k > 0 && t[k - 1].kind == Tok::Punct &&
         (t[k - 1].text == "." || t[k - 1].text == "->");
}

bool is_guard_name(const std::string& s) {
  return s == "lock_guard" || s == "unique_lock" || s == "scoped_lock" ||
         s == "shared_lock";
}

bool is_wait_name(const std::string& s) {
  return s == "wait" || s == "wait_for" || s == "wait_until";
}

bool is_send_name(const std::string& s) {
  return s == "send" || s == "send_vec";
}
// Blocking (untimed) receives; `pop` additionally requires arguments at
// the call site so container `.pop()` never matches.
bool is_recv_name(const std::string& s) {
  return s == "recv" || s == "recv_vec" || s == "pop";
}
bool is_timed_recv_name(const std::string& s) {
  return s == "recv_for" || s == "pop_for";
}
bool is_collective_name(const std::string& s) {
  return s == "barrier" || s == "barrier_wait" || s == "allreduce_sum" ||
         s == "broadcast";
}
bool is_comm_name(const std::string& s) {
  return is_send_name(s) || is_recv_name(s) || is_timed_recv_name(s) ||
         is_collective_name(s);
}

// Method names that alias std container / atomic / smart-pointer vocabulary
// program-wide.  The name-based call graph cannot tell `v_.load()` from
// `Autotuner::load()`, and one such mistaken edge fabricates a deadlock
// cycle, so these names never propagate lock or comm effects through a
// call edge (a function so named is still analyzed directly — only bare
// name-matched edges INTO it are dropped).  Documented limit, DESIGN.md §14.
bool is_ubiquitous_name(const std::string& s) {
  static const std::set<std::string> kNames = {
      "load",        "store",     "exchange",   "fetch_add",
      "fetch_sub",   "compare_exchange_weak",   "compare_exchange_strong",
      "reset",       "release",   "get",        "size",
      "empty",       "clear",     "count",      "begin",
      "end",         "cbegin",    "cend",       "rbegin",
      "rend",        "front",     "back",       "data",
      "find",        "at",        "insert",     "erase",
      "emplace",     "emplace_back", "emplace_front",
      "push",        "pop",       "push_back",  "push_front",
      "pop_back",    "pop_front", "reserve",    "resize",
      "swap",        "str",       "c_str",      "substr",
      "append",      "length",    "value",      "has_value",
      "test_and_set"};
  return kNames.count(s) != 0;
}

std::string join_chain(const std::vector<std::string>& chain) {
  std::string out;
  for (const std::string& c : chain) {
    if (!out.empty()) out += " -> ";
    out += c;
  }
  return out;
}

std::string join_held(const std::vector<std::string>& held) {
  std::set<std::string> uniq(held.begin(), held.end());
  std::string out;
  for (const std::string& h : uniq) {
    if (!out.empty()) out += ", ";
    out += h;
  }
  return "{" + out + "}";
}

// ---------------------------------------------------------------------------
// Shared call graph (callees ∪ ctor_callees; caller edges for roots).
// ---------------------------------------------------------------------------

struct Node {
  const Source* src = nullptr;
  const FunctionInfo* fn = nullptr;
  bool has_caller = false;
};

struct CallGraph {
  std::vector<Node> nodes;
  std::map<std::string, std::vector<std::size_t>> by_name;

  void for_each_callee(std::size_t v,
                       const std::function<void(std::size_t)>& f) const {
    const auto visit = [&](const std::set<std::string>& names) {
      for (const std::string& c : names) {
        if (is_ubiquitous_name(c)) continue;
        auto it = by_name.find(c);
        if (it == by_name.end()) continue;
        for (std::size_t j : it->second)
          if (j != v) f(j);
      }
    };
    visit(nodes[v].fn->callees);
    visit(nodes[v].fn->ctor_callees);
  }
};

CallGraph build_graph(const Program& prog) {
  CallGraph g;
  for (const Source& s : prog.sources)
    for (const FunctionInfo& fn : s.functions) {
      g.by_name[fn.name].push_back(g.nodes.size());
      g.nodes.push_back({&s, &fn, false});
    }
  for (std::size_t i = 0; i < g.nodes.size(); ++i)
    g.for_each_callee(i, [&](std::size_t j) { g.nodes[j].has_caller = true; });
  return g;
}

std::string display(const Node& n) {
  return n.fn->class_name.empty() ? n.fn->name
                                  : n.fn->class_name + "::" + n.fn->name;
}

// ---------------------------------------------------------------------------
// Mutex identity: members are qualified by their owning class (every class
// in this tree names its mutex mu_, so the bare name would alias them all);
// function-local mutexes by the declaring function; anything unresolvable
// keeps its bare name.
// ---------------------------------------------------------------------------

struct MutexTable {
  std::map<std::string, std::set<std::string>> owners;  // member -> classes
};

MutexTable build_mutex_table(const Program& prog) {
  MutexTable mt;
  for (const Source& s : prog.sources)
    for (const ClassInfo& c : s.classes)
      for (const std::string& m : c.mutexes)
        if (!c.name.empty()) mt.owners[m].insert(c.name);
  return mt;
}

// ---------------------------------------------------------------------------
// Per-function lockset walk.
// ---------------------------------------------------------------------------

struct LockUse {
  std::string mu;
  int line = 0;
};

struct CallEvent {
  std::string name;  // callee (or constructed type, for make_unique<T>)
  int line = 0;
  std::vector<std::string> held;  // lockset at the call (non-empty)
};

struct BlockEvent {
  std::string what;
  int line = 0;
  std::vector<std::string> held;  // effective lockset (non-empty)
};

struct LockEdgeUse {
  std::string from, to;
  int line = 0;
};

struct FnLockInfo {
  std::vector<LockUse> acquires;       // every acquisition, any lockset
  std::vector<LockUse> blocking;       // every blocking primitive
  std::vector<CallEvent> calls;        // call sites under a held lock
  std::vector<BlockEvent> block_under; // blocking under a held lock
  std::vector<LockEdgeUse> intra_edges;
};

class LockWalker {
 public:
  LockWalker(const Source& s, const FunctionInfo& fn, const MutexTable& mt,
             const std::set<std::string>& future_names)
      : s_(s), t_(s.lx.tokens), fn_(fn), mt_(mt), futures_(future_names) {}

  FnLockInfo run() {
    find_local_mutexes();
    walk();
    return std::move(info_);
  }

 private:
  const Source& s_;
  const Tokens& t_;
  const FunctionInfo& fn_;
  const MutexTable& mt_;
  const std::set<std::string>& futures_;
  FnLockInfo info_;

  struct Guard {
    std::vector<std::string> mus;
    bool active = false;
  };
  std::map<std::string, Guard> guards_;
  std::vector<std::vector<std::string>> scopes_;  // guard vars per scope
  std::vector<std::string> lockset_;
  std::set<std::string> locals_;  // function-local mutex names
  int synth_ = 0;                 // synthetic guard counter for .lock()

  std::string fn_display() const {
    return fn_.class_name.empty() ? fn_.name
                                  : fn_.class_name + "::" + fn_.name;
  }

  std::string resolve(const std::string& name) const {
    if (locals_.count(name) != 0) return fn_display() + "." + name;
    auto it = mt_.owners.find(name);
    if (it != mt_.owners.end()) {
      if (!fn_.class_name.empty() && it->second.count(fn_.class_name) != 0)
        return fn_.class_name + "::" + name;
      if (it->second.size() == 1) return *it->second.begin() + "::" + name;
    }
    return name;
  }

  void find_local_mutexes() {
    // `std::mutex NAME ;` (or `... mutex NAME ;`) inside the body.
    for (std::size_t k = fn_.body_begin;
         k + 2 <= fn_.body_end && k + 2 < t_.size(); ++k) {
      if (!is_ident(t_[k], "mutex")) continue;
      if (t_[k + 1].kind != Tok::Ident) continue;
      if (!is_punct(t_[k + 2], ";") && !is_punct(t_[k + 2], "{")) continue;
      locals_.insert(t_[k + 1].text);
    }
  }

  void acquire(const std::string& mu, int line) {
    for (const std::string& held : std::set<std::string>(lockset_.begin(),
                                                         lockset_.end()))
      info_.intra_edges.push_back({held, mu, line});
    info_.acquires.push_back({mu, line});
    lockset_.push_back(mu);
  }

  void release(const std::string& mu) {
    auto it = std::find(lockset_.begin(), lockset_.end(), mu);
    if (it != lockset_.end()) lockset_.erase(it);
  }

  void release_guard(const std::string& var) {
    auto it = guards_.find(var);
    if (it == guards_.end() || !it->second.active) return;
    it->second.active = false;
    for (const std::string& mu : it->second.mus) release(mu);
  }

  void block(const std::string& what, int line,
             const std::string& released_mu = "") {
    info_.blocking.push_back({what, line});
    std::vector<std::string> eff = lockset_;
    if (!released_mu.empty()) {
      auto it = std::find(eff.begin(), eff.end(), released_mu);
      if (it != eff.end()) eff.erase(it);
    }
    if (!eff.empty()) info_.block_under.push_back({what, line, eff});
  }

  // Last identifier of each top-level comma-separated argument in
  // (open, close): the mutex operands of a guard constructor (`mu_`,
  // `other.mu_`, `stderr_mutex()` all resolve to their final name).
  std::vector<std::string> guard_args(std::size_t open, std::size_t close,
                                      bool& defer) const {
    std::vector<std::string> out;
    std::string last;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const Token& tk = t_[i];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
        if (tk.text == ")" || tk.text == "]" || tk.text == "}") --depth;
        if (tk.text == "," && depth == 0) {
          if (!last.empty()) out.push_back(last);
          last.clear();
        }
        continue;
      }
      if (tk.kind != Tok::Ident) continue;
      if (tk.text == "std") continue;
      if (tk.text == "defer_lock" || tk.text == "defer_lock_t") {
        defer = true;
        last.clear();
        continue;
      }
      if (tk.text == "adopt_lock" || tk.text == "try_to_lock") {
        last.clear();
        continue;
      }
      last = tk.text;
    }
    if (!last.empty()) out.push_back(last);
    return out;
  }

  void walk() {
    scopes_.push_back({});
    for (std::size_t k = fn_.body_begin + 1;
         k < fn_.body_end && k < t_.size(); ++k) {
      const Token& tk = t_[k];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "{") {
          scopes_.push_back({});
        } else if (tk.text == "}") {
          if (scopes_.size() > 1) {
            for (const std::string& var : scopes_.back())
              release_guard(var);
            scopes_.pop_back();
          }
        }
        continue;
      }
      if (tk.kind != Tok::Ident) continue;
      const std::string& w = tk.text;

      // Fast path: with no lock held, only the small vocabulary below can
      // change walker state, and one hash probe beats the compare cascade
      // (the walk visits every token of every body in the tree).
      static const std::unordered_set<std::string> kInteresting = {
          "lock_guard",    "unique_lock", "scoped_lock",
          "shared_lock",   "lock",        "unlock",
          "wait",          "wait_for",    "wait_until",
          "join",          "sleep_for",   "sleep_until",
          "get",           "parallel_for",
          "parallel_for_chunked",         "parallel_reduce",
          "parallel_reduce2",             "parallel_reduce_n",
          "send",          "send_vec",    "recv",
          "recv_vec",      "recv_for",    "pop",
          "pop_for",       "barrier",     "barrier_wait",
          "allreduce_sum", "broadcast",   "make_unique",
          "make_shared"};
      if (lockset_.empty() && kInteresting.count(w) == 0) continue;

      // RAII guard declaration: `lock_guard<std::mutex> VAR(args);` (also
      // CTAD `std::scoped_lock VAR(a_, b_);`).
      if (is_guard_name(w)) {
        std::size_t j = k + 1;
        if (j < t_.size() && is_punct(t_[j], "<")) j = skip_angles(t_, j);
        if (j + 1 < t_.size() && t_[j].kind == Tok::Ident &&
            is_punct(t_[j + 1], "(")) {
          const std::string var = t_[j].text;
          const std::size_t close = match_fwd(t_, j + 1);
          if (close < t_.size()) {
            bool defer = false;
            std::vector<std::string> mus;
            for (const std::string& a : guard_args(j + 1, close, defer))
              mus.push_back(resolve(a));
            Guard g{mus, false};
            if (!defer) {
              g.active = true;
              for (const std::string& mu : mus) acquire(mu, tk.line);
            }
            guards_[var] = std::move(g);
            scopes_.back().push_back(var);
            k = close;
            continue;
          }
        }
      }

      // Explicit lock()/unlock() on a guard variable or a known mutex.
      if ((w == "lock" || w == "unlock") && member_access_before(t_, k) &&
          k + 1 < t_.size() && is_punct(t_[k + 1], "(") && k >= 2 &&
          t_[k - 2].kind == Tok::Ident) {
        const std::string& recv = t_[k - 2].text;
        auto git = guards_.find(recv);
        if (git != guards_.end()) {
          if (w == "lock" && !git->second.active) {
            git->second.active = true;
            for (const std::string& mu : git->second.mus)
              acquire(mu, tk.line);
          } else if (w == "unlock") {
            release_guard(recv);
          }
          continue;
        }
        if (locals_.count(recv) != 0 ||
            (mt_.owners.count(recv) != 0 && !fn_.class_name.empty() &&
             mt_.owners.at(recv).count(fn_.class_name) != 0)) {
          const std::string mu = resolve(recv);
          if (w == "lock") {
            // Bare .lock(): held until .unlock() or end of function.
            const std::string var = "#raw" + std::to_string(synth_++);
            guards_[var] = Guard{{mu}, true};
            scopes_.front().push_back(var);
            acquire(mu, tk.line);
          } else {
            release(mu);
          }
          continue;
        }
        continue;
      }

      // Condition-variable waits release their guard's mutex for the
      // duration; the blocking check sees the lockset minus that mutex.
      if (is_wait_name(w) && member_access_before(t_, k) &&
          k + 1 < t_.size() && is_punct(t_[k + 1], "(")) {
        std::string released;
        for (std::size_t i = k + 2; i < t_.size(); ++i) {
          if (t_[i].kind == Tok::Ident) {
            auto git = guards_.find(t_[i].text);
            if (git != guards_.end() && git->second.active &&
                !git->second.mus.empty())
              released = git->second.mus.front();
            break;
          }
          if (t_[i].kind == Tok::Punct && t_[i].text != "(") break;
        }
        block("waits on a condition variable", tk.line, released);
        continue;
      }

      if (w == "join" && member_access_before(t_, k) && k + 1 < t_.size() &&
          is_punct(t_[k + 1], "(")) {
        block("joins a thread", tk.line);
        continue;
      }

      if ((w == "sleep_for" || w == "sleep_until") && k + 1 < t_.size() &&
          is_punct(t_[k + 1], "(")) {
        block("sleeps (" + w + ")", tk.line);
        continue;
      }

      if (w == "get" && member_access_before(t_, k) && k + 1 < t_.size() &&
          is_punct(t_[k + 1], "(") && k >= 2 && t_[k - 2].kind == Tok::Ident &&
          futures_.count(t_[k - 2].text) != 0) {
        block("waits on future '" + t_[k - 2].text + "'", tk.line);
        continue;
      }

      if (is_launch_name(w) && k + 1 < t_.size() && is_punct(t_[k + 1], "(")) {
        block("launches parallel work (" + w + ")", tk.line);
        continue;
      }

      if (is_comm_name(w) && member_access_before(t_, k)) {
        const std::size_t open = open_paren_after(t_, k);
        if (open != kNone && open <= fn_.body_end) {
          // Container `.pop()` takes no arguments; comm pop(src, tag) does.
          if (w != "pop" || !is_punct(t_[open + 1], ")")) {
            block("performs femtocomm '" + w + "'", tk.line);
            continue;
          }
        }
      }

      // make_unique<T>( / make_shared<T>( — the hidden ctor call.
      if ((w == "make_unique" || w == "make_shared") && k + 2 < t_.size() &&
          is_punct(t_[k + 1], "<") && t_[k + 2].kind == Tok::Ident) {
        if (!lockset_.empty())
          info_.calls.push_back({t_[k + 2].text, tk.line, lockset_});
        continue;
      }

      // Plain call site under a held lock (ubiquitous std vocabulary never
      // propagates — see is_ubiquitous_name).
      if (!lockset_.empty() && !is_ubiquitous_name(w)) {
        const std::size_t open = open_paren_after(t_, k);
        if (open != kNone && open <= fn_.body_end && !is_guard_name(w) &&
            w != "if" && w != "for" && w != "while" && w != "switch" &&
            w != "return" && w != "sizeof" && w != "catch")
          info_.calls.push_back({w, tk.line, lockset_});
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Whole-program lock analysis: transitive closures + the lock-order graph.
// ---------------------------------------------------------------------------

struct AcqWitness {
  std::vector<std::string> chain;  // caller ... -> acquiring function
  int line = 0;
  const Source* src = nullptr;
};

struct BlockWitness {
  std::string what;
  std::vector<std::string> chain;
};

struct EdgeWitness {
  const Source* src = nullptr;
  int line = 0;
  std::string via;
};

struct LockAnalysis {
  CallGraph g;
  std::vector<FnLockInfo> info;
  std::vector<std::map<std::string, AcqWitness>> tacq;
  std::vector<std::optional<BlockWitness>> tblock;
  // Directed lock-order graph with one representative witness per edge.
  std::map<std::pair<std::string, std::string>, EdgeWitness> edges;
};

LockAnalysis analyze_locks(const Program& prog) {
  LockAnalysis la;
  la.g = build_graph(prog);
  const MutexTable mt = build_mutex_table(prog);
  std::set<std::string> futures;
  for (const Source& s : prog.sources)
    futures.insert(s.future_names.begin(), s.future_names.end());

  const std::size_t n = la.g.nodes.size();
  la.info.resize(n);
  for (std::size_t v = 0; v < n; ++v)
    la.info[v] =
        LockWalker(*la.g.nodes[v].src, *la.g.nodes[v].fn, mt, futures).run();

  // Transitive acquires, with one witness chain per (function, mutex).
  la.tacq.resize(n);
  std::vector<char> astate(n, 0);
  std::function<void(std::size_t)> close_acq = [&](std::size_t v) {
    if (astate[v] != 0) return;  // done, or cycle truncation mid-compute
    astate[v] = 1;
    for (const LockUse& a : la.info[v].acquires)
      if (la.tacq[v].count(a.mu) == 0)
        la.tacq[v][a.mu] = {{display(la.g.nodes[v])}, a.line,
                            la.g.nodes[v].src};
    la.g.for_each_callee(v, [&](std::size_t j) {
      close_acq(j);
      for (const auto& [mu, w] : la.tacq[j])
        if (la.tacq[v].count(mu) == 0) {
          AcqWitness nw = w;
          nw.chain.insert(nw.chain.begin(), display(la.g.nodes[v]));
          la.tacq[v][mu] = std::move(nw);
        }
    });
    astate[v] = 2;
  };
  for (std::size_t v = 0; v < n; ++v) close_acq(v);

  // Transitive blocking witness.
  la.tblock.resize(n);
  std::vector<char> bstate(n, 0);
  std::function<void(std::size_t)> close_blk = [&](std::size_t v) {
    if (bstate[v] != 0) return;
    bstate[v] = 1;
    if (!la.info[v].blocking.empty()) {
      la.tblock[v] = BlockWitness{la.info[v].blocking.front().mu,
                                  {display(la.g.nodes[v])}};
    } else {
      la.g.for_each_callee(v, [&](std::size_t j) {
        if (la.tblock[v]) return;
        close_blk(j);
        if (la.tblock[j]) {
          BlockWitness w = *la.tblock[j];
          w.chain.insert(w.chain.begin(), display(la.g.nodes[v]));
          la.tblock[v] = std::move(w);
        }
      });
    }
    bstate[v] = 2;
  };
  for (std::size_t v = 0; v < n; ++v) close_blk(v);

  // Lock-order edges: intra-body nesting plus call-propagated acquires.
  const auto add_edge = [&](const std::string& from, const std::string& to,
                            const Source* src, int line,
                            const std::string& via) {
    la.edges.emplace(std::make_pair(from, to), EdgeWitness{src, line, via});
  };
  for (std::size_t v = 0; v < n; ++v) {
    const Node& nd = la.g.nodes[v];
    for (const LockEdgeUse& e : la.info[v].intra_edges)
      add_edge(e.from, e.to, nd.src, e.line, display(nd));
    for (const CallEvent& ce : la.info[v].calls) {
      auto it = la.g.by_name.find(ce.name);
      if (it == la.g.by_name.end()) continue;
      for (std::size_t j : it->second) {
        if (j == v) continue;
        for (const auto& [mu, w] : la.tacq[j]) {
          std::vector<std::string> chain = w.chain;
          chain.insert(chain.begin(), display(nd));
          for (const std::string& held :
               std::set<std::string>(ce.held.begin(), ce.held.end()))
            add_edge(held, mu, nd.src, ce.line, join_chain(chain));
        }
      }
    }
  }
  return la;
}

// Cycles in the lock-order graph, deduplicated by canonical rotation.
std::vector<std::vector<std::string>> find_cycles(
    const std::map<std::pair<std::string, std::string>, EdgeWitness>& edges) {
  std::map<std::string, std::vector<std::string>> adj;
  for (const auto& [e, w] : edges) adj[e.first].push_back(e.second);

  std::vector<std::vector<std::string>> cycles;
  std::set<std::string> seen_sig;
  std::vector<std::string> path;
  std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black

  const std::function<void(const std::string&)> dfs =
      [&](const std::string& m) {
        colour[m] = 1;
        path.push_back(m);
        auto it = adj.find(m);
        if (it != adj.end())
          for (const std::string& d : it->second) {
            if (colour[d] == 1) {
              // Cycle: path segment from d to m, closed.
              std::vector<std::string> cyc;
              bool in = false;
              for (const std::string& p : path) {
                if (p == d) in = true;
                if (in) cyc.push_back(p);
              }
              if (cyc.empty()) cyc.push_back(d);  // self edge
              // Canonical rotation: smallest element first.
              const auto mn =
                  std::min_element(cyc.begin(), cyc.end());
              std::rotate(cyc.begin(), mn, cyc.end());
              std::string sig;
              for (const std::string& c : cyc) sig += c + "|";
              if (seen_sig.insert(sig).second) cycles.push_back(cyc);
              continue;
            }
            if (colour[d] == 0) dfs(d);
          }
        colour[m] = 2;
        path.pop_back();
      };
  for (const auto& [m, _] : adj)
    if (colour[m] == 0) dfs(m);
  return cycles;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

void run_lockset_pass(const Program& prog, std::vector<Finding>& out,
                      ConcurrencyStats* stats) {
  const LockAnalysis la = analyze_locks(prog);
  const std::size_t n = la.g.nodes.size();

  // lock-order-cycle: every distinct cycle in the global graph, reported
  // once with the full witness of each edge.
  for (const std::vector<std::string>& cyc : find_cycles(la.edges)) {
    std::string ring;
    std::string detail;
    const EdgeWitness* first = nullptr;
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      const std::string& from = cyc[i];
      const std::string& to = cyc[(i + 1) % cyc.size()];
      ring += from + " -> ";
      auto it = la.edges.find({from, to});
      if (it == la.edges.end()) continue;
      if (first == nullptr) first = &it->second;
      detail += "; " + from + " -> " + to + " via " + it->second.via + " (" +
                it->second.src->path + ":" + std::to_string(it->second.line) +
                ")";
    }
    ring += cyc.front();
    if (first == nullptr) continue;
    if (first->src->suppressed("lock-order-cycle", first->line)) continue;
    out.push_back(
        {first->src->path, first->line, "lock-order-cycle",
         "mutex acquisition cycle " + ring + detail +
             "; two threads interleaving these chains deadlock — impose "
             "one canonical order (DESIGN.md §14) or collapse the locks"});
  }

  // blocking-call-under-lock: direct blocking primitives and transitively
  // blocking callees reached while the lockset is non-empty.
  for (std::size_t v = 0; v < n; ++v) {
    const Node& nd = la.g.nodes[v];
    if (nd.src->in_parallel_engine()) continue;  // the blocking machinery
    if (nd.fn->blocking_ok) continue;
    std::set<int> reported;
    for (const BlockEvent& be : la.info[v].block_under) {
      if (!reported.insert(be.line).second) continue;
      if (nd.src->suppressed("blocking-call-under-lock", be.line)) continue;
      out.push_back(
          {nd.src->path, be.line, "blocking-call-under-lock",
           "'" + display(nd) + "' " + be.what + " while holding " +
               join_held(be.held) +
               "; once femtocomm transports block for real this is a hang "
               "waiting for its schedule — release the lock first, or "
               "bless the function with FEMTO_BLOCKING_OK(reason)"});
    }
    for (const CallEvent& ce : la.info[v].calls) {
      auto it = la.g.by_name.find(ce.name);
      if (it == la.g.by_name.end()) continue;
      for (std::size_t j : it->second) {
        if (j == v || !la.tblock[j]) continue;
        if (!reported.insert(ce.line).second) break;
        if (nd.src->suppressed("blocking-call-under-lock", ce.line)) break;
        out.push_back(
            {nd.src->path, ce.line, "blocking-call-under-lock",
             "'" + display(nd) + "' calls '" + ce.name + "' while holding " +
                 join_held(ce.held) + ", and that call " +
                 la.tblock[j]->what + " (chain: " + display(nd) + " -> " +
                 join_chain(la.tblock[j]->chain) +
                 "); release the lock before the call, or bless with "
                 "FEMTO_BLOCKING_OK(reason)"});
        break;
      }
    }
  }

  if (stats != nullptr) {
    std::set<std::string> mus;
    for (std::size_t v = 0; v < n; ++v) {
      for (const LockUse& a : la.info[v].acquires) mus.insert(a.mu);
      if (la.tblock[v]) ++stats->blocking_fns;
    }
    stats->mutexes = mus.size();
    stats->lock_edges = la.edges.size();
  }
}

std::string lock_graph_dot(const Program& prog) {
  const LockAnalysis la = analyze_locks(prog);
  std::ostringstream os;
  os << "digraph lock_order {\n";
  os << "  // femtolint --lock-graph: mutex acquisition order. An edge\n";
  os << "  // A -> B means some call chain acquires B while holding A.\n";
  os << "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  std::set<std::string> nodes;
  for (const auto& [e, w] : la.edges) {
    nodes.insert(e.first);
    nodes.insert(e.second);
  }
  for (const std::string& m : nodes) os << "  \"" << m << "\";\n";
  for (const auto& [e, w] : la.edges)
    os << "  \"" << e.first << "\" -> \"" << e.second << "\" [label=\""
       << w.via << "\\n" << w.src->path << ":" << w.line << "\"];\n";
  os << "}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Comm-protocol pass.
// ---------------------------------------------------------------------------

namespace {

struct Eff {
  std::string name;
  int line = 0;
  std::string tag;  // first identifier of the 2nd argument ("" if none)
  bool timed = false;
};

struct FnEffects {
  std::vector<Eff> sends, recvs, colls;  // lexical order
};

// Extract the direct comm effects of one function: method calls on the
// Communicator/HaloExchanger families, with the tag identifier of
// point-to-point operations for the ordering rule.
FnEffects direct_effects(const Source& s, const FunctionInfo& fn) {
  FnEffects fx;
  const Tokens& t = s.lx.tokens;
  for (const CallSite& cs : fn.call_sites) {
    if (!is_comm_name(cs.name)) continue;
    // `pop` / `pop_for` collide with std containers: they only count as
    // comm effects as member calls with arguments.  Every other primitive
    // name is comm-specific, so plain sibling calls (`send_vec(...)` inside
    // a Communicator method) count too.
    const bool member = member_access_before(t, cs.tok);
    if ((cs.name == "pop" || cs.name == "pop_for") && !member) continue;
    const std::size_t open = open_paren_after(t, cs.tok);
    if (open == kNone || open > fn.body_end) continue;
    const std::size_t close = match_fwd(t, open);
    if (cs.name == "pop" && open + 1 == close) continue;
    // Tag = first identifier of the second top-level argument.
    std::string tag;
    int depth = 0, arg = 0;
    for (std::size_t i = open + 1; i < close && i < t.size(); ++i) {
      const Token& tk = t[i];
      if (tk.kind == Tok::Punct) {
        if (tk.text == "(" || tk.text == "[" || tk.text == "{") ++depth;
        if (tk.text == ")" || tk.text == "]" || tk.text == "}") --depth;
        if (tk.text == "," && depth == 0) ++arg;
        continue;
      }
      if (arg == 1 && tk.kind == Tok::Ident) {
        tag = tk.text;
        break;
      }
    }
    if (is_send_name(cs.name)) {
      fx.sends.push_back({cs.name, cs.line, tag, false});
    } else if (is_recv_name(cs.name)) {
      fx.recvs.push_back({cs.name, cs.line, tag, false});
    } else if (is_timed_recv_name(cs.name)) {
      fx.recvs.push_back({cs.name, cs.line, tag, true});
    } else if (is_collective_name(cs.name)) {
      fx.colls.push_back({cs.name, cs.line, tag, false});
    }
  }
  return fx;
}

}  // namespace

void run_protocol_pass(const Program& prog, std::vector<Finding>& out,
                       ConcurrencyStats* stats) {
  const CallGraph g = build_graph(prog);
  const std::size_t n = g.nodes.size();
  std::vector<FnEffects> fx(n);
  for (std::size_t v = 0; v < n; ++v)
    fx[v] = direct_effects(*g.nodes[v].src, *g.nodes[v].fn);

  // Transitive send/recv/collective witnesses over the callee graph.
  struct Wit {
    std::string what;
    std::vector<std::string> chain;
  };
  std::vector<std::optional<Wit>> tsend(n), trecv(n), tcoll(n);
  std::vector<char> state(n, 0);
  const std::function<void(std::size_t)> close = [&](std::size_t v) {
    if (state[v] != 0) return;
    state[v] = 1;
    // A function NAMED like a primitive IS that primitive (its body bottoms
    // out in mailbox pushes the effect grammar does not see).
    const std::string& own = g.nodes[v].fn->name;
    if (!fx[v].sends.empty() || is_send_name(own))
      tsend[v] = Wit{fx[v].sends.empty() ? own : fx[v].sends.front().name,
                     {display(g.nodes[v])}};
    if (!fx[v].recvs.empty() || is_recv_name(own) || is_timed_recv_name(own))
      trecv[v] = Wit{fx[v].recvs.empty() ? own : fx[v].recvs.front().name,
                     {display(g.nodes[v])}};
    if (!fx[v].colls.empty() || is_collective_name(own))
      tcoll[v] = Wit{fx[v].colls.empty() ? own : fx[v].colls.front().name,
                     {display(g.nodes[v])}};
    g.for_each_callee(v, [&](std::size_t j) {
      if (tsend[v] && trecv[v] && tcoll[v]) return;
      close(j);
      const auto lift = [&](std::vector<std::optional<Wit>>& tw) {
        if (!tw[v] && tw[j]) {
          Wit w = *tw[j];
          w.chain.insert(w.chain.begin(), display(g.nodes[v]));
          tw[v] = std::move(w);
        }
      };
      lift(tsend);
      lift(trecv);
      lift(tcoll);
    });
    state[v] = 2;
  };
  for (std::size_t v = 0; v < n; ++v) close(v);

  for (std::size_t v = 0; v < n; ++v) {
    const Node& nd = g.nodes[v];
    const FunctionInfo& fn = *nd.fn;
    if (fn.protocol_ok) continue;

    // unpaired-send: a call-graph root whose transitive extent sends but
    // never receives (or vice versa) relies on a partner OUTSIDE the
    // scanned program — with blocking transports that is a hang, not a
    // protocol.
    if (!nd.has_caller && !is_comm_name(fn.name)) {
      const bool s = tsend[v].has_value(), r = trecv[v].has_value();
      if (s != r && !nd.src->suppressed("unpaired-send", fn.line)) {
        const Wit& w = s ? *tsend[v] : *trecv[v];
        out.push_back(
            {nd.src->path, fn.line, "unpaired-send",
             "'" + display(nd) + "' (a call-graph root) " +
                 (s ? "sends" : "receives") + " via " + join_chain(w.chain) +
                 " ('" + w.what + "') but its extent never " +
                 (s ? "receives" : "sends") +
                 "; every root protocol must pair its point-to-point "
                 "traffic or bless the asymmetry with "
                 "FEMTO_PROTOCOL_OK(reason)"});
      }
    }

    // recv-before-send: a blocking receive lexically before the matching
    // same-tag send in the same body deadlocks two symmetric ranks the
    // moment sends block (rendezvous transports).
    for (std::size_t i = 0; i < fx[v].recvs.size(); ++i) {
      const Eff& r = fx[v].recvs[i];
      if (r.timed || r.tag.empty()) continue;
      bool sent_before = false, sent_after = false;
      for (const Eff& s : fx[v].sends) {
        if (s.tag != r.tag) continue;
        (s.line <= r.line ? sent_before : sent_after) = true;
      }
      if (sent_before || !sent_after) continue;
      if (nd.src->suppressed("recv-before-send", r.line)) continue;
      out.push_back(
          {nd.src->path, r.line, "recv-before-send",
           "'" + display(nd) + "' blocks in '" + r.name + "' (tag " + r.tag +
               ") before its matching send of the same tag; two ranks "
               "running this symmetrically deadlock once sends block — "
               "send first, or bless a deliberately asymmetric step with "
               "FEMTO_PROTOCOL_OK(reason)"});
    }

    // collective-divergence: a collective reachable only inside a
    // rank-dependent branch is reached by a subset of ranks; everyone
    // else waits forever.
    const Tokens& t = nd.src->lx.tokens;
    std::set<std::string> tainted = {"rank_"};
    const auto is_rank_read = [&](std::size_t k) {
      if (t[k].kind != Tok::Ident) return false;
      if (tainted.count(t[k].text) != 0) return true;
      return t[k].text == "rank" && member_access_before(t, k) &&
             k + 1 < t.size() && is_punct(t[k + 1], "(");
    };
    // One taint hop: `X = ... .rank() ...` marks X.
    for (std::size_t k = fn.body_begin; k < fn.body_end && k < t.size();
         ++k) {
      if (t[k].kind != Tok::Ident || t[k].text != "rank") continue;
      if (!member_access_before(t, k) || k + 1 >= t.size() ||
          !is_punct(t[k + 1], "("))
        continue;
      for (std::size_t b = k; b > fn.body_begin; --b) {
        if (t[b].kind == Tok::Punct &&
            (t[b].text == ";" || t[b].text == "{" || t[b].text == "}"))
          break;
        if (is_punct(t[b], "=") && b > 0 && t[b - 1].kind == Tok::Ident) {
          tainted.insert(t[b - 1].text);
          break;
        }
      }
    }
    for (std::size_t k = fn.body_begin; k < fn.body_end && k < t.size();
         ++k) {
      if (!is_ident(t[k], "if") || k + 1 >= t.size() ||
          !is_punct(t[k + 1], "("))
        continue;
      const std::size_t cond_close = match_fwd(t, k + 1);
      if (cond_close >= t.size() || cond_close > fn.body_end) continue;
      bool rank_dep = false;
      for (std::size_t i = k + 2; i < cond_close && !rank_dep; ++i)
        rank_dep = is_rank_read(i);
      if (!rank_dep) continue;

      // Branch ranges: the then block/statement, plus the else block.
      std::vector<std::pair<std::size_t, std::size_t>> branches;
      std::size_t b = cond_close + 1;
      const auto push_branch = [&](std::size_t from) -> std::size_t {
        if (from >= t.size()) return from;
        if (is_punct(t[from], "{")) {
          const std::size_t e = match_fwd(t, from);
          branches.push_back({from + 1, e});
          return e + 1;
        }
        std::size_t e = from;
        while (e < t.size() && e <= fn.body_end && !is_punct(t[e], ";")) {
          if (is_punct(t[e], "(") || is_punct(t[e], "[") ||
              is_punct(t[e], "{")) {
            e = match_fwd(t, e);
            if (e >= t.size()) break;
          }
          ++e;
        }
        branches.push_back({from, e});
        return e + 1;
      };
      b = push_branch(b);
      if (b < t.size() && is_ident(t[b], "else")) push_branch(b + 1);

      std::string hit;
      int hit_line = t[k].line;
      for (const auto& [bb, be] : branches) {
        for (std::size_t i = bb; i < be && i < t.size() && hit.empty();
             ++i) {
          if (t[i].kind != Tok::Ident) continue;
          const std::size_t open = open_paren_after(t, i);
          if (open == kNone || open > be) continue;
          if (is_collective_name(t[i].text) && member_access_before(t, i)) {
            hit = "'" + t[i].text + "' directly";
            hit_line = t[i].line;
            break;
          }
          auto bit = g.by_name.find(t[i].text);
          if (bit == g.by_name.end()) continue;
          for (std::size_t j : bit->second)
            if (j != v && tcoll[j]) {
              hit = "'" + tcoll[j]->what + "' via " + t[i].text + " (chain: " +
                    join_chain(tcoll[j]->chain) + ")";
              hit_line = t[i].line;
              break;
            }
        }
        if (!hit.empty()) break;
      }
      if (hit.empty()) continue;
      if (nd.src->suppressed("collective-divergence", hit_line)) continue;
      out.push_back(
          {nd.src->path, hit_line, "collective-divergence",
           "'" + display(nd) + "' reaches collective " + hit +
               " under a rank-dependent branch (if at line " +
               std::to_string(t[k].line) +
               "); ranks that take the other path never enter the "
               "collective and everyone else hangs in it — hoist the "
               "collective out of the branch, or bless with "
               "FEMTO_PROTOCOL_OK(reason)"});
    }
  }

  if (stats != nullptr) {
    for (std::size_t v = 0; v < n; ++v) {
      if (tsend[v] || trecv[v] || tcoll[v]) {
        ++stats->comm_fns;
        if (!g.nodes[v].has_caller) ++stats->comm_roots;
      }
    }
  }
}

}  // namespace femtolint
