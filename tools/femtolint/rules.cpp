#include "rules.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <tuple>

namespace femtolint {

namespace {

using Tokens = std::vector<Token>;

bool is_member_access(const Tokens& t, std::size_t i) {
  // t[i] is an identifier; true when it is written as `x.id` / `p->id` /
  // `ns::id` (i.e. not a plain unqualified reference).  `this->id` still
  // counts as unqualified for the rules that care.
  if (i == 0) return false;
  const std::string& p = t[i - 1].text;
  return t[i - 1].kind == Tok::Punct &&
         (p == "." || p == "->" || p == "::");
}

bool is_this_access(const Tokens& t, std::size_t i) {
  return i >= 2 && t[i - 1].kind == Tok::Punct && t[i - 1].text == "->" &&
         is_ident(t[i - 2], "this");
}

// ---------------------------------------------------------------------------
// Per-file rules.
// ---------------------------------------------------------------------------

// True when the token before @p i can end a type (identifier other than a
// statement keyword, '&', '*', or a closing '>'), so t[i] is a declarator.
bool type_ish_before(const Tokens& t, std::size_t i) {
  if (i == 0) return false;
  const Token& p = t[i - 1];
  if (p.kind == Tok::Ident)
    return p.text != "return" && p.text != "else" && p.text != "case" &&
           p.text != "throw" && p.text != "delete";
  return p.text == "&" || p.text == "*" || p.text == ">" || p.text == ">>";
}

// A name looks *declared* within [b, e) when some occurrence is preceded by
// a type-ish token, or when it is a later declarator in a comma list whose
// statement head declares (`double sr = 0.0, si = 0.0;` and
// `Vec<double, W> racc, iacc;` declare si and iacc too).  A comma reached
// only by leaving a '(' or '[' is an argument separator, not a declarator
// list, and never counts.
bool declared_in(const Tokens& t, std::size_t b, std::size_t e,
                 const std::string& name) {
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Tok::Ident || t[i].text != name || i == 0) continue;
    if (type_ish_before(t, i)) return true;
    if (!is_punct(t[i - 1], ",")) continue;
    // Walk left to the statement start; bail if we exit a bracket first.
    std::size_t stmt_b = b;
    int depth = 0;
    bool in_args = false;
    for (std::size_t j = i - 1; j > b; --j) {
      const Token& tk = t[j - 1];
      if (tk.kind != Tok::Punct) continue;
      if (tk.text == ")" || tk.text == "]") {
        ++depth;
      } else if (tk.text == "(" || tk.text == "[") {
        if (depth == 0) {
          in_args = true;
          break;
        }
        --depth;
      } else if (depth == 0 &&
                 (tk.text == ";" || tk.text == "{" || tk.text == "}")) {
        stmt_b = j;
        break;
      }
    }
    if (in_args) continue;
    for (std::size_t m = stmt_b; m < i; ++m)
      if (t[m].kind == Tok::Ident && type_ish_before(t, m)) return true;
  }
  return false;
}

/// Token bounds of the body lambda handed to a parallel launch: its
/// parameter list [params_b, params_e) and its braces body_open..body_close.
struct LaunchBody {
  std::size_t params_b = 0, params_e = 0;
  std::size_t body_open = 0, body_close = 0;
};

/// The body lambda of the call whose callee identifier is t[k]: the first
/// lambda at argument depth in `name(...)`.  nullopt when t[k] is not
/// called or no lambda is passed.
std::optional<LaunchBody> launch_body(const Tokens& t, std::size_t k) {
  if (k + 1 >= t.size() || !is_punct(t[k + 1], "(")) return std::nullopt;
  const std::size_t call_open = k + 1;
  const std::size_t call_close = match_fwd(t, call_open);
  if (call_close >= t.size()) return std::nullopt;
  // First '[' at paren depth 1 opens the body lambda's capture list.
  std::size_t cap = t.size();
  int pd = 0;
  for (std::size_t i = call_open; i < call_close; ++i) {
    if (t[i].kind != Tok::Punct) continue;
    if (t[i].text == "(") ++pd;
    if (t[i].text == ")") --pd;
    if (t[i].text == "[" && pd == 1) {
      cap = i;
      break;
    }
  }
  if (cap >= t.size()) return std::nullopt;
  const std::size_t cap_end = match_fwd(t, cap);
  if (cap_end >= t.size()) return std::nullopt;
  LaunchBody lb;
  std::size_t i = cap_end + 1;
  lb.params_b = lb.params_e = i;
  if (i < t.size() && is_punct(t[i], "(")) {
    lb.params_b = i + 1;
    lb.params_e = match_fwd(t, i);
    if (lb.params_e >= t.size()) return std::nullopt;
    i = lb.params_e + 1;
  }
  while (i < t.size() && t[i].kind == Tok::Ident) ++i;  // mutable etc.
  if (i >= t.size() || !is_punct(t[i], "{")) return std::nullopt;
  lb.body_open = i;
  lb.body_close = match_fwd(t, i);
  if (lb.body_close >= t.size()) return std::nullopt;
  return lb;
}

/// Root identifier of the assignment target that ends just before token
/// @p p (`sum`, `corr[t]`, `out.data()[i]`, `s.re`), plus the token ranges
/// of its subscripts.  False when the target is no such chain (`*p`, `(a)`)
/// or starts before @p b.
bool target_root(const Tokens& t, std::size_t b, std::size_t p,
                 std::size_t& root,
                 std::vector<std::pair<std::size_t, std::size_t>>& subs) {
  std::size_t j = p;  // one past the token being looked at
  while (j > b) {
    const Token& tk = t[j - 1];
    if (is_punct(tk, "]") || is_punct(tk, ")")) {
      const std::string open = tk.text == "]" ? "[" : "(";
      int depth = 0;
      std::size_t i = j - 1;
      for (;; --i) {
        if (t[i].kind == Tok::Punct && t[i].text == tk.text) ++depth;
        if (t[i].kind == Tok::Punct && t[i].text == open && --depth == 0)
          break;
        if (i == b) return false;
      }
      if (tk.text == "]") subs.emplace_back(i + 1, j - 1);
      j = i;
      continue;
    }
    if (tk.kind != Tok::Ident) return false;
    if (j - 1 > b && is_member_access(t, j - 1)) {
      j -= 2;
      continue;
    }
    root = j - 1;
    return true;
  }
  return false;
}

/// The declarations in a launch body, by name in token order, each marked
/// with whether it declares a chunk index: the lambda's parameters (the
/// index, the chunk's [lo, hi) bounds, the per-chunk slot) do, and so does
/// every name the body declares as arithmetic on an index in force
/// (`for (std::size_t k = lo; ...)`, `const auto s = base + i;`).  A value
/// looked up through a call or a subscript (`geom.coord(site)[3]`) is
/// data, not an index: many chunks can map to the same one.
using Decls =
    std::map<std::string, std::vector<std::pair<std::size_t, bool>>>;

/// True when the declaration of t[i] in force at token i is a chunk index.
bool chunk_index_at(const Decls& d, const Tokens& t, std::size_t i) {
  const auto it = d.find(t[i].text);
  bool chunk = false;
  if (it != d.end())
    for (const auto& [at, is_chunk] : it->second)
      if (at < i) chunk = is_chunk;
  return chunk;
}

Decls chunk_decls(const Tokens& t, const LaunchBody& lb) {
  Decls d;
  for (std::size_t i = lb.params_b; i < lb.params_e; ++i)
    if (t[i].kind == Tok::Ident &&
        (i + 1 == lb.params_e || is_punct(t[i + 1], ",")))
      d[t[i].text].emplace_back(i, true);
  for (std::size_t i = lb.body_open + 1; i + 1 < lb.body_close; ++i) {
    if (t[i].kind != Tok::Ident || !type_ish_before(t, i) ||
        !is_punct(t[i + 1], "="))
      continue;
    // The initializer runs to the declarator's `,` / `;`, or to the
    // bracket that encloses it.
    bool chunk = false;
    std::vector<bool> open;  // per open bracket: a call or a subscript?
    int lookups = 0;
    for (std::size_t j = i + 2; j < lb.body_close && !chunk; ++j) {
      const Token& tk = t[j];
      if (tk.kind == Tok::Ident) {
        chunk = lookups == 0 && chunk_index_at(d, t, j);
        continue;
      }
      if (tk.kind != Tok::Punct) continue;
      if (tk.text == "(" || tk.text == "[" || tk.text == "{") {
        const bool lookup = tk.text == "[" ||
                            (tk.text == "(" && t[j - 1].kind == Tok::Ident);
        open.push_back(lookup);
        lookups += lookup ? 1 : 0;
      } else if (tk.text == ")" || tk.text == "]" || tk.text == "}") {
        if (open.empty()) break;
        lookups -= open.back() ? 1 : 0;
        open.pop_back();
      } else if (open.empty() && (tk.text == ";" || tk.text == ",")) {
        break;
      }
    }
    d[t[i].text].emplace_back(i, chunk);
  }
  return d;
}

void rule_race_shared_accum(const Source& s, std::vector<Finding>& out) {
  // Every launch body runs once per chunk, on whichever pool thread claims
  // it.  A compound assignment into state the body did not declare is
  // safe only when the body's own chunk loop indexes it, so that chunks
  // touch disjoint elements.  Anything else races; and under a lock it
  // still combines in lock-acquire order, so the sum's bits depend on
  // scheduling (the pre-fix contract() gave four C2 digests at 1, 2, 3
  // and 7 threads).  Partials must flow through parallel_reduce_n, which
  // combines chunks in a fixed order.
  if (s.in_parallel_engine()) return;
  const Tokens& t = s.lx.tokens;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::Ident || !is_launch_name(t[k].text)) continue;
    const std::optional<LaunchBody> lb = launch_body(t, k);
    if (!lb) continue;
    const Decls decls = chunk_decls(t, *lb);
    for (std::size_t p = lb->body_open + 1; p < lb->body_close; ++p) {
      if (t[p].kind != Tok::Punct) continue;
      const std::string& op = t[p].text;
      if (op != "+=" && op != "-=" && op != "*=" && op != "/=") continue;
      std::size_t root = 0;
      std::vector<std::pair<std::size_t, std::size_t>> subs;
      if (!target_root(t, lb->body_open + 1, p, root, subs)) continue;
      const std::string& var = t[root].text;
      if (declared_in(t, lb->params_b, lb->params_e, var)) continue;
      if (declared_in(t, lb->body_open + 1, root, var)) continue;
      bool indexed = false;
      for (const auto& [sb, se] : subs)
        for (std::size_t i = sb; i < se && !indexed; ++i)
          indexed = t[i].kind == Tok::Ident && chunk_index_at(decls, t, i);
      if (indexed) continue;
      const int line = t[p].line;
      if (s.suppressed("race-shared-accum", line)) continue;
      out.push_back(
          {s.path, line, "race-shared-accum",
           "'" + op + "' into captured '" + var + "' inside a " + t[k].text +
               " body, not indexed by the chunk's own loop: chunks race "
               "on it, and even under a lock they combine in arrival "
               "order, so the bits depend on scheduling; return per-chunk "
               "partials through parallel_reduce / parallel_reduce_n"});
    }
  }
}

/// Token indices of the names a declaration introduces, given the index
/// of its first specifier (`thread_local Buf<T, W> a(0), b = c;` declares a
/// and b): identifiers outside every bracket and template-argument list
/// that are followed by an initialiser, a comma, `;` or `[`.
std::vector<std::size_t> declarator_names(const Tokens& t, std::size_t b) {
  std::vector<std::size_t> names;
  int depth = 0, angle = 0;
  for (std::size_t i = b; i + 1 < t.size(); ++i) {
    const Token& tk = t[i];
    if (tk.kind == Tok::Punct) {
      const std::string& p = tk.text;
      if (p == "(" || p == "{" || p == "[") ++depth;
      if (p == ")" || p == "}" || p == "]") --depth;
      if (depth < 0 || (depth == 0 && p == ";")) break;
      if (depth == 0 && p == "<" && t[i - 1].kind == Tok::Ident) ++angle;
      if (depth == 0 && p == ">") --angle;
      if (depth == 0 && p == ">>") angle -= 2;
      if (depth == 0 && angle == 0 && p == "=") {
        // Skip the initialiser expression to the next declarator.
        int d = 0;
        while (i + 1 < t.size()) {
          const Token& n = t[i + 1];
          if (n.kind == Tok::Punct) {
            if (n.text == "(" || n.text == "{" || n.text == "[") ++d;
            if (n.text == ")" || n.text == "}" || n.text == "]") --d;
            if (d == 0 && (n.text == "," || n.text == ";")) break;
          }
          ++i;
        }
      }
      continue;
    }
    if (tk.kind != Tok::Ident || depth != 0 || angle != 0) continue;
    const Token& n = t[i + 1];
    if (n.kind == Tok::Punct &&
        (n.text == "(" || n.text == "{" || n.text == "=" || n.text == "," ||
         n.text == ";" || n.text == "["))
      names.push_back(i);
  }
  return names;
}

void rule_thread_local_in_parallel(const Source& s,
                                   std::vector<Finding>& out) {
  // A lambda never captures a variable with thread storage duration: the
  // name resolves to the instance of whichever thread runs the body.  A
  // function-scope thread_local named inside a parallel body therefore
  // reads each pool worker's own (unsized or stale) copy, not the
  // caller's.  Bind a reference to it before the launch and name that.
  if (s.in_parallel_engine()) return;
  const Tokens& t = s.lx.tokens;

  for (const FunctionInfo& fn : s.functions) {
    std::map<std::string, std::size_t> tls;  // name -> declaring token
    for (std::size_t i = fn.body_begin + 1; i < fn.body_end; ++i)
      if (is_ident(t[i], "thread_local"))
        for (std::size_t d : declarator_names(t, i + 1))
          tls.emplace(t[d].text, d);
    if (tls.empty()) continue;

    for (std::size_t k = fn.body_begin + 1; k < fn.body_end; ++k) {
      if (t[k].kind != Tok::Ident || !is_launch_name(t[k].text)) continue;
      const std::optional<LaunchBody> lb = launch_body(t, k);
      if (!lb) continue;
      std::set<std::string> reported;
      for (std::size_t p = lb->body_open + 1; p < lb->body_close; ++p) {
        if (t[p].kind != Tok::Ident || is_member_access(t, p)) continue;
        const auto it = tls.find(t[p].text);
        if (it == tls.end() || it->second > k) continue;
        if (declared_in(t, lb->params_b, lb->params_e, it->first)) continue;
        if (!reported.insert(it->first).second) continue;
        const int line = t[p].line;
        if (s.suppressed("thread-local-in-parallel", line)) continue;
        out.push_back(
            {s.path, line, "thread-local-in-parallel",
             "thread_local '" + it->first + "' (declared on line " +
                 std::to_string(t[it->second].line) + ") named inside a " +
                 t[k].text +
                 " body: a lambda does not capture it, so every pool worker "
                 "reads its own instance, not the caller's; bind a "
                 "reference before the launch and name that instead"});
      }
    }
  }
}

void rule_raw_intrinsics(const Source& s, std::vector<Finding>& out) {
  // Vendor SIMD belongs in src/simd/ behind the Vec<T, W> interface: the
  // module that may legitimately specialize per ISA.  Everywhere else,
  // kernels must stay width-agnostic so a new target is a new backend in
  // one directory, not a tree-wide audit.
  if (s.rel.compare(0, 5, "simd/") == 0) return;
  const auto report = [&](int line, const std::string& what) {
    if (s.suppressed("raw-intrinsics", line)) return;
    out.push_back({s.path, line, "raw-intrinsics",
                   what + " outside src/simd/: portable kernels go through "
                          "simd::Vec (femtosimd); per-ISA code lives in the "
                          "simd module only"});
  };
  static const char* const kVendorHeaders[] = {
      "immintrin.h", "x86intrin.h", "emmintrin.h", "xmmintrin.h",
      "pmmintrin.h", "smmintrin.h", "tmmintrin.h", "nmmintrin.h",
      "ammintrin.h", "wmmintrin.h", "arm_neon.h",  "arm_sve.h",
  };
  for (const Token& tk : s.lx.tokens)
    if (tk.kind == Tok::Pp && tk.text.find("include") != std::string::npos)
      for (const char* h : kVendorHeaders)
        if (tk.text.find(std::string("<") + h + ">") != std::string::npos)
          report(tk.line, std::string("#include <") + h + ">");
  const auto starts_with = [](const std::string& w, const char* p) {
    return w.compare(0, std::strlen(p), p) == 0;
  };
  for (const Token& tk : s.lx.tokens) {
    if (tk.kind != Tok::Ident) continue;
    const std::string& w = tk.text;
    const bool x86 = starts_with(w, "_mm") || starts_with(w, "__m128") ||
                     starts_with(w, "__m256") || starts_with(w, "__m512") ||
                     starts_with(w, "__builtin_ia32");
    const bool neon = starts_with(w, "vld1") || starts_with(w, "vst1") ||
                      starts_with(w, "vdupq_") || starts_with(w, "vaddq_") ||
                      starts_with(w, "vsubq_") || starts_with(w, "vmulq_") ||
                      starts_with(w, "vfmaq_") || starts_with(w, "vgetq_") ||
                      starts_with(w, "float32x") ||
                      starts_with(w, "float64x") ||
                      starts_with(w, "int16x") || starts_with(w, "int32x") ||
                      starts_with(w, "uint32x");
    if (x86 || neon)
      report(tk.line, "vendor intrinsic identifier '" + w + "'");
  }
}

// ---------------------------------------------------------------------------
// Whole-program pass: transitive kernel-traffic.
// ---------------------------------------------------------------------------

void pass_kernel_traffic(const Program& prog, std::vector<Finding>& out) {
  const CallGraph& g = prog.graph;
  // A launcher is *covered* when every call chain from a call-graph root
  // down to it passes through a function that charges flops::add_bytes.
  // uncovered(v): v is a root itself, or some caller chain reaches a root
  // without ever charging.
  std::set<std::size_t> stack;
  std::function<bool(std::size_t)> uncovered = [&](std::size_t v) {
    if (g.nodes[v].callers.empty()) return true;
    stack.insert(v);
    bool result = false;
    for (std::size_t c : g.nodes[v].callers) {
      if (stack.count(c) != 0) continue;  // recursion cycle: no new root
      if (g.nodes[c].fn->charges) continue;
      if (uncovered(c)) {
        result = true;
        break;
      }
    }
    stack.erase(v);
    return result;
  };

  for (std::size_t v = 0; v < g.nodes.size(); ++v) {
    const CallGraph::Node& n = g.nodes[v];
    if (!n.fn->launches || n.fn->charges) continue;
    if (n.src->in_parallel_engine()) continue;  // the execution engine
    if (!uncovered(v)) continue;
    const int line = n.fn->first_launch_line;
    if (n.src->suppressed("kernel-traffic", line)) continue;
    out.push_back({n.src->path, line, "kernel-traffic",
                   "function '" + n.fn->name + "' launches " +
                       n.fn->first_launch_name +
                       " but no call chain reaching it charges "
                       "flops::add_bytes; the arithmetic-intensity model "
                       "depends on every kernel recording its memory "
                       "traffic"});
  }

  // Compressed-container charge honesty: a kernel that takes a compressed
  // gauge container and charges flops::add_bytes must derive the gauge
  // term from THAT container's bytes() — charging a full-18 field's
  // bytes() would overstate the stream by 1.5-2.6x and silently inflate
  // the femtoscope AI/GB/s derivations.
  for (const Source& s : prog.sources)
    for (const FunctionInfo& fn : s.functions) {
      if (fn.compressed_params.empty() || !fn.charges) continue;
      bool honest = false;
      for (const std::string& p : fn.compressed_params)
        if (fn.charge_bytes_of.count(p) != 0) {
          honest = true;
          break;
        }
      if (honest) continue;
      const int line = fn.first_charge_line;
      if (s.suppressed("kernel-traffic", line)) continue;
      out.push_back(
          {s.path, line, "kernel-traffic",
           "function '" + fn.name +
               "' takes a compressed gauge container ('" +
               *fn.compressed_params.begin() +
               "') but its flops::add_bytes charge never reads that "
               "container's bytes(); compressed links must be charged at "
               "their true stored size"});
    }
}

// ---------------------------------------------------------------------------
// Whole-program pass: lock discipline.
// ---------------------------------------------------------------------------

void pass_lock_discipline(const Program& prog, std::vector<Finding>& out) {
  // mutex-annotate: every mutex-owning class annotates its mutable members.
  for (const Source& s : prog.sources)
    for (const ClassInfo& c : s.classes) {
      if (c.mutexes.empty()) continue;
      for (const MemberInfo& m : c.members) {
        if (!m.guard.empty()) continue;
        if (s.suppressed("mutex-annotate", m.line)) continue;
        out.push_back(
            {s.path, m.line, "mutex-annotate",
             "class '" + c.name + "' owns mutex '" + c.mutexes.front() +
                 "' but member '" + m.name +
                 "' has no FEMTO_GUARDED_BY annotation (annotate it, or "
                 "make it const / std::atomic)"});
      }
    }

  // guarded-by: annotated members only touched while visibly holding the
  // named mutex.  Methods are matched to classes by name (lexical nesting
  // or the `Class::` qualifier), so out-of-line definitions in the .cpp
  // are checked against the annotations in the header.
  std::map<std::string, std::map<std::string, std::string>> guards_by_class;
  for (const Source& s : prog.sources)
    for (const ClassInfo& c : s.classes)
      for (const MemberInfo& m : c.members)
        if (!m.guard.empty()) guards_by_class[c.name][m.name] = m.guard;

  for (const Source& s : prog.sources) {
    const Tokens& t = s.lx.tokens;
    for (const FunctionInfo& fn : s.functions) {
      if (fn.class_name.empty() || fn.is_ctor_or_dtor) continue;
      auto git = guards_by_class.find(fn.class_name);
      if (git == guards_by_class.end()) continue;
      const std::map<std::string, std::string>& guards = git->second;

      // Lock evidence within this body, per mutex name.
      const auto holds = [&](const std::string& mu) {
        bool takes_lock = false, names_mu = false;
        for (std::size_t k = fn.body_begin;
             k <= fn.body_end && k < t.size(); ++k) {
          if (t[k].kind != Tok::Ident) continue;
          const std::string& w = t[k].text;
          if (w == "lock_guard" || w == "unique_lock" ||
              w == "scoped_lock" || w == "shared_lock")
            takes_lock = true;
          else if (w == "lock" && k > 0 &&
                   (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")))
            takes_lock = true;
          if (w == mu) names_mu = true;
        }
        return takes_lock && names_mu;
      };

      std::set<std::string> reported;
      for (std::size_t k = fn.body_begin; k <= fn.body_end && k < t.size();
           ++k) {
        if (t[k].kind != Tok::Ident) continue;
        auto mit = guards.find(t[k].text);
        if (mit == guards.end()) continue;
        if (is_member_access(t, k) && !is_this_access(t, k)) continue;
        if (reported.count(mit->first) != 0) continue;
        reported.insert(mit->first);
        if (holds(mit->second)) continue;
        const int line = t[k].line;
        if (s.suppressed("guarded-by", line)) continue;
        out.push_back({s.path, line, "guarded-by",
                       "member '" + mit->first + "' is FEMTO_GUARDED_BY(" +
                           mit->second + ") but '" + fn.class_name +
                           "::" + fn.name +
                           "' touches it without visibly locking " +
                           mit->second});
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

void run_file_rules(const Source& s, std::vector<Finding>& out) {
  rule_race_shared_accum(s, out);
  rule_thread_local_in_parallel(s, out);
  rule_raw_intrinsics(s, out);
}

void run_program_rules(const Program& prog, std::vector<Finding>& out) {
  pass_kernel_traffic(prog, out);
  pass_lock_discipline(prog, out);
}

// ---------------------------------------------------------------------------
// Whole-program pass: nondet-in-kernel.
// ---------------------------------------------------------------------------

void run_effect_rules(const Program& prog, std::vector<Finding>& out,
                      EffectStats* stats) {
  const CallGraph& g = prog.graph;
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const std::size_t n = g.nodes.size();

  // launch[v]: a function that launches, reached from v through its
  // callees (v itself first), or kNone.  Memoized DFS; a recursion cycle
  // (state 1, on the stack) adds no new witness.
  std::vector<std::size_t> launch(n, kNone);
  std::vector<char> state(n, 0);
  std::function<std::size_t(std::size_t)> visit = [&](std::size_t v) {
    if (state[v] != 0) return launch[v];
    state[v] = 1;
    std::size_t w = g.nodes[v].fn->launches ? v : kNone;
    for (std::size_t j : g.nodes[v].callees) {
      if (w != kNone) break;
      w = visit(j);
    }
    state[v] = 2;
    return launch[v] = w;
  };
  for (std::size_t v = 0; v < n; ++v) visit(v);

  // A function is in kernel context when it launches, or some transitive
  // caller does: its work then shares a dynamic extent with kernel
  // launches, so an unblessed nondeterminism source in it is one
  // helper-inline away from steering numerics.  context[v] names the
  // launcher.
  std::vector<std::size_t> context = launch;
  std::vector<std::size_t> todo;
  for (std::size_t v = 0; v < n; ++v)
    if (launch[v] != kNone) todo.push_back(v);
  while (!todo.empty()) {
    const std::size_t u = todo.back();
    todo.pop_back();
    for (std::size_t j : g.nodes[u].callees)
      if (context[j] == kNone) {
        context[j] = context[u];
        todo.push_back(j);
      }
  }

  for (std::size_t v = 0; v < n; ++v) {
    const CallGraph::Node& nd = g.nodes[v];
    if (nd.fn->nondet_sources.empty() || nd.fn->nondet_ok) continue;
    if (nd.src->in_parallel_engine()) continue;  // the execution engine
    const std::size_t w = context[v];
    if (w == kNone) continue;
    for (const NondetUse& u : nd.fn->nondet_sources) {
      if (nd.src->suppressed("nondet-in-kernel", u.line)) continue;
      out.push_back(
          {nd.src->path, u.line, "nondet-in-kernel",
           "nondeterminism source " + u.what + " in '" + nd.fn->name +
               "' sits on a kernel call chain (context: '" +
               g.nodes[w].fn->name + "' launches " +
               g.nodes[w].fn->first_launch_name +
               "); time through obs::Stopwatch, use the counter-based "
               "Xoshiro256 for randomness, hoist the read out of the "
               "kernel path, or bless the function with "
               "FEMTO_NONDET_OK(reason) if the value can never reach "
               "numerics"});
    }
  }

  if (stats != nullptr) {
    stats->functions = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (launch[v] != kNone) ++stats->launching;
      if (!g.nodes[v].fn->nondet_sources.empty()) ++stats->nondet_sources;
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-program pass: stale-suppression audit.  Runs LAST.
// ---------------------------------------------------------------------------

void run_unused_suppression_rule(const Program& prog,
                                 std::vector<Finding>& out) {
  for (const Source& s : prog.sources)
    for (const AllowDirective& d : s.allow_directives) {
      if (d.used) continue;
      // A directive about this rule is self-referential (it can only ever
      // be "used" by the pass that is reading it); exempt it.
      if (d.rule == "unused-suppression") continue;
      if (s.suppressed("unused-suppression", d.line)) continue;
      out.push_back(
          {s.path, d.line, "unused-suppression",
           std::string("suppression 'allow") + (d.file_scope ? "-file" : "") +
               "(" + d.rule +
               ")' no longer matches any finding; delete it (stale "
               "suppressions are holes the next regression walks through "
               "unreviewed)"});
    }
}

void sort_findings(std::vector<Finding>& v) {
  std::sort(v.begin(), v.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
}

}  // namespace femtolint
