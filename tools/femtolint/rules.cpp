#include "rules.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

namespace femtolint {

namespace {

using Tokens = std::vector<Token>;

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

// A name looks *declared* within [b, e) when some occurrence is preceded by
// a type-ish token (identifier, '&', '*', or a closing '>'), or when it is
// a later declarator in a comma list whose statement head declares
// (`double sr = 0.0, si = 0.0;` and `Vec<double, W> racc, iacc;` declare
// si and iacc too).  A comma reached only by leaving a '(' or '[' is an
// argument separator, not a declarator list, and never counts.
bool declared_in(const Tokens& t, std::size_t b, std::size_t e,
                 const std::string& name) {
  const auto type_ish_before = [&](std::size_t i) {
    if (i == 0) return false;
    const Token& p = t[i - 1];
    return p.kind == Tok::Ident || p.text == "&" || p.text == "*" ||
           p.text == ">" || p.text == ">>";
  };
  for (std::size_t i = b; i < e; ++i) {
    if (t[i].kind != Tok::Ident || t[i].text != name || i == 0) continue;
    if (type_ish_before(i)) return true;
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
      if (t[m].kind == Tok::Ident && type_ish_before(m)) return true;
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

/// Calls @p report(line, var) for every compound assignment (+= -= *= /=)
/// in the body of @p lb to a plain identifier that neither the lambda's
/// parameters nor the body (before that point) declare: a captured scalar.
/// Subscripted and member targets (acc[0] +=, s.x +=) are per-element.
template <typename Report>
void for_each_captured_accum(const Tokens& t, const LaunchBody& lb,
                             Report&& report) {
  for (std::size_t p = lb.body_open + 1; p < lb.body_close; ++p) {
    if (t[p].kind != Tok::Punct) continue;
    const std::string& op = t[p].text;
    if (op != "+=" && op != "-=" && op != "*=" && op != "/=") continue;
    if (t[p - 1].kind != Tok::Ident) continue;
    const std::size_t id = p - 1;
    if (is_member_access(t, id)) continue;
    const std::string& var = t[id].text;
    if (declared_in(t, lb.params_b, lb.params_e, var)) continue;
    if (declared_in(t, lb.body_open + 1, p, var)) continue;
    report(t[p].line, var);
  }
}

void rule_race_shared_accum(const Source& s, std::vector<Finding>& out) {
  if (s.in_parallel_engine()) return;
  const Tokens& t = s.lx.tokens;

  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::Ident) continue;
    const std::string& name = t[k].text;
    if (name != "parallel_for" && name != "parallel_for_chunked") continue;
    const std::optional<LaunchBody> lb = launch_body(t, k);
    if (!lb) continue;
    for_each_captured_accum(t, *lb, [&](int line, const std::string& var) {
      if (s.suppressed("race-shared-accum", line)) return;
      out.push_back(
          {s.path, line, "race-shared-accum",
           "accumulation into captured scalar '" + var + "' inside a " +
               name +
               " body: a data race, and non-deterministic even if atomic; "
               "use parallel_reduce / parallel_reduce_n"});
    });
  }
}

void rule_fp_accum_discipline(const Source& s, std::vector<Finding>& out) {
  // The reduce family's chunk bodies accumulate floating point.  The only
  // discipline that keeps results bitwise reproducible is: accumulate into
  // the per-chunk slot (or a body-local), and let the pool combine chunks
  // in its fixed order.  A compound assignment to a CAPTURED scalar inside
  // a reduce body bypasses that order entirely -- it is the same defect
  // race-shared-accum catches in parallel_for bodies, hidden inside the
  // primitive that was supposed to prevent it.
  if (s.in_parallel_engine()) return;
  const Tokens& t = s.lx.tokens;

  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::Ident) continue;
    const std::string& name = t[k].text;
    if (name != "parallel_reduce" && name != "parallel_reduce2" &&
        name != "parallel_reduce_n")
      continue;
    const std::optional<LaunchBody> lb = launch_body(t, k);
    if (!lb) continue;
    for_each_captured_accum(t, *lb, [&](int line, const std::string& var) {
      if (s.suppressed("fp-accumulation-discipline", line)) return;
      out.push_back(
          {s.path, line, "fp-accumulation-discipline",
           "accumulation into captured scalar '" + var + "' inside a " +
               name +
               " body: partials must flow through the per-chunk accumulator "
               "slot (or simd::sum_ordered) so the fixed chunk-order "
               "combination keeps the sum bitwise reproducible"});
    });
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

void rule_no_std_rand(const Source& s, std::vector<Finding>& out) {
  const Tokens& t = s.lx.tokens;
  const auto report = [&](int line, const std::string& what) {
    if (s.suppressed("no-std-rand", line)) return;
    out.push_back({s.path, line, "no-std-rand",
                   what + ": kernels must use the counter-based Xoshiro256 "
                          "(reproducible per global site, thread-count "
                          "independent)"});
  };
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::Ident) continue;
    if (t[k].text == "srand" && k + 1 < t.size() && is_punct(t[k + 1], "(")) {
      report(t[k].line, "call to srand");
      continue;
    }
    if (t[k].text != "rand") continue;
    if (k > 0 && is_punct(t[k - 1], "::")) {
      if (k >= 2 && is_ident(t[k - 2], "std"))
        report(t[k].line, "call to std::rand");
      continue;
    }
    if (k > 0 && (is_punct(t[k - 1], ".") || is_punct(t[k - 1], "->")))
      continue;
    if (k + 1 < t.size() && is_punct(t[k + 1], "("))
      report(t[k].line, "call to rand");
  }
}

void rule_no_naked_new(const Source& s, std::vector<Finding>& out) {
  const Tokens& t = s.lx.tokens;
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k].kind != Tok::Ident) continue;
    const std::string& w = t[k].text;
    if (w != "new" && w != "delete") continue;
    if (k > 0 && is_ident(t[k - 1], "operator")) continue;
    // `Foo(const Foo&) = delete;` deletes a function, not memory.
    if (w == "delete" && k > 0 && is_punct(t[k - 1], "=")) continue;
    if (k > 0 && is_punct(t[k - 1], "<")) continue;  // template argument
    const int line = t[k].line;
    if (s.suppressed("no-naked-new", line)) continue;
    out.push_back({s.path, line, "no-naked-new",
                   "naked `" + w +
                       "` in kernel code: ownership belongs in "
                       "std::vector / smart pointers (ASan-clean by "
                       "construction)"});
  }
}

void rule_pragma_once(const Source& s, std::vector<Finding>& out) {
  if (!s.is_header()) return;
  const Tokens& t = s.lx.tokens;
  if (!t.empty() && t[0].kind == Tok::Pp) {
    // Normalise internal whitespace before comparing.
    std::istringstream is(t[0].text.substr(t[0].text.find('#') + 1));
    std::string a, b;
    is >> a >> b;
    if (a == "pragma" && b == "once") return;
  }
  const int line = t.empty() ? 1 : t[0].line;
  if (s.suppressed("pragma-once", line)) return;
  out.push_back(
      {s.path, line, "pragma-once", "header must start with #pragma once"});
}

void rule_header_hygiene(const Source& s, std::vector<Finding>& out) {
  if (!s.is_header()) return;
  const Tokens& t = s.lx.tokens;
  bool has_femto = false;
  for (std::size_t k = 0; k + 1 < t.size(); ++k) {
    if (is_ident(t[k], "using") && is_ident(t[k + 1], "namespace")) {
      const int line = t[k].line;
      if (!s.suppressed("header-hygiene", line))
        out.push_back({s.path, line, "header-hygiene",
                       "`using namespace` in a header leaks into every "
                       "includer"});
    }
    if (is_ident(t[k], "namespace") && t[k + 1].kind == Tok::Ident &&
        t[k + 1].text.compare(0, 5, "femto") == 0)
      has_femto = true;
  }
  if (!has_femto && !s.suppressed("header-hygiene", 1))
    out.push_back({s.path, 1, "header-hygiene",
                   "header declares nothing inside `namespace femto`"});
}

void rule_cast(const Source& s, std::vector<Finding>& out) {
  for (const Token& tk : s.lx.tokens) {
    if (tk.kind != Tok::Ident) continue;
    if (tk.text != "reinterpret_cast" && tk.text != "const_cast") continue;
    if (s.suppressed("cast", tk.line)) continue;
    out.push_back({s.path, tk.line, "cast",
                   tk.text +
                       " requires an explicit `// femtolint: allow(cast): "
                       "why it is safe` suppression (aliasing / constness "
                       "audit trail)"});
  }
}

void rule_raw_intrinsics(const Source& s, std::vector<Finding>& out) {
  // Vendor SIMD belongs in src/simd/ behind the Vec<T, W> interface: the
  // module that may legitimately specialize per ISA.  Everywhere else,
  // kernels must stay width-agnostic so a new target is a new backend in
  // one directory, not a tree-wide audit.
  const std::string m =
      !s.module_override.empty() ? s.module_override : s.module_dir;
  if (m == "simd") return;
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
  for (const IncludeEdge& inc : s.includes)
    for (const char* h : kVendorHeaders)
      if (inc.path == h)
        report(inc.line, "#include <" + inc.path + ">");
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
  struct Node {
    const Source* src = nullptr;
    const FunctionInfo* fn = nullptr;
    std::set<std::size_t> callers;
  };
  std::vector<Node> nodes;
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (const Source& s : prog.sources)
    for (const FunctionInfo& fn : s.functions) {
      by_name[fn.name].push_back(nodes.size());
      nodes.push_back({&s, &fn, {}});
    }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (const std::string& callee : nodes[i].fn->callees) {
      auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      for (std::size_t j : it->second)
        if (j != i) nodes[j].callers.insert(i);
    }

  // A launcher is *covered* when every call chain from a call-graph root
  // down to it passes through a function that charges flops::add_bytes.
  // uncovered(v): v is a root itself, or some caller chain reaches a root
  // without ever charging.
  std::set<std::size_t> stack;
  std::function<bool(std::size_t)> uncovered = [&](std::size_t v) {
    if (nodes[v].callers.empty()) return true;
    stack.insert(v);
    bool result = false;
    for (std::size_t c : nodes[v].callers) {
      if (stack.count(c) != 0) continue;  // recursion cycle: no new root
      if (nodes[c].fn->charges) continue;
      if (uncovered(c)) {
        result = true;
        break;
      }
    }
    stack.erase(v);
    return result;
  };

  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (!n.fn->launches || n.fn->charges) continue;
    if (n.src->in_parallel_engine()) continue;  // the execution engine
    if (!uncovered(i)) continue;
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
        if (!m.needs_guard || !m.guard.empty()) continue;
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

// ---------------------------------------------------------------------------
// Whole-program pass: architecture layering.
// ---------------------------------------------------------------------------

bool find_dag_cycle(const LayerSpec& spec, std::string& cycle) {
  // Colours: 0 white, 1 grey, 2 black.
  std::map<std::string, int> colour;
  std::vector<std::string> path;
  std::function<bool(const std::string&)> dfs = [&](const std::string& m) {
    colour[m] = 1;
    path.push_back(m);
    auto it = spec.allowed.find(m);
    if (it != spec.allowed.end())
      for (const std::string& d : it->second) {
        if (colour[d] == 1) {
          cycle.clear();
          for (const std::string& p : path) cycle += p + " -> ";
          cycle += d;
          return true;
        }
        if (colour[d] == 0 && dfs(d)) return true;
      }
    colour[m] = 2;
    path.pop_back();
    return false;
  };
  for (const std::string& m : spec.modules)
    if (colour[m] == 0 && dfs(m)) return true;
  return false;
}

void pass_layering(const Program& prog, const LayerSpec& spec,
                   std::vector<Finding>& out) {
  if (!spec.loaded) return;
  std::string cycle;
  if (find_dag_cycle(spec, cycle)) {
    out.push_back({spec.path, 1, "layering",
                   "declared module graph has a cycle: " + cycle});
    return;  // edge conformance against a cyclic spec is meaningless
  }
  for (const Source& s : prog.sources) {
    const std::string m = module_of(s, spec);
    if (m.empty()) continue;
    if (spec.modules.count(m) == 0) {
      if (!s.suppressed("layering", 1))
        out.push_back({s.path, 1, "layering",
                       "module '" + m + "' is not declared in " + spec.path});
      continue;
    }
    const auto ait = spec.allowed.find(m);
    for (const IncludeEdge& inc : s.includes) {
      if (inc.system) continue;
      std::string target;
      auto fit = spec.file_overrides.find(inc.path);
      if (fit != spec.file_overrides.end()) {
        target = fit->second;
      } else {
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;  // sibling include
        target = inc.path.substr(0, slash);
        if (spec.modules.count(target) == 0) continue;  // not a module path
      }
      if (target == m) continue;
      if (ait != spec.allowed.end() && ait->second.count(target) != 0)
        continue;
      if (s.suppressed("layering", inc.line)) continue;
      out.push_back({s.path, inc.line, "layering",
                     "#include \"" + inc.path + "\" crosses modules " + m +
                         " -> " + target + ", which is not an allowed edge "
                         "in " + spec.path});
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Public entry points.
// ---------------------------------------------------------------------------

bool load_layers(const std::string& path, LayerSpec& spec, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  spec = LayerSpec{};
  spec.path = path;
  std::string line;
  int ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    for (char& c : line)
      if (c == ':') c = ' ';
    std::istringstream is(line);
    std::string kw;
    if (!(is >> kw)) continue;
    if (kw == "module") {
      std::string name;
      if (!(is >> name)) {
        err = path + ":" + std::to_string(ln) + ": module needs a name";
        return false;
      }
      spec.modules.insert(name);
      std::string dep;
      while (is >> dep) spec.allowed[name].insert(dep);
    } else if (kw == "file") {
      std::string p, mod;
      if (!(is >> p >> mod)) {
        err = path + ":" + std::to_string(ln) +
              ": file needs <path> <module>";
        return false;
      }
      spec.file_overrides[p] = mod;
    } else {
      err = path + ":" + std::to_string(ln) + ": unknown directive '" + kw +
            "' (expected module/file)";
      return false;
    }
  }
  for (const auto& [m, deps] : spec.allowed)
    for (const std::string& d : deps)
      if (spec.modules.count(d) == 0) {
        err = path + ": module '" + m + "' allows undeclared module '" + d +
              "'";
        return false;
      }
  for (const auto& [p, m] : spec.file_overrides)
    if (spec.modules.count(m) == 0) {
      err = path + ": file override '" + p + "' names undeclared module '" +
            m + "'";
      return false;
    }
  spec.loaded = true;
  return true;
}

bool load_trace_categories(const std::string& path, TraceCategorySpec& spec,
                           std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  spec = TraceCategorySpec{};
  spec.path = path;
  std::string line;
  int ln = 0;
  while (std::getline(in, line)) {
    ++ln;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream is(line);
    std::string kw;
    if (!(is >> kw)) continue;
    if (kw != "category") {
      err = path + ":" + std::to_string(ln) + ": unknown directive '" + kw +
            "' (expected category)";
      return false;
    }
    std::string name;
    if (!(is >> name)) {
      err = path + ":" + std::to_string(ln) + ": category needs a name";
      return false;
    }
    spec.categories.insert(name);
  }
  if (spec.categories.empty()) {
    err = path + ": declares no categories";
    return false;
  }
  spec.loaded = true;
  return true;
}

namespace {

// Callables whose FIRST string argument is a femtoscope category.
const char* const kCategoryCallees[] = {"FEMTO_TRACE_SCOPE",
                                        "trace_flow_out", "trace_flow_in"};

}  // namespace

void run_trace_category_rule(const Program& prog,
                             const TraceCategorySpec& spec,
                             std::vector<Finding>& out) {
  if (!spec.loaded) return;
  for (const Source& s : prog.sources) {
    const auto& toks = s.lx.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      const Token& t = toks[i];
      if (t.kind != Tok::Ident) continue;
      bool callee = false;
      for (const char* name : kCategoryCallees)
        if (t.text == name) callee = true;
      if (!callee || !is_punct(toks[i + 1], "(")) continue;
      // The macro/function *definition* sites live behind Pp tokens or in
      // obs itself; a parameter forward like trace_flow_out(category, ...)
      // is skipped -- the rule wants literal call sites.
      const Token& arg = toks[i + 2];
      const int line = arg.line;
      if (arg.kind != Tok::Str) {
        if (arg.kind == Tok::Ident && i + 3 < toks.size() &&
            !is_punct(toks[i + 3], ")") && !is_punct(toks[i + 3], ","))
          continue;  // declaration or expression, not a forwarded identifier
        if (s.suppressed("trace-category", line)) continue;
        out.push_back(
            {s.path, line, "trace-category",
             "the category argument of '" + t.text +
                 "' must be a string literal from " + spec.path +
                 " (got a non-literal; literals are what the taxonomy, "
                 "the Chrome export and the flamegraphs key on)"});
        continue;
      }
      // Strip the surrounding quotes the lexer keeps.
      std::string cat = arg.text;
      if (cat.size() >= 2 && cat.front() == '"' && cat.back() == '"')
        cat = cat.substr(1, cat.size() - 2);
      if (spec.categories.count(cat) != 0) continue;
      if (s.suppressed("trace-category", line)) continue;
      out.push_back(
          {s.path, line, "trace-category",
           "span category \"" + cat + "\" is not declared in " + spec.path +
               " -- add it there (design review for the span namespace) or "
               "use an existing category"});
    }
  }
}

std::string module_of(const Source& s, const LayerSpec& spec) {
  if (!s.module_override.empty()) return s.module_override;
  if (!s.rel.empty()) {
    auto it = spec.file_overrides.find(s.rel);
    if (it != spec.file_overrides.end()) return it->second;
  }
  return s.module_dir;
}

void run_file_rules(const Source& s, std::vector<Finding>& out) {
  rule_race_shared_accum(s, out);
  rule_fp_accum_discipline(s, out);
  rule_thread_local_in_parallel(s, out);
  rule_no_std_rand(s, out);
  rule_no_naked_new(s, out);
  rule_pragma_once(s, out);
  rule_header_hygiene(s, out);
  rule_cast(s, out);
  rule_raw_intrinsics(s, out);
}

void run_program_rules(const Program& prog, const LayerSpec& spec,
                       std::vector<Finding>& out) {
  pass_kernel_traffic(prog, out);
  pass_lock_discipline(prog, out);
  pass_layering(prog, spec, out);
}

// ---------------------------------------------------------------------------
// Whole-program pass: effect inference + determinism rules.
// ---------------------------------------------------------------------------

void run_effect_rules(const Program& prog, std::vector<Finding>& out,
                      EffectStats* stats) {
  struct Node {
    const Source* src = nullptr;
    const FunctionInfo* fn = nullptr;
    std::set<std::size_t> callers;
  };
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<Node> nodes;
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (const Source& s : prog.sources)
    for (const FunctionInfo& fn : s.functions) {
      by_name[fn.name].push_back(nodes.size());
      nodes.push_back({&s, &fn, {}});
    }
  for (std::size_t i = 0; i < nodes.size(); ++i)
    for (const std::string& callee : nodes[i].fn->callees) {
      auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      for (std::size_t j : it->second)
        if (j != i) nodes[j].callers.insert(i);
    }

  // Downward fixed point with cycle truncation: memo[v] is the index of a
  // witness function holding the effect reachable from v through callees
  // (v itself included), or kNone.  State 1 = on the DFS stack.
  struct Memo {
    std::vector<std::size_t> witness;
    std::vector<char> state;  // 0 unset, 1 computing, 2 done
  };
  const auto make_memo = [&] {
    Memo m;
    m.witness.assign(nodes.size(), kNone);
    m.state.assign(nodes.size(), 0);
    return m;
  };
  // Transitive witness of @p direct through the callee graph.
  std::function<std::size_t(Memo&, const std::function<bool(std::size_t)>&,
                            std::size_t)>
      reach_down = [&](Memo& m, const std::function<bool(std::size_t)>& direct,
                       std::size_t v) -> std::size_t {
    if (m.state[v] == 2) return m.witness[v];
    if (m.state[v] == 1) return kNone;  // recursion cycle: no new holder
    m.state[v] = 1;
    std::size_t w = direct(v) ? v : kNone;
    if (w == kNone)
      for (const std::string& callee : nodes[v].fn->callees) {
        auto it = by_name.find(callee);
        if (it == by_name.end()) continue;
        for (std::size_t j : it->second) {
          if (j == v) continue;
          w = reach_down(m, direct, j);
          if (w != kNone) break;
        }
        if (w != kNone) break;
      }
    m.state[v] = 2;
    m.witness[v] = w;
    return w;
  };

  Memo launch_memo = make_memo();
  const std::function<bool(std::size_t)> launches_direct =
      [&](std::size_t v) { return nodes[v].fn->launches; };
  const auto launch_witness = [&](std::size_t v) {
    return reach_down(launch_memo, launches_direct, v);
  };

  Memo emit_memo = make_memo();
  const std::function<bool(std::size_t)> emits_direct = [&](std::size_t v) {
    return nodes[v].fn->emits;
  };
  const auto emit_witness = [&](std::size_t v) {
    return reach_down(emit_memo, emits_direct, v);
  };

  // nondet-in-kernel.  A function is "in kernel context" when it launches
  // (transitively), or some transitive CALLER does: its work then shares a
  // dynamic extent with kernel launches, so any unblessed nondeterminism
  // source in it is one helper-inline away from steering numerics.
  Memo ctx_memo = make_memo();
  std::function<std::size_t(std::size_t)> kernel_context =
      [&](std::size_t v) -> std::size_t {
    if (ctx_memo.state[v] == 2) return ctx_memo.witness[v];
    if (ctx_memo.state[v] == 1) return kNone;
    ctx_memo.state[v] = 1;
    std::size_t w = launch_witness(v);
    if (w == kNone)
      for (std::size_t c : nodes[v].callers) {
        w = kernel_context(c);
        if (w != kNone) break;
      }
    ctx_memo.state[v] = 2;
    ctx_memo.witness[v] = w;
    return w;
  };

  for (std::size_t v = 0; v < nodes.size(); ++v) {
    const Node& n = nodes[v];
    if (n.fn->nondet_sources.empty() || n.fn->nondet_ok) continue;
    if (n.src->in_parallel_engine()) continue;  // the execution engine
    const std::size_t w = kernel_context(v);
    if (w == kNone) continue;
    for (const NondetUse& u : n.fn->nondet_sources) {
      if (n.src->suppressed("nondet-in-kernel", u.line)) continue;
      out.push_back(
          {n.src->path, u.line, "nondet-in-kernel",
           "nondeterminism source " + u.what + " in '" + n.fn->name +
               "' sits on a kernel call chain (context: '" +
               nodes[w].fn->name + "' launches " +
               nodes[w].fn->first_launch_name +
               "); time through obs::Stopwatch, hoist the read out of the "
               "kernel path, or bless the function with "
               "FEMTO_NONDET_OK(reason) if the value can never reach "
               "numerics"});
    }
  }

  // unordered-iteration-emit: a range-for over an unordered container
  // whose loop body writes output (directly, or through a transitively
  // emitting callee) serializes hash order -- different run to run.
  std::set<std::string> unordered;
  for (const Source& s : prog.sources)
    unordered.insert(s.unordered_names.begin(), s.unordered_names.end());
  if (!unordered.empty()) {
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      const Node& n = nodes[v];
      for (const RangeFor& rf : n.fn->range_fors) {
        std::string container;
        for (const std::string& id : rf.range_idents)
          if (unordered.count(id) != 0) {
            container = id;
            break;
          }
        if (container.empty()) continue;
        std::string sink;
        if (rf.body_emits) {
          sink = "writes a stream in the loop body";
        } else {
          for (const std::string& c : rf.body_callees) {
            auto it = by_name.find(c);
            if (it == by_name.end()) continue;
            for (std::size_t j : it->second)
              if (emit_witness(j) != kNone) {
                sink = "calls '" + c + "', which writes output";
                break;
              }
            if (!sink.empty()) break;
          }
        }
        if (sink.empty()) continue;
        if (n.src->suppressed("unordered-iteration-emit", rf.line)) continue;
        out.push_back(
            {n.src->path, rf.line, "unordered-iteration-emit",
             "range-for over unordered container '" + container +
                 "' feeds output (" + sink +
                 "): hash order varies run to run, so the emitted "
                 "report/metrics/cache bytes would too; materialize a "
                 "sorted view (std::map, or collect and sort keys) before "
                 "writing"});
      }
    }
  }

  if (stats != nullptr) {
    stats->functions = nodes.size();
    stats->unordered_names = unordered.size();
    for (std::size_t v = 0; v < nodes.size(); ++v) {
      if (launch_witness(v) != kNone) ++stats->launching;
      if (!nodes[v].fn->nondet_sources.empty()) ++stats->nondet_sources;
      if (emit_witness(v) != kNone) ++stats->emitting;
      if (nodes[v].fn->fp_accumulates) ++stats->fp_accumulating;
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
