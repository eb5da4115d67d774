#include "model.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace femtolint {

bool is_launch_name(const std::string& s) {
  return s == "parallel_for" || s == "parallel_for_chunked" ||
         s == "parallel_reduce" || s == "parallel_reduce2" ||
         s == "parallel_reduce_n";
}

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

namespace {

bool is_control_kw(const std::string& s) {
  return s == "if" || s == "for" || s == "while" || s == "switch" ||
         s == "catch" || s == "return" || s == "sizeof" || s == "alignof" ||
         s == "decltype" || s == "static_assert";
}

// Names declared with a std::future / std::shared_future type:
// `std::future<T> f;` records `f` (and `const std::future<T>& f`).
std::set<std::string> find_future_names(const std::vector<Token>& t) {
  const std::size_t n = t.size();
  std::set<std::string> names;
  for (std::size_t k = 0; k < n; ++k) {
    if (!is_ident(t[k], "future") && !is_ident(t[k], "shared_future"))
      continue;
    std::size_t j = k + 1;
    if (j < n && is_punct(t[j], "<")) j = skip_angles(t, j);
    while (j < n && (is_punct(t[j], "&") || is_punct(t[j], "&&") ||
                     is_punct(t[j], "*") || is_ident(t[j], "const")))
      ++j;
    if (j < n && t[j].kind == Tok::Ident) names.insert(t[j].text);
  }
  return names;
}

std::vector<std::string> split_path(const std::string& p) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : p) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// ---------------------------------------------------------------------------
// Token-tree walker: functions and classes.
// ---------------------------------------------------------------------------

class Extractor {
 public:
  Extractor(const std::vector<Token>& toks, Source& out)
      : t_(toks), n_(toks.size()), out_(out) {}

  void run() { walk(0, n_, /*cls=*/nullptr); }

 private:
  const std::vector<Token>& t_;
  std::size_t n_;
  Source& out_;

  bool is(std::size_t i, const char* text) const {
    return i < n_ && t_[i].text == text;
  }
  bool ident_at(std::size_t i) const {
    return i < n_ && t_[i].kind == Tok::Ident;
  }

  // Declaration-scope walk over [begin, end); @p cls non-null inside a
  // class body (collects members into it).
  void walk(std::size_t begin, std::size_t end, ClassInfo* cls) {
    std::vector<std::size_t> stmt;  // pending member-declaration tokens
    for (std::size_t i = begin; i < end;) {
      const Token& tk = t_[i];
      if (tk.kind == Tok::Pp) {
        ++i;
        continue;
      }
      if (tk.kind == Tok::Ident) {
        const std::string& w = tk.text;
        if (w == "template") {
          const std::size_t j = is(i + 1, "<") ? skip_angles(t_, i + 1)
                                               : i + 1;
          for (std::size_t k = i; k < j; ++k) stmt.push_back(k);
          i = j;
          continue;
        }
        if (w == "namespace" && cls == nullptr) {
          std::size_t j = i + 1;
          while (j < end && !is(j, "{") && !is(j, ";") && !is(j, "=")) ++j;
          if (j < end && is(j, "{")) {
            const std::size_t close = match_fwd(t_, j);
            walk(j + 1, close, nullptr);
            i = close + 1;
          } else {
            while (j < end && !is(j, ";")) ++j;  // namespace alias
            i = j + 1;
          }
          stmt.clear();
          continue;
        }
        if (w == "class" || w == "struct" || w == "union") {
          // Find the body '{' or the ';' of a forward declaration.
          std::size_t j = i + 1;
          while (j < end && !is(j, "{") && !is(j, ";") && !is(j, "(")) ++j;
          if (j < end && is(j, "{")) {
            ClassInfo ci;
            if (ident_at(i + 1)) ci.name = t_[i + 1].text;
            const std::size_t close = match_fwd(t_, j);
            walk(j + 1, close, &ci);
            out_.classes.push_back(std::move(ci));
            i = close + 1;
            stmt.clear();
            continue;
          }
          // Forward declaration, elaborated type (`struct X x;`), or a
          // function parameter -- fall through to plain accumulation.
        }
        if (w == "enum") {
          std::size_t j = i + 1;
          while (j < end && !is(j, "{") && !is(j, ";")) ++j;
          i = (j < end && is(j, "{")) ? match_fwd(t_, j) + 1 : j + 1;
          stmt.clear();
          continue;
        }
        if (w == "using" || w == "typedef" || w == "friend") {
          std::size_t j = i;
          while (j < end && !is(j, ";")) ++j;
          i = j + 1;
          stmt.clear();
          continue;
        }
        if (w == "operator") {
          // Build the operator-id, then treat like a named function.
          std::size_t j = i + 1;
          std::string opname = "operator";
          if (is(j, "(") && is(j + 1, ")")) {
            opname += "()";
            j += 2;
          } else {
            while (j < end && t_[j].kind == Tok::Punct && !is(j, "(")) {
              opname += t_[j].text;
              ++j;
            }
          }
          if (j < end && is(j, "(")) {
            const std::size_t consumed =
                try_function(j, end, opname, cls, /*name_tok=*/i);
            if (consumed != 0) {
              i = consumed;
              stmt.clear();
              continue;
            }
          }
          for (std::size_t k = i; k < j; ++k) stmt.push_back(k);
          i = j;
          continue;
        }
      }
      if (tk.kind == Tok::Punct && tk.text == "(" && i > begin &&
          ident_at(i - 1) && !is_control_kw(t_[i - 1].text)) {
        const std::size_t consumed =
            try_function(i, end, t_[i - 1].text, cls, i - 1);
        if (consumed != 0) {
          i = consumed;
          stmt.clear();
          continue;
        }
      }
      if (tk.kind == Tok::Punct && tk.text == "{") {
        i = match_fwd(t_, i) + 1;  // opaque block (initializer list, asm, ...)
        stmt.clear();
        continue;
      }
      if (tk.kind == Tok::Punct && tk.text == ";") {
        if (cls != nullptr) analyze_member(stmt, *cls);
        stmt.clear();
        ++i;
        continue;
      }
      stmt.push_back(i);
      ++i;
    }
  }

  // @p open is the '(' of a candidate function header whose name is
  // @p name (token index @p name_tok).  Returns the token index to resume
  // from if this was a definition (body consumed), 0 otherwise.
  std::size_t try_function(std::size_t open, std::size_t end,
                           const std::string& name, ClassInfo* cls,
                           std::size_t name_tok) {
    const std::size_t close = match_fwd(t_, open);
    if (close >= end) return 0;
    std::size_t j = close + 1;
    // Trailing qualifiers: const noexcept(...) override final & &&
    // -> return-type tokens ... up to '{', ';', '=', or ':'.
    while (j < end) {
      if (is(j, "{") || is(j, ";") || is(j, "=") || is(j, ":")) break;
      if (is(j, "(") || is(j, "[")) {
        j = match_fwd(t_, j) + 1;
        continue;
      }
      if (is(j, ",") || is(j, ")")) return 0;  // inside an expression
      ++j;
    }
    if (j >= end) return 0;
    std::size_t body = n_;
    if (is(j, "{")) {
      body = j;
    } else if (is(j, ":")) {
      // Constructor initializer list: the body '{' is the first brace NOT
      // preceded by an identifier (member-init braces follow their member
      // name; the body brace follows ')' or '}').
      std::size_t k = j + 1;
      while (k < end) {
        if (is(k, "(")) {
          k = match_fwd(t_, k) + 1;
          continue;
        }
        if (is(k, "{")) {
          if (k > 0 && ident_at(k - 1)) {
            k = match_fwd(t_, k) + 1;  // brace member-initializer
            continue;
          }
          body = k;
          break;
        }
        if (is(k, ";")) return 0;
        ++k;
      }
    } else {
      return 0;  // declaration, `= default`, or plain expression
    }
    if (body >= end) return 0;

    FunctionInfo fn;
    fn.name = name;
    fn.body_begin = body;
    fn.body_end = match_fwd(t_, body);
    // Qualifier / scope resolution for the class name.
    std::size_t q = name_tok;
    bool dtor = false;
    if (q > 0 && is(q - 1, "~")) {
      dtor = true;
      --q;
    }
    if (q >= 2 && is(q - 1, "::") && ident_at(q - 2))
      fn.class_name = t_[q - 2].text;
    else if (cls != nullptr)
      fn.class_name = cls->name;
    fn.is_ctor_or_dtor = dtor || (fn.name == fn.class_name);
    scan_params(fn, open, close);
    scan_body(fn);
    out_.functions.push_back(std::move(fn));
    return out_.functions.back().body_end + 1;
  }

  // Record parameter names whose declared type names a compressed gauge
  // container (kernel-traffic: the charge must read THAT container's
  // bytes()).  The parameter name is the last identifier of each
  // top-level comma-separated declarator.
  void scan_params(FunctionInfo& fn, std::size_t open, std::size_t close) {
    static const std::set<std::string> kCompressed = {"CompressedGaugeField"};
    int depth = 0;
    bool compressed = false;
    std::string last_ident;
    const auto flush = [&] {
      if (compressed && !last_ident.empty())
        fn.compressed_params.insert(last_ident);
      compressed = false;
      last_ident.clear();
    };
    for (std::size_t k = open + 1; k < close && k < n_; ++k) {
      if (t_[k].kind == Tok::Punct) {
        const std::string& p = t_[k].text;
        if (p == "->") continue;  // trailing-return / lambda arrow
        if (p == "," && depth == 0) {
          flush();
          continue;
        }
        for (const char c : p) {
          if (c == '<' || c == '(' || c == '[' || c == '{') ++depth;
          if (c == '>' || c == ')' || c == ']' || c == '}') --depth;
        }
        continue;
      }
      if (t_[k].kind == Tok::Ident) {
        if (kCompressed.count(t_[k].text) != 0)
          compressed = true;
        else
          last_ident = t_[k].text;
      }
    }
    flush();
  }

  void scan_body(FunctionInfo& fn) {
    for (std::size_t k = fn.body_begin; k <= fn.body_end && k < n_; ++k) {
      if (t_[k].kind != Tok::Ident) continue;
      const std::string& w = t_[k].text;
      if (w == "flops" && is(k + 1, "::") && k + 2 < n_ &&
          t_[k + 2].text == "add_bytes") {
        fn.charges = true;
        if (fn.first_charge_line == 0) fn.first_charge_line = t_[k].line;
        // Which objects' bytes() feed the charge: `X.bytes(` / `X->bytes(`
        // identifiers inside the argument list.
        if (is(k + 3, "(")) {
          const std::size_t cl = match_fwd(t_, k + 3);
          for (std::size_t j = k + 4; j + 2 < cl; ++j)
            if (ident_at(j) && (is(j + 1, ".") || is(j + 1, "->")) &&
                t_[j + 2].text == "bytes")
              fn.charge_bytes_of.insert(t_[j].text);
        }
        continue;
      }
      if (w == "FEMTO_NONDET_OK") {
        fn.nondet_ok = true;
        continue;
      }
      if ((w == "make_unique" || w == "make_shared") && is(k + 1, "<") &&
          ident_at(k + 2)) {
        // The ctor call hidden behind the factory: make_unique<T>(...)
        // enters T::T, which the name-based graph would otherwise miss.
        fn.callees.insert(t_[k + 2].text);
      }
      scan_nondet(fn, k);
      if (call_paren(t_, k) <= fn.body_end) {
        if (is_launch_name(w)) {
          if (!fn.launches) {
            fn.launches = true;
            fn.first_launch_line = t_[k].line;
            fn.first_launch_name = w;
          }
        } else if (!is_control_kw(w)) {
          fn.callees.insert(w);
        }
      }
    }
  }

  // Direct nondeterminism sources at token k (an identifier): clock reads,
  // thread ids, random_device, std::rand / srand, env reads, pointer
  // hashing.
  void scan_nondet(FunctionInfo& fn, std::size_t k) {
    const std::string& w = t_[k].text;
    const auto add = [&](const std::string& what) {
      fn.nondet_sources.push_back({t_[k].line, what});
    };
    if (w == "now" && k >= 2 && is(k - 1, "::") && ident_at(k - 2) &&
        is(k + 1, "(")) {
      const std::string& c = t_[k - 2].text;
      if (c == "steady_clock" || c == "system_clock" ||
          c == "high_resolution_clock")
        add("std::chrono::" + c + "::now()");
      return;
    }
    if (w == "get_id" && is(k + 1, "(")) {
      add("thread id (get_id)");
      return;
    }
    if (w == "random_device") {
      add("std::random_device");
      return;
    }
    if ((w == "getenv" || w == "secure_getenv") && is(k + 1, "(")) {
      add("environment read (" + w + ")");
      return;
    }
    // Global-state RNG: results depend on call order across threads.  A
    // member `.rand()` or another namespace's `ns::rand` is not libc's.
    if ((w == "rand" || w == "srand") && is(k + 1, "(")) {
      const bool qualified = k > 0 && (is(k - 1, "::") || is(k - 1, ".") ||
                                       is(k - 1, "->"));
      if (!qualified)
        add("call to " + w);
      else if (is(k - 1, "::") && k >= 2 && is_ident(t_[k - 2], "std"))
        add("call to std::" + w);
      return;
    }
    if (w == "hash" && is(k + 1, "<")) {
      // std::hash<T*> hashes an address: run-to-run nondeterministic under
      // ASLR.  Look for a '*' inside the template argument list.
      int depth = 0;
      for (std::size_t i = k + 1; i <= fn.body_end && i < n_; ++i) {
        if (t_[i].kind != Tok::Punct) continue;
        const std::string& p = t_[i].text;
        if (p == "<")
          ++depth;
        else if (p == ">")
          --depth;
        else if (p == ">>")
          depth -= 2;
        else if (p == "<<")
          depth += 2;
        else if (p == "*" && depth >= 1) {
          add("std::hash over a pointer type");
          return;
        }
        if (depth <= 0) return;
      }
    }
  }

  // -------------------------------------------------------------------------
  // Member-declaration analysis (one ';'-terminated statement at class
  // scope, function definitions already consumed elsewhere).
  // -------------------------------------------------------------------------

  bool stmt_has_ident(const std::vector<std::size_t>& stmt,
                      const char* text) const {
    for (std::size_t k : stmt)
      if (t_[k].kind == Tok::Ident && t_[k].text == text) return true;
    return false;
  }

  void analyze_member(std::vector<std::size_t> stmt, ClassInfo& cls) {
    // Strip access labels glued to the front (`public :`).
    while (stmt.size() >= 2 && t_[stmt[0]].kind == Tok::Ident &&
           (t_[stmt[0]].text == "public" || t_[stmt[0]].text == "private" ||
            t_[stmt[0]].text == "protected") &&
           t_[stmt[1]].text == ":") {
      stmt.erase(stmt.begin(), stmt.begin() + 2);
    }
    if (stmt.empty()) return;
    const std::string& first = t_[stmt[0]].text;
    if (first == "using" || first == "typedef" || first == "friend" ||
        first == "static" || first == "template" || first == "class" ||
        first == "struct" || first == "enum" || first == "union" ||
        first == "namespace" || first == "operator" || first == "explicit" ||
        first == "virtual")
      return;

    // FEMTO_GUARDED_BY annotation: the member name is the identifier just
    // before the macro; the guard is the identifier inside its parens.
    for (std::size_t s = 0; s < stmt.size(); ++s) {
      if (t_[stmt[s]].kind == Tok::Ident &&
          t_[stmt[s]].text == "FEMTO_GUARDED_BY") {
        MemberInfo m;
        if (s > 0 && t_[stmt[s - 1]].kind == Tok::Ident)
          m.name = t_[stmt[s - 1]].text;
        m.line = t_[stmt[s]].line;
        if (s + 2 < stmt.size() && t_[stmt[s + 2]].kind == Tok::Ident)
          m.guard = t_[stmt[s + 2]].text;
        if (!m.name.empty()) cls.members.push_back(std::move(m));
        return;
      }
    }

    if (stmt_has_ident(stmt, "operator")) return;

    // Declarator: the last depth-0 identifier before any top-level
    // initializer.  Angle brackets nest only when opened after an
    // identifier (template argument lists).  A depth-0 '(' directly after
    // an identifier means this is a method *declaration*, not a member.
    int paren = 0, angle = 0;
    std::size_t declarator = stmt.size();
    std::size_t cut = stmt.size();
    for (std::size_t s = 0; s < stmt.size(); ++s) {
      const Token& tk = t_[stmt[s]];
      if (tk.kind == Tok::Punct) {
        const std::string& p = tk.text;
        if (p == "(" || p == "[") {
          if (p == "(" && paren == 0 && angle == 0 && s > 0 &&
              t_[stmt[s - 1]].kind == Tok::Ident)
            return;  // function declaration
          ++paren;
        } else if (p == ")" || p == "]")
          --paren;
        else if (p == "<" && s > 0 && t_[stmt[s - 1]].kind == Tok::Ident)
          ++angle;
        else if (p == ">" && angle > 0)
          --angle;
        else if (p == ">>" && angle > 0)
          angle = angle >= 2 ? angle - 2 : 0;
        else if (p == "=" && paren == 0 && angle == 0) {
          cut = s;
          break;
        }
      }
    }
    paren = angle = 0;
    for (std::size_t s = 0; s < cut; ++s) {
      const Token& tk = t_[stmt[s]];
      if (tk.kind == Tok::Punct) {
        const std::string& p = tk.text;
        if (p == "(" || p == "[")
          ++paren;
        else if (p == ")" || p == "]")
          --paren;
        else if (p == "<" && s > 0 && t_[stmt[s - 1]].kind == Tok::Ident)
          ++angle;
        else if (p == ">" && angle > 0)
          --angle;
        else if (p == ">>" && angle > 0)
          angle = angle >= 2 ? angle - 2 : 0;
      } else if (tk.kind == Tok::Ident && paren == 0 && angle == 0) {
        declarator = s;
      }
    }
    if (declarator >= cut) return;
    // A declarator directly followed by '(' is a function declaration.
    if (declarator + 1 < stmt.size() && t_[stmt[declarator + 1]].text == "(")
      return;

    const std::string name = t_[stmt[declarator]].text;
    const int line = t_[stmt[declarator]].line;
    if (stmt_has_ident(stmt, "mutex")) {
      cls.mutexes.push_back(name);
      return;
    }
    // Synchronisation-adjacent types manage their own thread safety (or,
    // for std::thread handles, are owned by ctor/dtor alone).
    if (stmt_has_ident(stmt, "condition_variable") ||
        stmt_has_ident(stmt, "condition_variable_any") ||
        stmt_has_ident(stmt, "atomic") || stmt_has_ident(stmt, "thread") ||
        stmt_has_ident(stmt, "jthread"))
      return;
    // A const member (not a pointer-to-const) is immutable state.
    bool has_star = false;
    for (std::size_t k : stmt)
      if (t_[k].text == "*") has_star = true;
    if (first == "const" && !has_star) return;

    MemberInfo m;
    m.name = name;
    m.line = line;
    cls.members.push_back(std::move(m));
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Source queries.
// ---------------------------------------------------------------------------

bool Source::in_parallel_engine() const {
  return rel.compare(0, 9, "parallel/") == 0 ||
         path.find("src/parallel/") != std::string::npos;
}

bool Source::suppressed(const std::string& rule, int line) const {
  // Mark EVERY matching directive used (overlapping duplicates are both
  // "doing the job"; only directives that match no finding at all are
  // stale), then report whether any matched.
  bool hit = false;
  for (const AllowDirective& d : allow_directives) {
    if (d.rule != rule) continue;
    if (d.file_scope || (line >= d.line && line <= d.end_line + 3)) {
      d.used = true;
      hit = true;
    }
  }
  return hit;
}

std::set<std::string> Source::expected_rules() const {
  std::set<std::string> out;
  const std::string tag = "femtolint-expect:";
  for (const Comment& c : lx.comments) {
    for (std::size_t p = c.text.find(tag); p != std::string::npos;
         p = c.text.find(tag, p + 1)) {
      std::istringstream is(c.text.substr(p + tag.size()));
      std::string id;
      while (is >> id) {
        while (!id.empty() && (id.back() == ',' || id.back() == '.'))
          id.pop_back();
        if (!id.empty()) out.insert(id);
      }
    }
  }
  out.erase("clean");
  return out;
}

// ---------------------------------------------------------------------------
// Parsing.
// ---------------------------------------------------------------------------

Source parse_source(std::string path, const std::string& text) {
  Source s;
  s.path = std::move(path);
  const std::vector<std::string> comps = split_path(s.path);
  for (std::size_t i = comps.size(); i-- > 0;) {
    if (comps[i] == "src" && i + 1 < comps.size()) {
      for (std::size_t k = i + 1; k < comps.size(); ++k) {
        if (!s.rel.empty()) s.rel += '/';
        s.rel += comps[k];
      }
      break;
    }
  }
  s.lx = lex(text);

  // Suppressions: `femtolint: allow(<rule>)` / `femtolint: allow-file(...)`.
  for (const Comment& c : s.lx.comments)
    for (const bool file_scope : {false, true}) {
      const std::string tag =
          file_scope ? "femtolint: allow-file(" : "femtolint: allow(";
      for (std::size_t p = c.text.find(tag); p != std::string::npos;
           p = c.text.find(tag, p + 1)) {
        const std::size_t b = p + tag.size();
        const std::size_t e = c.text.find(')', b);
        if (e != std::string::npos)
          s.allow_directives.push_back(
              {c.line, c.end_line, c.text.substr(b, e - b), file_scope});
      }
    }

  s.future_names = find_future_names(s.lx.tokens);
  Extractor(s.lx.tokens, s).run();
  return s;
}

Source load_source(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return parse_source(path, os.str());
}

// ---------------------------------------------------------------------------
// The shared call graph.
// ---------------------------------------------------------------------------

const std::vector<std::size_t>& CallGraph::named(
    const std::string& name) const {
  static const std::vector<std::size_t> kNone;
  const auto it = by_name.find(name);
  return it == by_name.end() ? kNone : it->second;
}

std::string CallGraph::display(std::size_t v) const {
  const FunctionInfo& fn = *nodes[v].fn;
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

void link(Program& prog) {
  CallGraph& g = prog.graph;
  g = CallGraph{};
  for (const Source& s : prog.sources)
    for (const FunctionInfo& fn : s.functions) {
      g.by_name[fn.name].push_back(g.nodes.size());
      g.nodes.push_back({&s, &fn, {}, {}});
    }
  for (std::size_t v = 0; v < g.nodes.size(); ++v)
    for (const std::string& callee : g.nodes[v].fn->callees) {
      if (is_ubiquitous_name(callee)) continue;
      for (std::size_t j : g.named(callee)) {
        if (j == v) continue;
        g.nodes[v].callees.push_back(j);
        g.nodes[j].callers.push_back(v);
      }
    }
}

}  // namespace femtolint
