// femtolint: repo-specific static analysis for the femtoverse source tree.
//
// A token-level engine (lexer.cpp + model.cpp): comments, string/char/
// raw-string literals and preprocessor directives are lexed properly,
// every file is parsed into a symbol model (functions, call edges,
// classes, members), and the whole-program passes share one name-based
// call graph built once over the combined model.  See DESIGN.md §8, which
// also names the bug or the tested contract behind each rule.
//
// Per-file rules (rules.cpp):
//   race-shared-accum  no compound assignment into a captured target that
//                      the body's own chunk loop does not index, inside
//                      any parallel_for* / parallel_reduce_n body, with or
//                      without a lock held: partials must combine through
//                      parallel_reduce_n's fixed chunk order
//   thread-local-in-parallel
//                      no function-scope thread_local named inside a launch
//                      body: a lambda does not capture it, so each pool
//                      worker reads its own instance
//   raw-intrinsics     vendor SIMD intrinsics (_mm*, NEON v*q_*) and their
//                      headers are forbidden outside src/simd/
//
// Whole-program passes (rules.cpp, concurrency.cpp):
//   kernel-traffic     a function that launches a parallel kernel (directly
//                      or through helpers) must charge flops::add_bytes
//                      somewhere on every call chain (src/parallel, the
//                      execution engine, is exempt)
//   guarded-by         FEMTO_GUARDED_BY(mu) members are only touched in
//                      methods that visibly take `mu`
//   mutex-annotate     mutex-owning classes annotate all shared mutable
//                      members
//   nondet-in-kernel   no unblessed nondeterminism source (clock reads,
//                      thread ids, std::random_device, std::rand / srand,
//                      getenv, pointer hashing) on or beside a
//                      kernel-launching call chain; FEMTO_NONDET_OK(reason)
//                      blesses a function
//   lock-order-cycle   a cycle in the global mutex acquisition-order graph
//                      (each edge witnessed by a call chain)
//   blocking-call-under-lock
//                      cv waits, joins, sleeps, future gets, pool launches
//                      and femtocomm calls reached while a lockset is held
//   unused-suppression a stale allow / allow-file directive (one that no
//                      longer suppresses anything) is itself a finding
//
// Suppression: `// femtolint: allow(<rule>): reason` on the offending line
// or within the three lines above it, or
// `// femtolint: allow-file(<rule>): reason` anywhere in the file.
//
// Usage:
//   femtolint [--json] <dir-or-file>...
//   femtolint --self-test <dir>
//   femtolint --lock-graph <dir-or-file>...
//
// --lock-graph prints the global mutex order as Graphviz DOT (CI uploads
// it as an artifact).  Findings are sorted (file, line, rule, message).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "concurrency.hpp"
#include "model.hpp"
#include "rules.hpp"

namespace {

namespace fs = std::filesystem;
using femtolint::Finding;
using femtolint::Program;
using femtolint::Source;

bool lintable(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".cpp" || e == ".hpp";
}

std::vector<fs::path> collect(const std::vector<std::string>& roots) {
  std::vector<fs::path> files;
  for (const auto& r : roots) {
    const fs::path root(r);
    if (fs::is_regular_file(root)) {
      if (lintable(root)) files.push_back(root);
      continue;
    }
    for (const auto& e : fs::recursive_directory_iterator(root)) {
      if (e.is_regular_file() && lintable(e.path())) files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

// Parse every file and run the per-file rules.
Program scan(const std::vector<fs::path>& files,
             std::vector<Finding>& findings) {
  Program prog;
  prog.sources.reserve(files.size());
  for (const fs::path& f : files) {
    prog.sources.push_back(femtolint::load_source(f.string()));
    femtolint::run_file_rules(prog.sources.back(), findings);
  }
  femtolint::link(prog);
  return prog;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json(const std::vector<Finding>& all, std::size_t n_files,
                const femtolint::EffectStats& es, double effect_pass_ms,
                const femtolint::ConcurrencyStats& cs, double lockorder_ms) {
  std::printf("{\n  \"files\": %zu,\n  \"findings\": [", n_files);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Finding& f = all[i];
    std::printf(
        "%s\n    {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", "
        "\"message\": \"%s\"}",
        i == 0 ? "" : ",", json_escape(f.file).c_str(), f.line,
        f.rule.c_str(), json_escape(f.message).c_str());
  }
  std::printf("%s],\n", all.empty() ? "" : "\n  ");
  std::printf(
      "  \"effect_pass_ms\": %.3f,\n"
      "  \"lockorder_pass_ms\": %.3f,\n"
      "  \"effects\": {\"functions\": %zu, \"launching\": %zu, "
      "\"nondet_sources\": %zu},\n",
      effect_pass_ms, lockorder_ms, es.functions, es.launching,
      es.nondet_sources);
  std::printf(
      "  \"concurrency\": {\"mutexes\": %zu, \"lock_edges\": %zu, "
      "\"blocking_fns\": %zu}\n}\n",
      cs.mutexes, cs.lock_edges, cs.blocking_fns);
}

// ---------------------------------------------------------------------------
// Self-test over the negative fixtures: every rule named by a
// `// femtolint-expect:` directive must fire on its fixture and nothing
// else may.  Whole-program passes run with the fixture as a one-file
// program, so the cross-file rules are exercised too.
// ---------------------------------------------------------------------------

int self_test(const std::string& dir) {
  int failures = 0;
  int n_fixtures = 0;
  for (const fs::path& p : collect({dir})) {
    const Source s = femtolint::load_source(p.string());
    const std::set<std::string> want = s.expected_rules();
    bool has_directive = false;
    for (const auto& c : s.lx.comments)
      if (c.text.find("femtolint-expect:") != std::string::npos)
        has_directive = true;
    if (!has_directive) continue;
    ++n_fixtures;
    std::vector<Finding> findings;
    Program prog;
    prog.sources.push_back(s);
    femtolint::link(prog);
    // Rules mark suppressions used on prog's copy; run everything against
    // it so the unused-suppression audit sees the same marks.
    femtolint::run_file_rules(prog.sources.front(), findings);
    femtolint::run_program_rules(prog, findings);
    femtolint::run_effect_rules(prog, findings);
    femtolint::run_lockset_pass(prog, findings);
    femtolint::run_unused_suppression_rule(prog, findings);
    std::set<std::string> got;
    for (const Finding& f : findings) got.insert(f.rule);
    if (want == got) {
      std::printf("ok   %s\n", p.string().c_str());
      continue;
    }
    ++failures;
    std::printf("FAIL %s\n", p.string().c_str());
    for (const auto& r : want)
      if (got.count(r) == 0)
        std::printf("     expected rule did not fire: %s\n", r.c_str());
    for (const auto& r : got)
      if (want.count(r) == 0)
        std::printf("     unexpected rule fired: %s\n", r.c_str());
  }
  if (n_fixtures == 0) {
    std::fprintf(stderr, "femtolint --self-test: no fixtures under %s\n",
                 dir.c_str());
    return 2;
  }
  std::printf("femtolint self-test: %d fixture(s), %d failure(s)\n",
              n_fixtures, failures);
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: femtolint [--json] <dir-or-file>...\n"
               "       femtolint --self-test <fixtures-dir>\n"
               "       femtolint --lock-graph <dir-or-file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool json = false;
  bool lock_graph = false;
  std::string self_test_dir;
  std::vector<std::string> roots;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json") {
      json = true;
    } else if (a == "--lock-graph") {
      lock_graph = true;
    } else if (a == "--self-test") {
      if (i + 1 >= args.size()) return usage();
      self_test_dir = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      roots.push_back(a);
    }
  }

  if (!self_test_dir.empty()) {
    if (!roots.empty()) return usage();
    return self_test(self_test_dir);
  }
  if (roots.empty()) return usage();

  const std::vector<fs::path> files = collect(roots);
  std::vector<Finding> all;
  const Program prog = scan(files, all);

  if (lock_graph) {
    // Graph emission only: print the mutex acquisition-order DOT and exit
    // clean (findings come from the normal run).
    std::fputs(femtolint::lock_graph_dot(prog).c_str(), stdout);
    return 0;
  }

  femtolint::run_program_rules(prog, all);
  femtolint::EffectStats es;
  const auto e0 = std::chrono::steady_clock::now();
  femtolint::run_effect_rules(prog, all, &es);
  const auto e1 = std::chrono::steady_clock::now();
  femtolint::ConcurrencyStats cs;
  femtolint::run_lockset_pass(prog, all, &cs);
  const auto e2 = std::chrono::steady_clock::now();
  femtolint::run_unused_suppression_rule(prog, all);
  femtolint::sort_findings(all);

  if (json) {
    const auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    print_json(all, files.size(), es, ms(e0, e1), cs, ms(e1, e2));
  } else {
    for (const Finding& f : all)
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    std::printf("femtolint: %zu finding(s) in %zu file(s)\n", all.size(),
                files.size());
  }
  return all.empty() ? 0 : 1;
}
