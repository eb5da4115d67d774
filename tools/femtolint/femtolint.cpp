// femtolint: repo-specific static analysis for the femtoverse source tree.
//
// v2 is a token-level engine (lexer.cpp + model.cpp + rules.cpp) instead of
// the v1 line-regex scanner: comments, string/char/raw-string literals and
// preprocessor directives are lexed properly, every file is parsed into a
// symbol model (functions, call edges, classes, members, includes), and
// three whole-program passes run over the combined model.  See DESIGN.md §9.
//
// Per-file rules (each with a negative fixture in tests/lint/):
//   race-shared-accum  no compound assignment to captured scalars inside
//                      parallel_for / parallel_for_chunked bodies;
//                      reductions must go through parallel_reduce*
//   fp-accumulation-discipline
//                      inside parallel_reduce* chunk bodies, FP partials
//                      accumulate into the per-chunk slot (or a local),
//                      never a captured scalar: the fixed chunk-order
//                      combination is what makes sums reproducible
//   thread-local-in-parallel
//                      no function-scope thread_local named inside a
//                      parallel_for / parallel_for_chunked /
//                      parallel_reduce* body: a lambda does not capture
//                      it, so each pool worker reads its own instance
//   no-std-rand        no std::rand / srand / rand(): kernels must use the
//                      counter-based Xoshiro256 (reproducible per site)
//   no-naked-new       no naked new / delete in kernel code; containers or
//                      smart pointers own memory
//   pragma-once        headers start with #pragma once
//   header-hygiene     headers declare namespace femto and never say
//                      `using namespace`
//   cast               reinterpret_cast / const_cast require an explicit
//                      suppression stating why the cast is safe
//   raw-intrinsics     vendor SIMD intrinsics (_mm*, NEON v*q_*) and their
//                      headers are forbidden outside src/simd/; kernels use
//                      the portable simd::Vec layer
//
// Whole-program passes:
//   kernel-traffic     transitive: a function that launches a parallel
//                      kernel (directly or through helpers) must charge
//                      flops::add_bytes somewhere on every call chain
//                      (src/parallel, the execution engine, is exempt)
//   layering           the #include graph of src/ must conform to the
//                      module DAG declared in layers.def (--layers)
//   trace-category     every FEMTO_TRACE_SCOPE / trace_flow_out /
//                      trace_flow_in category argument is a string literal
//                      declared in trace_categories.def
//                      (--trace-categories); the taxonomy file IS the span
//                      namespace, so new categories get design-reviewed
//   guarded-by         FEMTO_GUARDED_BY(mu) members are only touched in
//                      methods that visibly take `mu`
//   mutex-annotate     mutex-owning classes annotate all shared mutable
//                      members
//
// Effect-inference passes (v3, DESIGN.md §13): per-function effect sets
// (launches_parallel, fp_accumulates, nondet_source, unordered_iteration,
// emits_output) extracted per file and propagated transitively over the
// name-based call graph:
//   nondet-in-kernel   no unblessed nondeterminism source (std::chrono
//                      *::now, get_id, std::random_device, getenv, pointer
//                      hashing) on or beside a kernel-launching call
//                      chain; FEMTO_NONDET_OK(reason) blesses a function
//   unordered-iteration-emit
//                      a range-for over an unordered_{map,set,...} whose
//                      body writes output (directly or via a transitively
//                      emitting callee) must iterate a sorted view
//   unused-suppression a stale allow / allow-file directive (one that no
//                      longer suppresses anything) is itself a finding
//
// Concurrency passes (v4, DESIGN.md §14): lockset propagation over the same
// call graph, plus comm-protocol checking:
//   lock-order-cycle   a cycle in the global mutex acquisition-order graph
//                      (each edge witnessed by a call chain) is an
//                      interleaving away from deadlock
//   blocking-call-under-lock
//                      cv waits, joins, future gets, pool launches and
//                      femtocomm calls reached while a lockset is held;
//                      FEMTO_BLOCKING_OK(reason) blesses a function
//   unpaired-send      a call-graph root whose extent sends but never
//                      receives (or vice versa)
//   collective-divergence
//                      a barrier/allreduce/broadcast reachable only under a
//                      rank-dependent branch
//   recv-before-send   a blocking receive lexically before the matching
//                      same-tag send in one body (rendezvous deadlock);
//                      FEMTO_PROTOCOL_OK(reason) blesses asymmetric steps
//
// Suppression: `// femtolint: allow(<rule>): reason` on the offending line
// or within the three lines above it, or
// `// femtolint: allow-file(<rule>): reason` anywhere in the file.
// Suppressions live in comments (the lexer keeps them out of the token
// stream), so commented-out code can never trip a rule.
//
// Usage:
//   femtolint [--layers FILE] [--trace-categories FILE] [--json]
//             [--threads N] [--baseline FILE | --write-baseline FILE]
//             <dir-or-file>...
//   femtolint [--layers FILE] [--trace-categories FILE] --self-test <dir>
//   femtolint [--layers FILE] --lock-graph <dir-or-file>...
//
// --write-baseline snapshots the current findings (rule\tfile\tmessage, no
// line numbers, so unrelated edits do not churn it); --baseline filters the
// snapshot out of a later run and fails only on NEW findings.  --lock-graph
// prints the global mutex order as Graphviz DOT (CI uploads it as an
// artifact).
//
// The scan is parallelized over files with the femtopar thread pool;
// findings are sorted (file, line, rule, message), so output is
// deterministic for any thread count.

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "concurrency.hpp"
#include "model.hpp"
#include "rules.hpp"

namespace {

namespace fs = std::filesystem;
using femtolint::Finding;
using femtolint::LayerSpec;
using femtolint::Program;
using femtolint::Source;
using femtolint::TraceCategorySpec;

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

// Parse every file and run the per-file rules, parallelized over files.
// Each worker writes only its own slots, so the result is deterministic.
Program scan(const std::vector<fs::path>& files, std::size_t threads,
             std::vector<Finding>& findings) {
  Program prog;
  prog.sources.resize(files.size());
  std::vector<std::vector<Finding>> per_file(files.size());
  femto::par::ThreadPool pool(threads);
  // femtolint: allow(kernel-traffic): lint scan is file I/O, not a numerics
  // kernel -- there is no memory-traffic model to charge.
  pool.parallel_for(0, files.size(), [&](std::size_t i) {
    prog.sources[i] = femtolint::load_source(files[i].string());
    femtolint::run_file_rules(prog.sources[i], per_file[i]);
  });
  for (auto& v : per_file)
    findings.insert(findings.end(), v.begin(), v.end());
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
                const femtolint::ConcurrencyStats& cs, double lockorder_ms,
                double protocol_ms) {
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
      "  \"protocol_pass_ms\": %.3f,\n"
      "  \"effects\": {\"functions\": %zu, \"launching\": %zu, "
      "\"nondet_sources\": %zu, \"emitting\": %zu, \"fp_accumulating\": "
      "%zu, \"unordered_names\": %zu},\n",
      effect_pass_ms, lockorder_ms, protocol_ms, es.functions, es.launching,
      es.nondet_sources, es.emitting, es.fp_accumulating,
      es.unordered_names);
  std::printf(
      "  \"concurrency\": {\"mutexes\": %zu, \"lock_edges\": %zu, "
      "\"blocking_fns\": %zu, \"comm_fns\": %zu, \"comm_roots\": %zu}\n}\n",
      cs.mutexes, cs.lock_edges, cs.blocking_fns, cs.comm_fns,
      cs.comm_roots);
}

// ---------------------------------------------------------------------------
// Baseline mode: a snapshot of accepted findings, keyed by
// rule\tfile\tmessage (line numbers excluded so unrelated edits above a
// finding do not churn the file).  --baseline filters the snapshot out of
// the current run; only NEW findings fail the build.
// ---------------------------------------------------------------------------

std::string baseline_key(const Finding& f) {
  return f.rule + "\t" + f.file + "\t" + f.message;
}

bool load_baseline(const std::string& path, std::set<std::string>& keys) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  return true;
}

bool write_baseline(const std::string& path,
                    const std::vector<Finding>& all) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# femtolint baseline: rule\\tfile\\tmessage, one accepted finding "
         "per line.\n"
      << "# Regenerate with `femtolint --write-baseline " << path << " ...`;"
      << " runs with --baseline fail only on findings not listed here.\n";
  for (const Finding& f : all) out << baseline_key(f) << "\n";
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Self-test over the negative fixtures: every rule named by a
// `// femtolint-expect:` directive must fire on its fixture and nothing
// else may.  Whole-program passes run with the fixture as a one-file
// program, so the cross-file rules are exercised too.
// ---------------------------------------------------------------------------

int self_test(const std::string& dir, const LayerSpec& spec,
              const TraceCategorySpec& tc) {
  int failures = 0;
  int n_fixtures = 0;
  if (!spec.loaded)
    std::printf(
        "note: no --layers file given; layering fixtures are skipped\n");
  if (!tc.loaded)
    std::printf(
        "note: no --trace-categories file given; trace-category fixtures "
        "are skipped\n");
  for (const fs::path& p : collect({dir})) {
    const Source s = femtolint::load_source(p.string());
    std::set<std::string> want = s.expected_rules();
    if (!spec.loaded && want.count("layering") != 0) continue;
    if (!tc.loaded && want.count("trace-category") != 0) continue;
    bool has_directive = false;
    for (const auto& c : s.lx.comments)
      if (c.text.find("femtolint-expect:") != std::string::npos)
        has_directive = true;
    if (!has_directive) continue;
    ++n_fixtures;
    std::vector<Finding> findings;
    Program prog;
    prog.sources.push_back(s);
    // Rules mark suppressions used on prog's copy; run everything against
    // it so the unused-suppression audit sees the same marks.
    femtolint::run_file_rules(prog.sources.front(), findings);
    femtolint::run_program_rules(prog, spec, findings);
    femtolint::run_trace_category_rule(prog, tc, findings);
    femtolint::run_effect_rules(prog, findings);
    femtolint::run_lockset_pass(prog, findings);
    femtolint::run_protocol_pass(prog, findings);
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
               "usage: femtolint [--layers FILE] [--trace-categories FILE]\n"
               "                 [--json] [--threads N]\n"
               "                 [--baseline FILE | --write-baseline FILE] "
               "<dir-or-file>...\n"
               "       femtolint [--layers FILE] [--trace-categories FILE] "
               "--self-test <fixtures-dir>\n"
               "       femtolint [--layers FILE] --lock-graph "
               "<dir-or-file>...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  LayerSpec spec;
  TraceCategorySpec tc;
  bool json = false;
  bool lock_graph = false;
  std::size_t threads = 0;  // 0 = femtopar default (hardware concurrency)
  std::string self_test_dir;
  std::string baseline_path;
  std::string write_baseline_path;
  bool want_self_test = false;
  std::vector<std::string> roots;

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--layers") {
      if (i + 1 >= args.size()) return usage();
      std::string err;
      if (!femtolint::load_layers(args[++i], spec, err)) {
        std::fprintf(stderr, "femtolint: %s\n", err.c_str());
        return 2;
      }
    } else if (a == "--trace-categories") {
      if (i + 1 >= args.size()) return usage();
      std::string err;
      if (!femtolint::load_trace_categories(args[++i], tc, err)) {
        std::fprintf(stderr, "femtolint: %s\n", err.c_str());
        return 2;
      }
    } else if (a == "--json") {
      json = true;
    } else if (a == "--lock-graph") {
      lock_graph = true;
    } else if (a == "--threads") {
      if (i + 1 >= args.size()) return usage();
      threads = static_cast<std::size_t>(std::stoul(args[++i]));
    } else if (a == "--baseline") {
      if (i + 1 >= args.size()) return usage();
      baseline_path = args[++i];
    } else if (a == "--write-baseline") {
      if (i + 1 >= args.size()) return usage();
      write_baseline_path = args[++i];
    } else if (a == "--self-test") {
      if (i + 1 >= args.size()) return usage();
      want_self_test = true;
      self_test_dir = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      roots.push_back(a);
    }
  }
  if (!baseline_path.empty() && !write_baseline_path.empty()) return usage();

  if (want_self_test) {
    if (!roots.empty()) return usage();
    return self_test(self_test_dir, spec, tc);
  }
  if (roots.empty()) return usage();

  const std::vector<fs::path> files = collect(roots);
  std::vector<Finding> all;
  const Program prog = scan(files, threads, all);

  if (lock_graph) {
    // Graph emission only: print the mutex acquisition-order DOT and exit
    // clean (CI uploads the output as an artifact; findings come from the
    // normal run).
    std::fputs(femtolint::lock_graph_dot(prog).c_str(), stdout);
    return 0;
  }

  femtolint::run_program_rules(prog, spec, all);
  femtolint::run_trace_category_rule(prog, tc, all);
  femtolint::EffectStats es;
  const auto e0 = std::chrono::steady_clock::now();
  femtolint::run_effect_rules(prog, all, &es);
  const auto e1 = std::chrono::steady_clock::now();
  femtolint::ConcurrencyStats cs;
  femtolint::run_lockset_pass(prog, all, &cs);
  const auto e2 = std::chrono::steady_clock::now();
  femtolint::run_protocol_pass(prog, all, &cs);
  const auto e3 = std::chrono::steady_clock::now();
  const auto ms = [](auto a, auto b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
  };
  const double effect_pass_ms = ms(e0, e1);
  const double lockorder_pass_ms = ms(e1, e2);
  const double protocol_pass_ms = ms(e2, e3);
  femtolint::run_unused_suppression_rule(prog, all);
  femtolint::sort_findings(all);

  if (!write_baseline_path.empty()) {
    if (!write_baseline(write_baseline_path, all)) {
      std::fprintf(stderr, "femtolint: cannot write baseline %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::printf("femtolint: wrote %zu finding(s) to baseline %s\n",
                all.size(), write_baseline_path.c_str());
    return 0;
  }
  std::size_t suppressed_by_baseline = 0;
  if (!baseline_path.empty()) {
    std::set<std::string> keys;
    if (!load_baseline(baseline_path, keys)) {
      std::fprintf(stderr, "femtolint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::vector<Finding> fresh;
    for (Finding& f : all) {
      if (keys.count(baseline_key(f)) != 0)
        ++suppressed_by_baseline;
      else
        fresh.push_back(std::move(f));
    }
    all = std::move(fresh);
  }

  if (json) {
    print_json(all, files.size(), es, effect_pass_ms, cs, lockorder_pass_ms,
               protocol_pass_ms);
  } else {
    for (const Finding& f : all)
      std::printf("%s:%d: [%s] %s\n", f.file.c_str(), f.line, f.rule.c_str(),
                  f.message.c_str());
    if (suppressed_by_baseline > 0)
      std::printf("femtolint: %zu new finding(s) in %zu file(s) "
                  "(%zu baselined)\n",
                  all.size(), files.size(), suppressed_by_baseline);
    else
      std::printf("femtolint: %zu finding(s) in %zu file(s)\n", all.size(),
                  files.size());
  }
  return all.empty() ? 0 : 1;
}
