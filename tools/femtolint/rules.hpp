#pragma once
// femtolint v2 rules.
//
// Per-file rules run independently on one Source (parallelized over files);
// whole-program passes run once over the full Program:
//
//   layering        #include graph of src/ vs. the declared module DAG in
//                   layers.def (cycle-free, every cross-module edge declared)
//   kernel-traffic  transitive: a function that launches a kernel (possibly
//                   via helpers) must charge flops::add_bytes somewhere on
//                   every call chain reaching the launch
//   guarded-by      FEMTO_GUARDED_BY(mu) members only touched in methods
//                   that visibly take `mu`
//   mutex-annotate  a mutex-owning class must annotate every shared mutable
//                   member (or mark it const / atomic)

#include <map>
#include <set>
#include <string>
#include <vector>

#include "model.hpp"

namespace femtolint {

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

/// Module DAG declared in layers.def.  Line syntax:
///   # comment
///   module <name>: <allowed-dep> <allowed-dep> ...
///   file <src-relative-path> <module>       (reassign one file)
struct LayerSpec {
  bool loaded = false;
  std::string path;  // for error reporting
  std::set<std::string> modules;
  std::map<std::string, std::set<std::string>> allowed;   // module -> deps
  std::map<std::string, std::string> file_overrides;      // rel path -> module
};

/// Parse @p path into @p spec; false + @p err on I/O or syntax error.
bool load_layers(const std::string& path, LayerSpec& spec, std::string& err);

/// Trace-category taxonomy declared in trace_categories.def.  Line syntax:
///   # comment
///   category <name>
/// Every FEMTO_TRACE_SCOPE / trace_flow_out / trace_flow_in category
/// argument must be a string literal naming one of these -- the taxonomy
/// file IS the span namespace, so a new category gets design-reviewed the
/// same way a new layer edge does.
struct TraceCategorySpec {
  bool loaded = false;
  std::string path;  // for error reporting
  std::set<std::string> categories;
};

/// Parse @p path into @p spec; false + @p err on I/O or syntax error.
bool load_trace_categories(const std::string& path, TraceCategorySpec& spec,
                           std::string& err);

/// The trace-category rule (skipped when !spec.loaded).
void run_trace_category_rule(const Program& prog,
                             const TraceCategorySpec& spec,
                             std::vector<Finding>& out);

/// Module a source belongs to ("" if it is outside the module tree).
std::string module_of(const Source& s, const LayerSpec& spec);

/// All single-file rules: race-shared-accum, fp-accumulation-discipline,
/// thread-local-in-parallel, no-std-rand, no-naked-new, pragma-once,
/// header-hygiene, cast, raw-intrinsics.
void run_file_rules(const Source& s, std::vector<Finding>& out);

/// All whole-program passes (layering skipped when !spec.loaded).
void run_program_rules(const Program& prog, const LayerSpec& spec,
                       std::vector<Finding>& out);

/// Whole-program effect census (one entry per direct or transitive
/// holder), reported by `femtolint --json` and BENCH_lint.json.
struct EffectStats {
  std::size_t functions = 0;          // functions in the call graph
  std::size_t launching = 0;          // effect launches_parallel (transitive)
  std::size_t nondet_sources = 0;     // effect nondet_source (direct)
  std::size_t emitting = 0;           // effect emits_output (transitive)
  std::size_t fp_accumulating = 0;    // effect fp_accumulates (direct)
  std::size_t unordered_names = 0;    // distinct unordered-declared names
};

/// Effect inference over the name-based call graph plus the determinism
/// rules built on it: nondet-in-kernel and unordered-iteration-emit
/// (fp-accumulation-discipline is lexical and lives in run_file_rules).
/// Run after run_program_rules; fills @p stats when non-null.
void run_effect_rules(const Program& prog, std::vector<Finding>& out,
                      EffectStats* stats = nullptr);

/// Stale-suppression audit: every allow / allow-file directive that did
/// not suppress a finding is reported.  MUST run last (it reads the `used`
/// marks the other rules leave on directives).
void run_unused_suppression_rule(const Program& prog,
                                 std::vector<Finding>& out);

/// Deterministic order: (file, line, rule, message).
void sort_findings(std::vector<Finding>& v);

}  // namespace femtolint
