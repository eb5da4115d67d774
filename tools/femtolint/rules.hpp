#pragma once
// femtolint rules.
//
// Per-file rules run independently on one Source:
//
//   race-shared-accum         no compound assignment into a captured target
//                             that the body's own chunk loop does not index,
//                             inside any parallel_for* / parallel_reduce_n
//                             body, lock or no lock
//   thread-local-in-parallel  no function-scope thread_local named inside a
//                             launch body
//   raw-intrinsics            vendor SIMD only under src/simd/
//
// Whole-program passes run once over the Program and its CallGraph:
//
//   kernel-traffic   a function that launches a kernel (possibly via
//                    helpers) must charge flops::add_bytes somewhere on
//                    every call chain reaching the launch
//   guarded-by       FEMTO_GUARDED_BY(mu) members only touched in methods
//                    that visibly take `mu`
//   mutex-annotate   a mutex-owning class must annotate every shared
//                    mutable member (or mark it const / atomic)
//   nondet-in-kernel no unblessed nondeterminism source on or beside a
//                    kernel-launching call chain

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

/// race-shared-accum, thread-local-in-parallel, raw-intrinsics.
void run_file_rules(const Source& s, std::vector<Finding>& out);

/// kernel-traffic, guarded-by, mutex-annotate.
void run_program_rules(const Program& prog, std::vector<Finding>& out);

/// Census of the effect pass, reported by `femtolint --json`.
struct EffectStats {
  std::size_t functions = 0;       // functions in the call graph
  std::size_t launching = 0;       // launch a kernel (transitively)
  std::size_t nondet_sources = 0;  // hold a nondeterminism source (directly)
};

/// nondet-in-kernel over the call graph; fills @p stats when non-null.
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
