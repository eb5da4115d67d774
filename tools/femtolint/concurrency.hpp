#pragma once
// femtolint lockset pass (DESIGN.md §8).
//
// A per-body token walk tracks which mutexes are held at every call site
// (RAII guards, explicit .lock()/.unlock(), condition-variable waits that
// release their guard).  Acquisitions nested under a held mutex -- directly
// or through any callee chain of the shared CallGraph -- become edges of
// the global lock-order graph; a cycle in that graph is an interleaving
// away from deadlock (rule: lock-order-cycle).  Blocking operations (cv
// waits, joins, sleeps, future gets, pool launches, femtocomm calls)
// reached while the lockset is non-empty are flagged (rule:
// blocking-call-under-lock).
//
// Name-based like every femtolint closure: no overload resolution, no
// aliasing, traded for a whole-tree scan that runs on every tier-1 build.

#include <string>
#include <vector>

#include "model.hpp"
#include "rules.hpp"

namespace femtolint {

/// Census of the lock model, reported by `femtolint --json`.
struct ConcurrencyStats {
  std::size_t mutexes = 0;       // distinct mutex identities seen acquired
  std::size_t lock_edges = 0;    // edges in the global lock-order graph
  std::size_t blocking_fns = 0;  // functions that block (transitively)
};

/// lock-order-cycle + blocking-call-under-lock; fills @p stats when
/// non-null.
void run_lockset_pass(const Program& prog, std::vector<Finding>& out,
                      ConcurrencyStats* stats = nullptr);

/// The global mutex lock-order graph in Graphviz DOT form (--lock-graph):
/// one node per mutex identity, one edge per observed acquisition order,
/// labelled with the witness call chain.  CI uploads it as an artifact so
/// the canonical order in DESIGN.md §8 can be diffed against reality.
std::string lock_graph_dot(const Program& prog);

}  // namespace femtolint
