// femtolint-expect: unused-suppression
//
// A suppression that no longer suppresses anything is a lie in the
// source: the violation it pardoned was fixed (or the rule renamed), and
// the stale directive would silently pardon the NEXT violation someone
// introduces within its reach.  femtolint reports stale directives so
// every surviving suppression is load-bearing and its reason current.

#include <vector>

namespace femto {

// femtolint: allow(race-shared-accum): stale -- nothing below launches.
int answer() { return 42; }

}  // namespace femto
