#pragma once
// femtocheck invariant layer: checked-build assertions.
//
// FEMTO_ASSERT / FEMTO_CHECK compile to real tests only when the build
// defines FEMTO_CHECKED (the `checked` CMake preset / -DFEMTO_CHECKED=ON).
// In normal builds the condition is parsed but never evaluated, so checks
// can sit on hot paths (field accessors, neighbour lookups) at zero cost.
//
//   FEMTO_ASSERT(cond)       -- hot-path invariant, expression-only message
//   FEMTO_CHECK(cond, msg)   -- invariant with an explanatory message
//
// A failed check prints file:line, the expression, and the message, then
// aborts: checked builds fail fast and loudly instead of feeding corrupt
// indices or non-finite residuals into a fit.  See DESIGN.md §8.
//
// The two femtolint annotations expand to nothing; DESIGN.md §8 lists the
// rules that read them.  FEMTO_GUARDED_BY(mu) is the lock-discipline
// annotation: femtolint's guarded-by rule verifies that an annotated member
// is only touched inside methods that visibly take `mu`, and mutex-annotate
// requires every mutex-owning class to annotate (or const/atomic-qualify)
// its shared mutable members.
//
// FEMTO_NONDET_OK(reason) is the determinism annotation: placed inside a
// function body it declares that the nondeterminism sources in THAT
// function (clock reads, env reads, thread ids, libc RNG, pointer hashing)
// are observational only and can never reach numerics.  femtolint's
// nondet-in-kernel rule treats the function as determinism-clean; without
// the blessing, any such source reachable from a kernel-launching call
// chain is a finding.

#include <atomic>
#include <cstdio>
#include <cstdlib>

// Lock-discipline annotation, checked by femtolint (it never reaches the
// compiler as anything but whitespace).  Placed after the member name:
// `int count_ FEMTO_GUARDED_BY(mu_) = 0;`
#define FEMTO_GUARDED_BY(mu)

// Determinism blessing, checked by femtolint (expands to nothing).  The
// reason is part of the audit trail the same way a `femtolint: allow`
// comment is: say WHY the nondeterminism cannot alter any number a run
// produces.  First statement of the function it blesses:
//   FEMTO_NONDET_OK("telemetry-only wall clock; feeds timers, never data");
#define FEMTO_NONDET_OK(reason)

namespace femto::check {

// Last-gasp observer for failed checks: runs after the diagnostic prints
// and before abort().  The femtoscope flight recorder (obs/blackbox.hpp)
// registers here to dump spans/metrics/queue state -- check sits at the
// bottom of the layer DAG, so the hook is how upper layers observe a
// failure without check depending on them.  The hook must not return
// control flow to the caller's invariants: fail() still aborts whatever
// it does.
using FailHook = void (*)(const char* file, int line, const char* expr,
                          const char* msg);

namespace detail {
inline std::atomic<FailHook>& fail_hook() {
  static std::atomic<FailHook> hook{nullptr};
  return hook;
}
}  // namespace detail

inline void set_fail_hook(FailHook hook) {
  detail::fail_hook().store(hook, std::memory_order_release);
}

[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              const char* msg) {
  std::fprintf(stderr, "FEMTO_CHECK failed: %s:%d: (%s)%s%s\n", file, line,
               expr, (msg != nullptr && msg[0] != '\0') ? " — " : "",
               msg != nullptr ? msg : "");
  std::fflush(stderr);
  // The diagnostic is already out: a hook that itself crashes can only
  // lose the dump, never the message.
  if (FailHook hook = detail::fail_hook().load(std::memory_order_acquire))
    hook(file, line, expr, msg);
  std::abort();
}

}  // namespace femto::check

#if defined(FEMTO_CHECKED)
#define FEMTO_CHECKED_ENABLED 1
#define FEMTO_ASSERT(cond)                                       \
  do {                                                           \
    if (!(cond)) ::femto::check::fail(__FILE__, __LINE__, #cond, ""); \
  } while (0)
#define FEMTO_CHECK(cond, msg)                                     \
  do {                                                             \
    if (!(cond)) ::femto::check::fail(__FILE__, __LINE__, #cond, msg); \
  } while (0)
#else
#define FEMTO_CHECKED_ENABLED 0
// The condition still has to parse (catching bit-rot in the checks
// themselves) but is never evaluated at run time.
#define FEMTO_ASSERT(cond) \
  do {                     \
    if (false) {           \
      (void)(cond);        \
    }                      \
  } while (0)
#define FEMTO_CHECK(cond, msg) \
  do {                         \
    if (false) {               \
      (void)(cond);            \
      (void)(msg);             \
    }                          \
  } while (0)
#endif
