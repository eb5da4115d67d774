#pragma once
// The CPU's spin-wait hint, for loops that poll a flag another core will
// set (the thread pool's workers between launches, DESIGN.md §8).  On x86
// `pause` keeps the polling load from flooding the memory pipeline and
// gives a hyperthread sibling the core; on AArch64 `yield` does the same.
// Elsewhere it is a no-op.  It lives in src/simd/ because it is the one
// per-ISA instruction outside the vector kernels; it does not depend on
// the FEMTO_SIMD backend, so the scalar build compiles the same hint.

namespace femto::simd {

inline void cpu_relax() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  __builtin_ia32_pause();
#elif defined(__GNUC__) && defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace femto::simd
