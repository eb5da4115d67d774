#pragma once
// femtosimd: width-agnostic SIMD vectors for the lattice hot paths.
//
// The paper's solver kernels are emitted by QUDA as explicitly vectorized
// GPU code; our CPU substitution needs the same treatment or every flop is
// issued one complex at a time.  Vec<T, W> is a W-lane vector of T with the
// small algebra the kernels use (+, -, *, broadcast, lane-ordered
// reduction helpers).  Two backends share one interface:
//
//   * GCC/Clang vector extensions (the default): one portable source
//     compiles to AVX-512 / AVX2 / SSE / NEON depending on the target
//     flags, with the compiler splitting over-wide vectors.  No vendor
//     intrinsics appear anywhere (femtolint rule `raw-intrinsics` forbids
//     them outside this directory).
//   * a std::array fallback (FEMTO_SIMD=OFF or a non-GNU compiler): plain
//     loops with identical per-lane semantics, so every width still
//     compiles and the cross-width consistency tests run everywhere.
//
// Determinism contract: results may depend on the lane count W (a W-lane
// reduction sums per-lane partials in lane order), but for a fixed W they
// are bitwise reproducible across repeated runs and independent of the
// backend.  Reductions built on Vec must combine lanes with sum_ordered()
// so the combination order is a pure function of the element index.
//
// Widths wider than the hardware are legal (the compiler splits them);
// W must be a power of two.  Vec<T, 1> degenerates to scalar code that is
// bit-identical to the pre-SIMD kernels, which is what FEMTO_SIMD=OFF
// builds select.

#include <cstddef>
#include <cstring>
#include <type_traits>

#if !defined(FEMTO_SIMD_OFF) && (defined(__GNUC__) || defined(__clang__))
#define FEMTO_SIMD_VEXT 1
#else
#define FEMTO_SIMD_VEXT 0
#include <array>
#endif

namespace femto::simd {

/// True when this build carries the vector-extension backend (the
/// FEMTO_SIMD=auto CMake default on GCC/Clang).
constexpr bool compiled_with_simd() { return FEMTO_SIMD_VEXT != 0; }

/// Widest vector register the target ISA offers, in bytes, and a short
/// name for reports and autotune cache keys.
#if !FEMTO_SIMD_VEXT
inline constexpr int kMaxVectorBytes = 8;  // scalar: one double
inline constexpr const char* kIsaName = "scalar";
#elif defined(__AVX512F__)
inline constexpr int kMaxVectorBytes = 64;
inline constexpr const char* kIsaName = "avx512";
#elif defined(__AVX2__)
inline constexpr int kMaxVectorBytes = 32;
inline constexpr const char* kIsaName = "avx2";
#elif defined(__AVX__)
inline constexpr int kMaxVectorBytes = 32;
inline constexpr const char* kIsaName = "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
inline constexpr int kMaxVectorBytes = 16;
inline constexpr const char* kIsaName = "sse2";
#elif defined(__ARM_NEON) || defined(__aarch64__)
inline constexpr int kMaxVectorBytes = 16;
inline constexpr const char* kIsaName = "neon";
#else
// Unknown target: vector extensions still compile (to scalar ops), so a
// modest width keeps the code shape without pretending to know the ISA.
inline constexpr int kMaxVectorBytes = 16;
inline constexpr const char* kIsaName = "generic";
#endif

/// Preferred lane count for element type T on this build: fills the widest
/// register when SIMD is on, 1 (scalar) otherwise.
template <typename T>
inline constexpr int kWidth =
    compiled_with_simd() ? kMaxVectorBytes / static_cast<int>(sizeof(T)) : 1;

/// A W-lane vector of T.  Trivially copyable; zero-initialised by default.
template <typename T, int W>
struct Vec {
  static_assert(W >= 1 && (W & (W - 1)) == 0,
                "lane count must be a power of two");

#if FEMTO_SIMD_VEXT
  typedef T Native __attribute__((vector_size(W * sizeof(T))));
  Native v{};
#else
  std::array<T, W> v{};
#endif

  Vec() = default;

  /// Broadcast.
  explicit Vec(T s) {
    for (int i = 0; i < W; ++i) v[i] = s;
  }

  T operator[](int i) const { return v[i]; }
  void set(int i, T x) { v[i] = x; }

  /// Unaligned full-width load/store (memcpy compiles to vector moves).
  static Vec load(const T* p) {
    Vec r;
    std::memcpy(&r.v, p, W * sizeof(T));
    return r;
  }
  void store(T* p) const { std::memcpy(p, &v, W * sizeof(T)); }

  /// Peeled-tail load: lanes [0, n) from @p p, the rest zero.
  static Vec load_partial(const T* p, int n) {
    Vec r;
    for (int i = 0; i < n; ++i) r.v[i] = p[i];
    return r;
  }
  /// Peeled-tail store: lanes [0, n) to @p p.
  void store_partial(T* p, int n) const {
    for (int i = 0; i < n; ++i) p[i] = v[i];
  }

  Vec& operator+=(const Vec& o) {
#if FEMTO_SIMD_VEXT
    v += o.v;
#else
    for (int i = 0; i < W; ++i) v[i] += o.v[i];
#endif
    return *this;
  }
  Vec& operator-=(const Vec& o) {
#if FEMTO_SIMD_VEXT
    v -= o.v;
#else
    for (int i = 0; i < W; ++i) v[i] -= o.v[i];
#endif
    return *this;
  }
  Vec& operator*=(const Vec& o) {
#if FEMTO_SIMD_VEXT
    v *= o.v;
#else
    for (int i = 0; i < W; ++i) v[i] *= o.v[i];
#endif
    return *this;
  }
  Vec& operator*=(T s) { return *this *= Vec(s); }

  friend Vec operator+(Vec a, const Vec& b) { return a += b; }
  friend Vec operator-(Vec a, const Vec& b) { return a -= b; }
  friend Vec operator*(Vec a, const Vec& b) { return a *= b; }
  friend Vec operator*(T s, Vec a) { return a *= s; }
  friend Vec operator*(Vec a, T s) { return a *= s; }
  friend Vec operator-(const Vec& a) {
    Vec r;
#if FEMTO_SIMD_VEXT
    r.v = -a.v;
#else
    for (int i = 0; i < W; ++i) r.v[i] = -a.v[i];
#endif
    return r;
  }
};

/// Lane-wise max (the half-precision max-norm scan).
template <typename T, int W>
inline Vec<T, W> max(const Vec<T, W>& a, const Vec<T, W>& b) {
  Vec<T, W> r;
#if FEMTO_SIMD_VEXT
  r.v = a.v > b.v ? a.v : b.v;
#else
  for (int i = 0; i < W; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
#endif
  return r;
}

/// Lane-wise conversion (float <-> double widening, int16 -> float
/// dequantise).  Lane count is preserved.
template <typename U, typename T, int W>
inline Vec<U, W> convert(const Vec<T, W>& a) {
  Vec<U, W> r;
#if FEMTO_SIMD_VEXT
  r.v = __builtin_convertvector(a.v, typename Vec<U, W>::Native);
#else
  for (int i = 0; i < W; ++i) r.v[i] = static_cast<U>(a.v[i]);
#endif
  return r;
}

/// Swap adjacent lane pairs: [a0,a1,a2,a3,...] -> [a1,a0,a3,a2,...].  The
/// complex-pair kernels use it to line re against im (requires W >= 2).
template <typename T, int W>
inline Vec<T, W> swap_pairs(const Vec<T, W>& a) {
  static_assert(W >= 2, "pair swap needs at least two lanes");
  Vec<T, W> r;
  for (int i = 0; i < W; i += 2) {
    r.v[i] = a.v[i + 1];
    r.v[i + 1] = a.v[i];
  }
  return r;
}

/// Broadcast an alternating pair: [a, b, a, b, ...].
template <typename T, int W>
inline Vec<T, W> interleave(T a, T b) {
  static_assert(W >= 2, "pair interleave needs at least two lanes");
  Vec<T, W> r;
  for (int i = 0; i < W; i += 2) {
    r.v[i] = a;
    r.v[i + 1] = b;
  }
  return r;
}

/// W lanes of T for a kernel templated on its width: T itself at W = 1,
/// where GCC keeps a one-lane vector type in memory and general registers
/// instead of in floating-point registers.  lane() and set_lane() reach
/// lane i of either.
template <typename T, int W>
using Lanes = std::conditional_t<W == 1, T, Vec<T, W>>;

template <typename T>
inline T lane(T x, int /*i*/) {
  return x;
}
template <typename T, int W>
inline T lane(const Vec<T, W>& x, int i) {
  return x[i];
}
template <typename T>
inline void set_lane(T& x, int /*i*/, T value) {
  x = value;
}
template <typename T, int W>
inline void set_lane(Vec<T, W>& x, int i, T value) {
  x.set(i, value);
}

/// Sum the lanes in lane order — THE deterministic combination step every
/// Vec-based reduction must use (see the determinism contract above).
template <typename T, int W>
inline T sum_ordered(const Vec<T, W>& a) {
  T s{};
  for (int i = 0; i < W; ++i) s += a.v[i];
  return s;
}

/// Max over lanes (order-independent; max is associative and exact).
template <typename T, int W>
inline T max_lanes(const Vec<T, W>& a) {
  T m = a.v[0];
  for (int i = 1; i < W; ++i) m = a.v[i] > m ? a.v[i] : m;
  return m;
}

}  // namespace femto::simd
