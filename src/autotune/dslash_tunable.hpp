#pragma once
// Autotuned dslash: sweeps the stencil kernel's work-partition grain (our
// analogue of a CUDA launch geometry), the batch size, the gauge storage
// tier and, when the build has vector lanes, the kernel variant (scalar /
// lane-vectorized / lane-blocked), and remembers the winner per (volume,
// L5, precision, parity, batch bound, ISA) key.  This is the integration
// point between femtotune and the production kernels: DwfSolver and the
// benches call tuned_dslash_grain() / tuned_multi_rhs() to pick launch
// parameters exactly the way Chroma+QUDA pick theirs.  One tunable serves
// both: a single-RHS tuning is the batch bound 1.

#include <memory>
#include <string>

#include "autotune/autotune.hpp"
#include "dirac/wilson.hpp"
#include "lattice/field.hpp"

namespace femto::tune {

/// Which gauge storage tiers a tuning sweep may race (DESIGN.md §16).
/// kFullOnly keeps the sweep on full-18 links (the double operator: its
/// reliable updates must not see reconstruction error); kAll adds recon12
/// (the float inner-iteration operator).
enum class FormatSet : int { kFullOnly = 0, kAll = 1 };

/// The formats a FormatSet admits, reference tier first.
std::vector<GaugeFormat> format_set_members(FormatSet s);

/// Multi-RHS dslash tuning: the launch parameters PLUS the batch size the
/// sweep found fastest (the autotune dimension the batched solve service
/// exposes).
struct MultiRhsTuning {
  DslashTuning dslash;
  std::size_t nrhs = 1;
};

/// A Tunable wrapping a FIXED total of bmax dslash applications on scratch
/// fields, issued as ceil(bmax/nrhs) dslash_multi calls of batch nrhs.
/// Every candidate does identical spinor arithmetic, so the timer compares
/// per-batch launch overhead and link amortisation fairly across batch
/// sizes; the candidate grid is format x variant x nrhs x grain and the
/// cache key carries the batch bound.  Every candidate's output is checked
/// against candidates()[0] (scalar on full18) to recon12_tolerance<T>()
/// before it is timed.
template <typename T>
class DslashMultiTunable : public Tunable {
 public:
  DslashMultiTunable(std::shared_ptr<const GaugeField<T>> u, int l5,
                     int out_parity, std::size_t bmax,
                     FormatSet formats = FormatSet::kFullOnly);

  std::string key() const override;
  std::vector<TuneParam> candidates() const override;
  void apply(const TuneParam& p) override;
  void save_reference() override;
  bool matches_reference() const override;
  std::int64_t flops_per_call() const override;
  std::int64_t bytes_per_call() const override;

 private:
  std::shared_ptr<const GaugeField<T>> u_;
  int l5_;
  int out_parity_;
  std::size_t bmax_;
  FormatSet formats_;
  std::vector<SpinorField<T>> in_, out_, ref_;
  // recon12 copy of u_, built lazily by apply() when the sweep first races
  // that tier (then reused by every rep/candidate).
  std::unique_ptr<CompressedGaugeField<T>> u_r12_;
};

/// Tuned batch size + launch parameters for dslash_multi against this
/// gauge/l5/parity with at most bmax right-hand sides per batch.  Runs the
/// brute-force sweep on first call (cached process-wide) and publishes the
/// winners as femtoscope gauges: dslash.{variant,format,gbytes}_{f,d},
/// which the run report decodes, and dslash_multi.nrhs_{f,d}.
template <typename T>
MultiRhsTuning tuned_multi_rhs(std::shared_ptr<const GaugeField<T>> u,
                               int l5, std::size_t bmax, int out_parity = 0,
                               FormatSet formats = FormatSet::kFullOnly);

/// The single-RHS tuning: tuned_multi_rhs with batch bound 1, returning
/// the tuned grain, kernel variant and gauge tier for this gauge/l5/parity
/// (same sweep, same cache entry, same published gauges).
template <typename T>
DslashTuning tuned_dslash_grain(std::shared_ptr<const GaugeField<T>> u,
                                int l5, int out_parity = 0,
                                FormatSet formats = FormatSet::kFullOnly) {
  return tuned_multi_rhs<T>(std::move(u), l5, 1, out_parity, formats).dslash;
}

extern template class DslashMultiTunable<double>;
extern template class DslashMultiTunable<float>;
extern template MultiRhsTuning tuned_multi_rhs<double>(
    std::shared_ptr<const GaugeField<double>>, int, std::size_t, int,
    FormatSet);
extern template MultiRhsTuning tuned_multi_rhs<float>(
    std::shared_ptr<const GaugeField<float>>, int, std::size_t, int,
    FormatSet);

}  // namespace femto::tune
