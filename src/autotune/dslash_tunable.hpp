#pragma once
// Autotuned dslash: sweeps the stencil kernel's work-partition grain (our
// analogue of a CUDA launch geometry), the gauge storage tier and, when
// the build has vector lanes, the kernel variant (scalar / lane-vectorized
// / lane-blocked) at the batch size the caller runs, and remembers the
// winner per (volume, L5, precision, parity, batch, ISA) key.  This is the
// integration point between femtotune and the production kernels:
// DwfSolver and the benches call tuned_dslash_grain() to pick launch
// parameters exactly the way Chroma+QUDA pick theirs.

#include <memory>
#include <span>
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

/// Whether a candidate's output @p got, computed on @p format links,
/// agrees with the reference @p ref (the scalar kernel on full18 links).
/// Every variant on full18 links must give the reference's bits, so a
/// full18 candidate matches only bit for bit; a recon12 candidate matches
/// within recon12_tolerance<T>() in relative L2 distance over every field
/// pair.  A NaN in @p got never matches.
template <typename T>
bool output_matches(GaugeFormat format, std::span<const SpinorField<T>> got,
                    std::span<const SpinorField<T>> ref);

/// A Tunable wrapping one dslash_multi of @p nrhs right-hand sides on
/// scratch fields: the launch a solver batch of that size makes.  The
/// candidate grid is format x variant x grain and the cache key carries
/// the batch size.  Every candidate's output is checked against
/// candidates()[0] (scalar on full18) with output_matches() before it is
/// timed.
template <typename T>
class DslashMultiTunable : public Tunable {
 public:
  DslashMultiTunable(std::shared_ptr<const GaugeField<T>> u, int l5,
                     int out_parity, std::size_t nrhs,
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
  std::size_t nrhs_;
  FormatSet formats_;
  std::vector<SpinorField<T>> in_, out_, ref_;
  // The tier of the candidate apply() last ran, which decides how
  // matches_reference() compares.
  GaugeFormat applied_format_ = GaugeFormat::kFull18;
  // recon12 copy of u_, built lazily by apply() when the sweep first races
  // that tier (then reused by every rep/candidate).
  std::unique_ptr<CompressedGaugeField<T>> u_r12_;
};

/// Tuned grain, kernel variant and gauge tier for a dslash_multi of
/// @p nrhs right-hand sides against this gauge/l5/parity.  Runs the
/// brute-force sweep on first call (cached process-wide) and publishes the
/// winners as femtoscope gauges dslash.{variant,format,gbytes}_{f,d},
/// which the run report decodes.
template <typename T>
DslashTuning tuned_dslash_grain(std::shared_ptr<const GaugeField<T>> u,
                                int l5, int out_parity = 0,
                                FormatSet formats = FormatSet::kFullOnly,
                                std::size_t nrhs = 1);

extern template class DslashMultiTunable<double>;
extern template class DslashMultiTunable<float>;
extern template bool output_matches<double>(GaugeFormat,
                                            std::span<const SpinorField<double>>,
                                            std::span<const SpinorField<double>>);
extern template bool output_matches<float>(GaugeFormat,
                                           std::span<const SpinorField<float>>,
                                           std::span<const SpinorField<float>>);
extern template DslashTuning tuned_dslash_grain<double>(
    std::shared_ptr<const GaugeField<double>>, int, int, FormatSet,
    std::size_t);
extern template DslashTuning tuned_dslash_grain<float>(
    std::shared_ptr<const GaugeField<float>>, int, int, FormatSet,
    std::size_t);

}  // namespace femto::tune
