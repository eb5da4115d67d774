#pragma once
// Autotuned dslash: sweeps the stencil kernel's work-partition grain (our
// analogue of a CUDA launch geometry) and, when the build has vector lanes,
// the kernel variant (scalar / fifth-dim-vectorized / lane-blocked), and
// remembers the winner per (volume, L5, precision, parity, ISA) key.  This
// is the integration point between femtotune and the production kernels:
// DwfSolver and the benches call tuned_dslash_grain() to pick launch
// parameters exactly the way Chroma+QUDA pick theirs.

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

/// A Tunable wrapping one dslash application on scratch fields.  Every
/// candidate's output is checked against candidates()[0] (scalar on
/// full18) to recon12_tolerance<T>() before it is timed.
template <typename T>
class DslashTunable : public Tunable {
 public:
  DslashTunable(std::shared_ptr<const GaugeField<T>> u, int l5,
                int out_parity, FormatSet formats = FormatSet::kFullOnly)
      : u_(std::move(u)),
        l5_(l5),
        out_parity_(out_parity),
        formats_(formats),
        in_(u_->geom_ptr(), l5,
            out_parity == 0 ? Subset::Odd : Subset::Even),
        out_(u_->geom_ptr(), l5,
             out_parity == 0 ? Subset::Even : Subset::Odd),
        ref_(out_) {
    in_.gaussian(0xD51A5);
  }

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
  FormatSet formats_;
  SpinorField<T> in_, out_, ref_;
  // recon12 copy of u_, built lazily by apply() when the sweep first races
  // that tier (then reused by every rep/candidate).
  std::unique_ptr<CompressedGaugeField<T>> u_r12_;
};

/// Convenience: returns the tuned grain and kernel variant for this
/// gauge/l5/parity, running the brute-force search on first call.  Also
/// publishes the winning variant and its achieved GB/s as femtoscope
/// gauges (dslash.variant_{f,d}, dslash.gbytes_{f,d}) so run reports show
/// what the tuner picked.
template <typename T>
DslashTuning tuned_dslash_grain(std::shared_ptr<const GaugeField<T>> u,
                                int l5, int out_parity = 0,
                                FormatSet formats = FormatSet::kFullOnly);

/// Multi-RHS dslash tuning: the launch parameters PLUS the batch size the
/// sweep found fastest.  nrhs is the new autotune dimension the batched
/// solve service exposes (ISSUE: "candidates sweep B x grain x variant").
struct MultiRhsTuning {
  DslashTuning dslash;
  std::size_t nrhs = 1;
};

/// A Tunable wrapping a FIXED total of bmax dslash applications, issued as
/// ceil(bmax/nrhs) dslash_multi calls of batch nrhs.  Every candidate does
/// identical spinor arithmetic, so the timer compares per-batch launch
/// overhead and link amortisation fairly across batch sizes; the candidate
/// grid is the cross product nrhs x grain x variant and the cache key is
/// the single-RHS key extended with the batch bound.
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
  std::unique_ptr<CompressedGaugeField<T>> u_r12_;
};

/// Tuned batch size + launch parameters for dslash_multi against this
/// gauge/l5/parity with at most bmax right-hand sides per batch.  Runs the
/// brute-force sweep on first call (cached process-wide) and publishes the
/// winners as femtoscope gauges (dslash_multi.nrhs_{f,d},
/// dslash_multi.variant_{f,d}, dslash_multi.gbytes_{f,d}).
template <typename T>
MultiRhsTuning tuned_multi_rhs(std::shared_ptr<const GaugeField<T>> u,
                               int l5, std::size_t bmax, int out_parity = 0,
                               FormatSet formats = FormatSet::kFullOnly);

extern template class DslashTunable<double>;
extern template class DslashTunable<float>;
extern template DslashTuning tuned_dslash_grain<double>(
    std::shared_ptr<const GaugeField<double>>, int, int, FormatSet);
extern template DslashTuning tuned_dslash_grain<float>(
    std::shared_ptr<const GaugeField<float>>, int, int, FormatSet);
extern template class DslashMultiTunable<double>;
extern template class DslashMultiTunable<float>;
extern template MultiRhsTuning tuned_multi_rhs<double>(
    std::shared_ptr<const GaugeField<double>>, int, std::size_t, int,
    FormatSet);
extern template MultiRhsTuning tuned_multi_rhs<float>(
    std::shared_ptr<const GaugeField<float>>, int, std::size_t, int,
    FormatSet);

}  // namespace femto::tune
