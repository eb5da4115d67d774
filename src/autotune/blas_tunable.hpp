#pragma once
// Autotuned fused BLAS kernels: sweeps the chunk grain of the fused
// update+reduce kernels in lattice/blas.hpp, exactly as dslash_tunable
// sweeps the stencil's launch grain.  The fused kernels mutate their
// fields, so this is also the first Tunable exercising the autotuner's
// backup/restore hooks for data-destructive kernels (the QUDA feature the
// framework was built around).

#include <memory>
#include <string>

#include "autotune/autotune.hpp"
#include "lattice/field.hpp"

namespace femto::tune {

/// Which fused kernel a BlasTunable drives.
enum class BlasKernel {
  AxpyNorm2,
  TripleCgUpdate,
  AxpyZpbx,
};

const char* to_string(BlasKernel k);

/// A Tunable wrapping one fused BLAS kernel call on scratch fields.
template <typename T>
class BlasTunable : public Tunable {
 public:
  BlasTunable(std::shared_ptr<const Geometry> geom, int l5, Subset subset,
              BlasKernel kernel);

  std::string key() const override;
  std::vector<TuneParam> candidates() const override;
  void apply(const TuneParam& p) override;
  void backup() override;
  void restore() override;
  std::int64_t flops_per_call() const override;
  std::int64_t bytes_per_call() const override;

  /// The fields apply() mutates, exposed so tests can verify the
  /// backup/restore contract.
  const SpinorField<T>& scratch_x() const { return x_; }
  const SpinorField<T>& scratch_y() const { return y_; }

 private:
  BlasKernel kernel_;
  // Two read-only inputs and two updated fields cover every kernel shape
  // (triple_cg_update uses all four).  The updated fields are backed up
  // before the search and restored after.
  SpinorField<T> a_, b_, x_, y_;
  SpinorField<T> x_save_, y_save_;
};

/// Convenience used by DwfSolver::autotune_multi(): tunes the CG hot-path
/// fused kernels (triple_cg_update, axpy_zpbx, axpy_norm2) for this shape and
/// returns the winning grain of axpy_norm2 — the kernel every solver path
/// shares — for SolverParams::blas_grain.
template <typename T>
std::size_t tuned_blas_grain(std::shared_ptr<const Geometry> geom, int l5,
                             Subset subset);

extern template class BlasTunable<double>;
extern template class BlasTunable<float>;
extern template std::size_t tuned_blas_grain<double>(
    std::shared_ptr<const Geometry>, int, Subset);
extern template std::size_t tuned_blas_grain<float>(
    std::shared_ptr<const Geometry>, int, Subset);

}  // namespace femto::tune
