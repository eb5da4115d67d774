#include "dirac/mobius.hpp"

#include "lattice/blas.hpp"

namespace femto {

namespace {

/// a*I + b*Lambda as a FifthDimOp.
FifthDimOp affine_lambda(int l5, double mf, double a, double b) {
  SMat lp = lambda_plus(l5, mf).scaled(b);
  SMat lm = lambda_minus(l5, mf).scaled(b);
  const SMat id = SMat::identity(l5).scaled(a);
  return {id + lp, id + lm};
}

}  // namespace

template <typename T>
MobiusOperator<T>::MobiusOperator(std::shared_ptr<const GaugeField<T>> u,
                                  MobiusParams params, DslashTuning tune)
    : u_(std::move(u)),
      params_(params),
      tune_(tune),
      tmp_f_(u_->geom_ptr(), params.l5, Subset::Full) {
  ensure_workspace(1);
  const int l5 = params_.l5;
  const double a = 4.0 + params_.m5;
  lambda_ = affine_lambda(l5, params_.mf, 0.0, 1.0);
  b_ = affine_lambda(l5, params_.mf, params_.b5, params_.c5);
  c_ = affine_lambda(l5, params_.mf, params_.b5 * a + 1.0,
                     params_.c5 * a - 1.0);
  cinv_ = c_.inverse();
  bcinv_ = b_ * cinv_;
  bt_ = b_.transpose();
  ct_ = c_.transpose();
  bcinvt_ = bcinv_.transpose();
}

template <typename T>
const CompressedGaugeField<T>* MobiusOperator<T>::recon12() const {
  if (tune_.format != GaugeFormat::kRecon12) return nullptr;
  if (!u_r12_) u_r12_ = std::make_unique<CompressedGaugeField<T>>(*u_);
  return u_r12_.get();
}

template <typename T>
void MobiusOperator<T>::dslash_fmt(std::span<const SpinorView<T>> out,
                                   std::span<const SpinorView<const T>> in,
                                   int out_parity, bool dagger) const {
  if (const auto* c = recon12())
    dslash_multi<T>(out, *c, in, out_parity, dagger, tune_);
  else
    dslash_multi<T>(out, *u_, in, out_parity, dagger, tune_);
}

template <typename T>
void MobiusOperator<T>::wilson_op_fmt(SpinorField<T>& out,
                                      const SpinorField<T>& in,
                                      bool dagger) const {
  if (const auto* c = recon12())
    wilson_op<T>(out, *c, in, params_.m5, dagger, tune_);
  else
    wilson_op<T>(out, *u_, in, params_.m5, dagger, tune_);
}

template <typename T>
void MobiusOperator<T>::apply_full(SpinorField<T>& out,
                                   const SpinorField<T>& in,
                                   bool dagger) const {
  assert(out.subset() == Subset::Full && in.subset() == Subset::Full);
  assert(out.l5() == params_.l5 && in.l5() == params_.l5);
  if (!dagger) {
    // out = D_W (B in) + (I - Lambda) in
    b_.apply<T>(view(tmp_f_), view(in));
    wilson_op_fmt(out, tmp_f_, false);
    lambda_.apply<T>(view(tmp_f_), view(in));
    blas::axpy<T>(-1.0, tmp_f_, out);
    blas::axpy<T>(1.0, in, out);
  } else {
    // out = B^T D_W^dag in + (I - Lambda)^T in
    wilson_op_fmt(tmp_f_, in, true);
    bt_.apply<T>(view(out), cview(tmp_f_));
    lambda_.transpose().apply<T>(view(tmp_f_), view(in));
    blas::axpy<T>(-1.0, tmp_f_, out);
    blas::axpy<T>(1.0, in, out);
  }
}

template <typename T>
void MobiusOperator<T>::apply_schur(SpinorField<T>& out,
                                    const SpinorField<T>& in,
                                    bool dagger) const {
  SpinorField<T>* o = &out;
  const SpinorField<T>* i = &in;
  apply_schur_multi({&o, 1}, {&i, 1}, dagger);
}

template <typename T>
void MobiusOperator<T>::apply_normal(SpinorField<T>& out,
                                     const SpinorField<T>& in) const {
  SpinorField<T>* o = &out;
  const SpinorField<T>* i = &in;
  apply_normal_multi({&o, 1}, {&i, 1});
}

template <typename T>
void MobiusOperator<T>::ensure_workspace(std::size_t n) const {
  while (tmp_e_.size() < n) {
    tmp_e_.emplace_back(u_->geom_ptr(), params_.l5, Subset::Even);
    tmp_e2_.emplace_back(u_->geom_ptr(), params_.l5, Subset::Even);
    tmp_o_.emplace_back(u_->geom_ptr(), params_.l5, Subset::Odd);
    tmp_mid_.emplace_back(u_->geom_ptr(), params_.l5, Subset::Odd);
  }
}

template <typename T>
void MobiusOperator<T>::apply_schur_multi(
    std::span<SpinorField<T>* const> out,
    std::span<const SpinorField<T>* const> in, bool dagger) const {
  const std::size_t nb = out.size();
  assert(in.size() == nb);
  if (nb == 0) return;
  ensure_workspace(nb);
  // Per-stage view batches over the RHS workspaces.
  std::vector<SpinorView<T>> ve, ve2, vo, vout;
  std::vector<SpinorView<const T>> cve, cve2, cvo, cvin;
  std::vector<const SpinorField<T>*> to;
  for (std::size_t r = 0; r < nb; ++r) {
    assert(out[r]->subset() == Subset::Odd && in[r]->subset() == Subset::Odd);
    ve.push_back(view(tmp_e_[r]));
    ve2.push_back(view(tmp_e2_[r]));
    vo.push_back(view(tmp_o_[r]));
    vout.push_back(view(*out[r]));
    cve.push_back(cview(tmp_e_[r]));
    cve2.push_back(cview(tmp_e2_[r]));
    cvo.push_back(cview(tmp_o_[r]));
    cvin.push_back(view(*in[r]));
    to.push_back(&tmp_o_[r]);
  }
  // Mhat = C - 1/4 Dslash (B C^-1) Dslash B, stage by stage, each stage
  // one launch for the whole batch.  The dslash stages also load each
  // site's links once for every RHS; the site-diagonal fifth-dim matvecs
  // and the closing axpby have no cross-RHS reuse, only the launch.
  if (!dagger) {
    b_.apply_multi<T>(vo, cvin);
    dslash_fmt(ve, cvo, /*out_parity=*/0, false);
    bcinv_.apply_multi<T>(ve2, cve);
    dslash_fmt(vout, cve2, /*out_parity=*/1, false);
    c_.apply_multi<T>(vo, cvin);
  } else {
    dslash_fmt(ve, cvin, /*out_parity=*/0, true);
    bcinvt_.apply_multi<T>(ve2, cve);
    dslash_fmt(vo, cve2, /*out_parity=*/1, true);
    bt_.apply_multi<T>(vout, cvo);
    ct_.apply_multi<T>(vo, cvin);
  }
  blas::axpby_multi<T>(1.0, to, -0.25, out);
}

template <typename T>
void MobiusOperator<T>::apply_normal_multi(
    std::span<SpinorField<T>* const> out,
    std::span<const SpinorField<T>* const> in) const {
  const std::size_t nb = out.size();
  assert(in.size() == nb);
  if (nb == 0) return;
  ensure_workspace(nb);
  std::vector<SpinorField<T>*> mid;
  std::vector<const SpinorField<T>*> cmid;
  for (std::size_t r = 0; r < nb; ++r) {
    mid.push_back(&tmp_mid_[r]);
    cmid.push_back(&tmp_mid_[r]);
  }
  apply_schur_multi(mid, in, false);
  apply_schur_multi(out, cmid, true);
}

template <typename T>
void MobiusOperator<T>::prepare_source(SpinorField<T>& bhat_odd,
                                       const SpinorField<T>& b_full) const {
  assert(bhat_odd.subset() == Subset::Odd);
  assert(b_full.subset() == Subset::Full);
  // tmp_e = (B C^-1) b_e
  bcinv_.apply<T>(view(tmp_e_[0]), parity_view(b_full, 0));
  // bhat = Dslash_oe tmp_e
  const SpinorView<T> bh = view(bhat_odd);
  const SpinorView<const T> te = cview(tmp_e_[0]);
  dslash_fmt({&bh, 1}, {&te, 1}, /*out_parity=*/1, false);
  // bhat = b_o + 1/2 bhat
  // Copy the odd half of b into tmp_o first.
  const auto bo = parity_view(b_full, 1);
  const auto to = view(tmp_o_[0]);
  for (int s = 0; s < params_.l5; ++s)
    for (std::int64_t i = 0; i < to.sites; ++i) to.store(s, i, bo.load(s, i));
  blas::axpby<T>(1.0, tmp_o_[0], 0.5, bhat_odd);
}

template <typename T>
void MobiusOperator<T>::reconstruct(SpinorField<T>& x_full,
                                    const SpinorField<T>& x_odd,
                                    const SpinorField<T>& b_full) const {
  assert(x_full.subset() == Subset::Full && x_odd.subset() == Subset::Odd);
  // tmp_o = B x_o ; tmp_e = Dslash_eo tmp_o
  b_.apply<T>(view(tmp_o_[0]), view(x_odd));
  const SpinorView<T> ve = view(tmp_e_[0]);
  const SpinorView<const T> co = cview(tmp_o_[0]);
  dslash_fmt({&ve, 1}, {&co, 1}, /*out_parity=*/0, false);
  // tmp_e = b_e + 1/2 tmp_e
  const auto be = parity_view(b_full, 0);
  const auto te = view(tmp_e2_[0]);
  for (int s = 0; s < params_.l5; ++s)
    for (std::int64_t i = 0; i < te.sites; ++i) te.store(s, i, be.load(s, i));
  blas::axpby<T>(1.0, tmp_e2_[0], 0.5, tmp_e_[0]);
  // x_e = C^-1 tmp_e
  cinv_.apply<T>(parity_view(x_full, 0), cview(tmp_e_[0]));
  // x_o = x_odd
  const auto xo = parity_view(x_full, 1);
  const auto xi = view(x_odd);
  for (int s = 0; s < params_.l5; ++s)
    for (std::int64_t i = 0; i < xo.sites; ++i) xo.store(s, i, xi.load(s, i));
}

template <typename T>
std::int64_t MobiusOperator<T>::flops_per_schur() const {
  const std::int64_t volh = u_->geom().half_volume();
  const std::int64_t sites5 = volh * params_.l5;
  // Two dslash passes + three fifth-dim matvecs (B, BC^-1, C) + the axpby.
  return 2 * flops::kWilsonDslashPerSite * sites5 +
         3 * flops::fifth_dim_per_site(params_.l5) * volh + 3 * sites5 * 24;
}

template class MobiusOperator<double>;
template class MobiusOperator<float>;

}  // namespace femto
