#include "autotune/dslash_tunable.hpp"

#include <cmath>
#include <sstream>

#include "lattice/flops.hpp"
#include "obs/metrics.hpp"
#include "simd/vec.hpp"

namespace femto::tune {

std::vector<GaugeFormat> format_set_members(FormatSet s) {
  if (s == FormatSet::kAll)
    return {GaugeFormat::kFull18, GaugeFormat::kRecon12};
  return {GaugeFormat::kFull18};
}

namespace {

/// The recon12 copy for a candidate on that tier, built on first use
/// (reused across reps and candidates; the one-time compression cost is
/// amortised away by the min-of-reps timer); null on full18.
template <typename T>
const CompressedGaugeField<T>* recon12_for(
    GaugeFormat fmt, const GaugeField<T>& u,
    std::unique_ptr<CompressedGaugeField<T>>& r12) {
  if (fmt != GaugeFormat::kRecon12) return nullptr;
  if (!r12) r12 = std::make_unique<CompressedGaugeField<T>>(u);
  return r12.get();
}

}  // namespace

template <typename T>
bool output_matches(GaugeFormat format, std::span<const SpinorField<T>> got,
                    std::span<const SpinorField<T>> ref) {
  const bool bitwise = format == GaugeFormat::kFull18;
  double d2 = 0.0, n2 = 0.0;
  for (std::size_t f = 0; f < ref.size(); ++f)
    for (std::int64_t k = 0; k < ref[f].reals(); ++k) {
      const T g = got[f].data()[k];
      const T r = ref[f].data()[k];
      // Equal with equal sign bits is equal bits, except that a NaN never
      // compares equal.
      if (bitwise && (!(g == r) || std::signbit(g) != std::signbit(r)))
        return false;
      const double d = static_cast<double>(g) - r;
      d2 += d * d;
      n2 += static_cast<double>(r) * r;
    }
  const double tol = recon12_tolerance<T>();
  return d2 <= tol * tol * n2;  // false when a NaN made d2 NaN
}

template <typename T>
DslashMultiTunable<T>::DslashMultiTunable(
    std::shared_ptr<const GaugeField<T>> u, int l5, int out_parity,
    std::size_t nrhs, FormatSet formats)
    : u_(std::move(u)),
      l5_(l5),
      out_parity_(out_parity),
      nrhs_(nrhs),
      formats_(formats) {
  FEMTO_CHECK(nrhs_ >= 1, "DslashMultiTunable: nrhs must be at least 1");
  const Subset in_sub = out_parity == 0 ? Subset::Odd : Subset::Even;
  const Subset out_sub = out_parity == 0 ? Subset::Even : Subset::Odd;
  in_.reserve(nrhs_);
  out_.reserve(nrhs_);
  for (std::size_t r = 0; r < nrhs_; ++r) {
    in_.emplace_back(u_->geom_ptr(), l5, in_sub);
    out_.emplace_back(u_->geom_ptr(), l5, out_sub);
    in_.back().gaussian(0xD51A5 + static_cast<std::uint64_t>(r));
  }
}

template <typename T>
std::string DslashMultiTunable<T>::key() const {
  std::ostringstream os;
  const auto& d = u_->geom();
  // The ISA/width tag keeps femtotune cache entries from a vectorized
  // build out of a scalar (FEMTO_SIMD=OFF) build and vice versa: the
  // variant knob below only means something at the width it was tuned at.
  os << "dslash_multi,vol=" << d.extent(0) << "x" << d.extent(1) << "x"
     << d.extent(2) << "x" << d.extent(3) << ",l5=" << l5_
     << ",parity=" << out_parity_ << ",prec=" << sizeof(T)
     << ",nrhs=" << nrhs_ << ",simd=" << simd::kIsaName << "/"
     << simd::kWidth<T> << ",fmt=" << static_cast<int>(formats_);
  return os.str();
}

template <typename T>
std::vector<TuneParam> DslashMultiTunable<T>::candidates() const {
  // Format is the outermost axis and variant the next (full18 and scalar
  // first, so the reference kernel on reference storage at the smallest
  // grain leads the search); every (format, variant) pair gets the
  // identical grain sweep, ending with the whole half-volume in one chunk.
  // The vector variants only enter the search when the build actually has
  // lanes; at W == 1 they are the scalar arithmetic with extra gather
  // overhead.
  std::vector<DslashVariant> variants = {DslashVariant::kScalar};
  if constexpr (simd::kWidth<T> > 1) {
    variants.push_back(DslashVariant::kVector);
    variants.push_back(DslashVariant::kVectorBlocked);
  }
  const std::int64_t volh = u_->geom().half_volume();
  std::vector<std::int64_t> grains;
  for (std::int64_t grain = 16; grain < volh; grain *= 4)
    grains.push_back(grain);
  grains.push_back(volh);
  std::vector<TuneParam> cands;
  for (const GaugeFormat f : format_set_members(formats_)) {
    for (const DslashVariant v : variants) {
      for (const std::int64_t grain : grains) {
        TuneParam p;
        p.knobs["format"] = static_cast<std::int64_t>(f);
        p.knobs["variant"] = static_cast<std::int64_t>(v);
        p.knobs["grain"] = grain;
        cands.push_back(p);
      }
    }
  }
  return cands;
}

template <typename T>
void DslashMultiTunable<T>::apply(const TuneParam& p) {
  DslashTuning tune;
  tune.grain = static_cast<std::size_t>(p.get("grain", 512));
  tune.variant = static_cast<DslashVariant>(p.get("variant", 0));
  tune.format = static_cast<GaugeFormat>(p.get("format", 0));
  applied_format_ = tune.format;
  std::vector<SpinorView<T>> outs;
  std::vector<SpinorView<const T>> ins;
  outs.reserve(nrhs_);
  ins.reserve(nrhs_);
  for (std::size_t r = 0; r < nrhs_; ++r) {
    outs.push_back(view(out_[r]));
    ins.push_back(cview(in_[r]));
  }
  if (const auto* c = recon12_for(tune.format, *u_, u_r12_))
    dslash_multi<T>(outs, *c, ins, out_parity_, false, tune);
  else
    dslash_multi<T>(outs, *u_, ins, out_parity_, false, tune);
}

template <typename T>
void DslashMultiTunable<T>::save_reference() {
  ref_ = out_;
}

template <typename T>
bool DslashMultiTunable<T>::matches_reference() const {
  return output_matches<T>(applied_format_, out_, ref_);
}

template <typename T>
std::int64_t DslashMultiTunable<T>::flops_per_call() const {
  return static_cast<std::int64_t>(nrhs_) * flops::kWilsonDslashPerSite *
         u_->geom().half_volume() * l5_;
}

template <typename T>
std::int64_t DslashMultiTunable<T>::bytes_per_call() const {
  // Read 8 neighbour spinors + 8 links, write 1 spinor, per site, slice
  // and RHS: the stencil's traffic with no cache reuse, so a kernel that
  // reuses neighbours or links from cache reads as a higher effective
  // bandwidth.
  const std::int64_t volh = u_->geom().half_volume();
  const std::int64_t spinor = kSpinorReals * sizeof(T);
  const std::int64_t link = kLinkReals * sizeof(T);
  return static_cast<std::int64_t>(nrhs_) * volh * l5_ *
         (9 * spinor + 8 * link);
}

template <typename T>
DslashTuning tuned_dslash_grain(std::shared_ptr<const GaugeField<T>> u,
                                int l5, int out_parity, FormatSet formats,
                                std::size_t nrhs) {
  DslashMultiTunable<T> tunable(std::move(u), l5, out_parity, nrhs, formats);
  const TuneEntry& e = Autotuner::global().tune(tunable);
  DslashTuning t;
  t.grain = static_cast<std::size_t>(e.param.get("grain", 512));
  t.variant = static_cast<DslashVariant>(e.param.get("variant", 0));
  t.format = static_cast<GaugeFormat>(e.param.get("format", 0));
  // Surface the winners in the femtoscope registry; the run report's simd
  // block decodes the variant and format ordinals (see obs/report.cpp).
  const char* prec = sizeof(T) == 4 ? "f" : "d";
  obs::gauge(std::string("dslash.variant_") + prec)
      .set(static_cast<double>(t.variant));
  obs::gauge(std::string("dslash.format_") + prec)
      .set(static_cast<double>(t.format));
  obs::gauge(std::string("dslash.gbytes_") + prec).set(e.gbytes);
  return t;
}

template class DslashMultiTunable<double>;
template class DslashMultiTunable<float>;
template bool output_matches<double>(GaugeFormat,
                                     std::span<const SpinorField<double>>,
                                     std::span<const SpinorField<double>>);
template bool output_matches<float>(GaugeFormat,
                                    std::span<const SpinorField<float>>,
                                    std::span<const SpinorField<float>>);
template DslashTuning tuned_dslash_grain<double>(
    std::shared_ptr<const GaugeField<double>>, int, int, FormatSet,
    std::size_t);
template DslashTuning tuned_dslash_grain<float>(
    std::shared_ptr<const GaugeField<float>>, int, int, FormatSet,
    std::size_t);

}  // namespace femto::tune
