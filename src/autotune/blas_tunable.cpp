#include "autotune/blas_tunable.hpp"

#include <sstream>

#include "lattice/blas.hpp"

namespace femto::tune {

const char* to_string(BlasKernel k) {
  switch (k) {
    case BlasKernel::AxpyNorm2: return "axpy_norm2";
    case BlasKernel::TripleCgUpdate: return "triple_cg_update";
    default: return "axpy_zpbx";
  }
}

template <typename T>
BlasTunable<T>::BlasTunable(std::shared_ptr<const Geometry> geom, int l5,
                            Subset subset, BlasKernel kernel)
    : kernel_(kernel),
      a_(geom, l5, subset),
      b_(geom, l5, subset),
      x_(geom, l5, subset),
      y_(geom, l5, subset),
      x_save_(geom, l5, subset),
      y_save_(geom, l5, subset) {
  a_.gaussian(0xB1A51);
  b_.gaussian(0xB1A52);
  x_.gaussian(0xB1A53);
  y_.gaussian(0xB1A54);
}

template <typename T>
std::string BlasTunable<T>::key() const {
  std::ostringstream os;
  const Geometry& d = a_.geom();
  os << "blas:" << to_string(kernel_) << ",vol=" << d.extent(0) << "x"
     << d.extent(1) << "x" << d.extent(2) << "x" << d.extent(3)
     << ",l5=" << a_.l5() << ",subset=" << static_cast<int>(a_.subset())
     << ",prec=" << sizeof(T);
  return os.str();
}

template <typename T>
std::vector<TuneParam> BlasTunable<T>::candidates() const {
  std::vector<TuneParam> cands;
  const std::int64_t reals = a_.reals();
  for (std::int64_t grain = 1024; grain <= reals; grain *= 4) {
    TuneParam p;
    p.knobs["grain"] = grain;
    cands.push_back(p);
  }
  TuneParam whole;
  whole.knobs["grain"] = reals;
  if (cands.empty() || !(cands.back() == whole)) cands.push_back(whole);
  return cands;
}

template <typename T>
void BlasTunable<T>::apply(const TuneParam& p) {
  const auto grain =
      static_cast<std::size_t>(p.get("grain", blas::kGrain));
  // Coefficients of magnitude 1/2 keep the repeatedly-updated scratch
  // fields bounded across the search.
  switch (kernel_) {
    case BlasKernel::AxpyNorm2:
      blas::axpy_norm2<T>(0.5, a_, x_, grain);
      break;
    case BlasKernel::TripleCgUpdate:
      blas::triple_cg_update<T>(0.5, a_, b_, x_, y_, grain);
      break;
    case BlasKernel::AxpyZpbx:
      blas::axpy_zpbx<T>(0.5, x_, y_, a_, -0.5, grain);
      break;
  }
}

template <typename T>
void BlasTunable<T>::backup() {
  x_save_ = x_;
  y_save_ = y_;
}

template <typename T>
void BlasTunable<T>::restore() {
  x_ = x_save_;
  y_ = y_save_;
}

template <typename T>
std::int64_t BlasTunable<T>::flops_per_call() const {
  const std::int64_t n = a_.reals();
  switch (kernel_) {
    case BlasKernel::AxpyNorm2: return 4 * n;
    case BlasKernel::TripleCgUpdate: return 6 * n;
    default: return 4 * n;  // AxpyZpbx
  }
}

template <typename T>
std::int64_t BlasTunable<T>::bytes_per_call() const {
  const std::int64_t nb = a_.reals() * static_cast<std::int64_t>(sizeof(T));
  switch (kernel_) {
    case BlasKernel::AxpyNorm2: return 3 * nb;
    case BlasKernel::TripleCgUpdate: return 6 * nb;
    default: return 5 * nb;  // AxpyZpbx
  }
}

template <typename T>
std::size_t tuned_blas_grain(std::shared_ptr<const Geometry> geom, int l5,
                             Subset subset) {
  BlasTunable<T> triple(geom, l5, subset, BlasKernel::TripleCgUpdate);
  Autotuner::global().tune(triple);
  BlasTunable<T> zpbx(geom, l5, subset, BlasKernel::AxpyZpbx);
  Autotuner::global().tune(zpbx);
  BlasTunable<T> axn(std::move(geom), l5, subset, BlasKernel::AxpyNorm2);
  const TuneEntry& e = Autotuner::global().tune(axn);
  return static_cast<std::size_t>(e.param.get("grain", blas::kGrain));
}

template class BlasTunable<double>;
template class BlasTunable<float>;
template std::size_t tuned_blas_grain<double>(std::shared_ptr<const Geometry>,
                                              int, Subset);
template std::size_t tuned_blas_grain<float>(std::shared_ptr<const Geometry>,
                                             int, Subset);

}  // namespace femto::tune
