// Golden-determinism probe: runs one small mixed-precision CG solve, the
// three contractions and a whole tiny Fig. 2 workflow on the GLOBAL thread
// pool (so FEMTO_THREADS controls the worker count) and prints a bitwise
// fingerprint of the outcomes on three lines:
//
//   fnv=<16-hex FNV-1a over the solution doubles> iters=<n> converged=<0|1>
//   c2=<FNV-1a of nucleon_two_point> c2p=<... nucleon_two_point_momentum
//     at p = (1, 0, 0)> fh=<... nucleon_fh_three_point>
//     pion=<... pion_two_point>, on Gaussian-filled 4^3x8 propagators
//   wf_c2=<FNV-1a of run_workflow's C2> wf_geff=<... its g_eff series>
//     wf_converged=<0|1>, for one untuned 4^4 configuration with FH
//
// test_determinism.cpp re-execs this binary under FEMTO_THREADS=1/2/7 and
// the inherited default and compares the lines verbatim: the femtoverse
// reproducibility contract (DESIGN.md §8) says the bits may not depend on
// how many workers happened to run the kernels.

#include <unistd.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/contractions.hpp"
#include "core/workflow.hpp"
#include "lattice/gauge.hpp"
#include "solver/dwf_solve.hpp"

namespace {

std::uint64_t fnv1a(const double* d, std::size_t n) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, d + i, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

std::uint64_t fnv1a(const std::vector<double>& d) {
  return fnv1a(d.data(), d.size());
}

std::uint64_t fnv1a(const femto::core::Correlator& c) {
  std::vector<double> d;
  for (const auto& z : c) {
    d.push_back(z.re);
    d.push_back(z.im);
  }
  return fnv1a(d);
}

}  // namespace

int main() {
  using namespace femto;
  auto geom = std::make_shared<Geometry>(4, 4, 4, 4);
  const MobiusParams params{6, -1.8, 1.5, 0.5, 0.1};

  auto u = std::make_shared<GaugeField<double>>(geom);
  weak_gauge(*u, 2027, 0.25);

  SpinorField<double> b(geom, params.l5, Subset::Full);
  b.gaussian(4091);
  SpinorField<double> x(geom, params.l5, Subset::Full);

  SolverParams sp;
  sp.tol = 1e-10;
  DwfSolver solver(u, params, sp);
  const SolveResult res = solver.solve(x, b);

  std::printf("fnv=%016" PRIx64 " iters=%d converged=%d\n",
              fnv1a(x.data(), static_cast<std::size_t>(x.reals())),
              res.iterations, res.converged ? 1 : 0);

  // Contractions sum over sites into timeslices: the sum order must not
  // depend on the worker count either.
  const auto cgeom = std::make_shared<Geometry>(4, 4, 4, 8);
  core::Propagator up(cgeom), fh(cgeom), down(cgeom);
  std::uint64_t seed = 9001;
  for (core::Propagator* p : {&up, &fh, &down})
    for (int k = 0; k < kNs * kNc; ++k)
      p->column(k / kNc, k % kNc).gaussian(seed++);
  const SpinMat proj = parity_projector();
  std::printf("c2=%016" PRIx64 " c2p=%016" PRIx64 " fh=%016" PRIx64
              " pion=%016" PRIx64 "\n",
              fnv1a(core::nucleon_two_point(up, down, proj, 0)),
              fnv1a(core::nucleon_two_point_momentum(up, down, proj, 0,
                                                     {1, 0, 0})),
              fnv1a(core::nucleon_fh_three_point(up, fh, down, proj, 0)),
              fnv1a(core::pion_two_point(up, 0)));

  // The workflow end to end: gauge generation, the point and FH solves,
  // the propagator files, and the contractions that read them back.
  namespace fs = std::filesystem;
  const fs::path scratch = fs::temp_directory_path() /
                           ("golden_probe_" + std::to_string(::getpid()));
  fs::create_directories(scratch);
  core::WorkflowOptions wo;
  wo.extents = {4, 4, 4, 4};
  wo.mobius = MobiusParams{4, -1.8, 1.5, 0.5, 0.5};
  wo.solver_tol = 1e-4;
  wo.n_configs = 1;
  wo.with_fh = true;
  wo.scratch_dir = scratch.string();
  const core::WorkflowReport wf = core::run_workflow(wo);
  fs::remove_all(scratch);
  std::printf("wf_c2=%016" PRIx64 " wf_geff=%016" PRIx64
              " wf_converged=%d\n",
              fnv1a(wf.c2pt.at(0)), fnv1a(wf.geff.at(0)),
              wf.all_converged ? 1 : 0);
  return 0;
}
