// Table I: performance attributes.  The static attributes come from the
// paper; the "measured" column is produced by actually running our
// workflow and solver so every claim is backed by this build.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "core/workflow.hpp"
#include "lattice/flops.hpp"

int main() {
  using namespace femto;

  std::printf("== Table I: performance attributes ==\n\n");
  std::printf("%-28s %s\n", "Attribute", "Value");
  std::printf("%-28s %s\n", "Category of achievement", "time to solution");
  std::printf("%-28s %s\n", "method", "explicit");
  std::printf("%-28s %s\n", "reporting",
              "whole application including I/O");
  std::printf("%-28s %s\n", "precision", "mixed-precision");
  std::printf("%-28s %s\n", "system scale", "full-scale system (modelled)");
  std::printf("%-28s %s\n\n", "measurement method", "FLOP count");

  // Back the attributes with a real measured run.
  std::printf("-- verification run (4^3x8 lattice, Mobius L5=4) --\n");
  core::WorkflowOptions opts;
  opts.extents = {4, 4, 4, 8};
  opts.mobius = {4, -1.8, 1.5, 0.5, 0.3};
  opts.n_configs = 1;
  opts.thermalization = 4;
  opts.solver_tol = 1e-8;
  // The workflow's propagator and correlator files go to a scratch
  // directory of this run's own, removed afterwards.
  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("table1_attributes_" + std::to_string(::getpid()));
  std::filesystem::create_directories(scratch);
  opts.scratch_dir = scratch.string();
  flops::reset();
  const auto rep = core::run_workflow(opts);
  std::filesystem::remove_all(scratch);
  const double gflop = static_cast<double>(flops::get()) / 1e9;
  std::printf("whole-application stages measured: %s\n",
              rep.summary().c_str());
  std::printf("counted flops: %.3f GFLOP in %.2f s => %.2f GFLOP/s "
              "(mixed-precision CG, explicit method, I/O included)\n",
              gflop, rep.total_seconds(), gflop / rep.total_seconds());
  std::printf("all solves converged: %s\n",
              rep.all_converged ? "yes" : "NO");
  return rep.all_converged ? 0 : 1;
}
