#include "core/workflow.hpp"

#include "fio/propagator_io.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "temp_path.hpp"

namespace femto::core {
namespace {

// The running test's own scratch directory: the workflow writes
// prop_cfg0.femto and corr_cfg0.femto into it.
std::string scratch_dir() { return test_temp_path("femto_workflow"); }

WorkflowOptions tiny() {
  WorkflowOptions o;
  o.extents = {4, 4, 4, 8};
  o.mobius = {4, -1.8, 1.5, 0.5, 0.3};  // small L5, heavy quark: fast
  o.solver_tol = 1e-7;
  o.n_configs = 1;
  o.thermalization = 4;
  o.scratch_dir = scratch_dir();
  std::filesystem::create_directories(o.scratch_dir);
  o.seed = 31337;
  return o;
}

void cleanup() { std::filesystem::remove_all(scratch_dir()); }

TEST(Workflow, RunsEndToEnd) {
  const auto rep = run_workflow(tiny());
  EXPECT_TRUE(rep.all_converged);
  EXPECT_EQ(rep.propagator_solves, 24);  // 12 point + 12 FH
  EXPECT_GT(rep.solver_iterations, 0);
  ASSERT_EQ(rep.c2pt.size(), 1u);
  EXPECT_EQ(rep.c2pt[0].size(), 8u);
  ASSERT_EQ(rep.geff.size(), 1u);
  EXPECT_EQ(rep.geff[0].size(), 7u);
  cleanup();
}

TEST(Workflow, PropagatorsDominateTheBudget) {
  // The paper's split: ~97% propagators, ~3% contractions, ~0.5% I/O.
  // On our small lattices the same ordering must hold.
  const auto rep = run_workflow(tiny());
  EXPECT_GT(rep.fraction_propagators(), 0.5);
  EXPECT_GT(rep.fraction_propagators(), rep.fraction_contractions());
  EXPECT_GT(rep.fraction_propagators(), rep.fraction_io());
  cleanup();
}

TEST(Workflow, SummaryMentionsStages) {
  const auto rep = run_workflow(tiny());
  const auto s = rep.summary();
  EXPECT_NE(s.find("propagators"), std::string::npos);
  EXPECT_NE(s.find("contractions"), std::string::npos);
  EXPECT_NE(s.find("I/O"), std::string::npos);
  cleanup();
}

TEST(Workflow, WithoutFhHalvesTheSolves) {
  auto o = tiny();
  o.with_fh = false;
  const auto rep = run_workflow(o);
  EXPECT_EQ(rep.propagator_solves, 12);
  EXPECT_TRUE(rep.geff.empty());
  cleanup();
}

TEST(Workflow, CorrelatorFilesLandOnDisk) {
  run_workflow(tiny());
  const auto f = fio::File::load(scratch_dir() + "/corr_cfg0.femto");
  const auto c = fio::read_correlator(f, "nucleon_2pt_cfg0");
  EXPECT_EQ(c.size(), 8u);
  cleanup();
}

}  // namespace
}  // namespace femto::core
