#include "core/ensemble.hpp"

#include "lattice/gauge.hpp"

#include <gtest/gtest.h>

#include <cstdio>

#include "temp_path.hpp"

namespace femto::core {
namespace {

EnsembleSpec tiny_spec() {
  EnsembleSpec s;
  s.name = "test-tiny";
  s.extents = {4, 4, 4, 8};
  s.beta = 6.0;
  s.mobius = {4, -1.8, 1.5, 0.5, 0.3};
  s.n_configs = 3;
  s.thermalization = 6;
  s.decorrelation = 2;
  s.seed = 3003;
  return s;
}

SolverParams quick_params() {
  SolverParams sp;
  sp.tol = 1e-7;
  sp.max_iter = 20000;
  return sp;
}

TEST(Ensemble, MarkovChainProducesDistinctConfigs) {
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  const auto cfgs = quenched_ensemble(g, 6.0, 3, 6, 2, 41);
  ASSERT_EQ(cfgs.size(), 3u);
  // Consecutive configs differ but are all thermalised (similar plaquette).
  const double p0 = plaquette(cfgs[0]);
  const double p1 = plaquette(cfgs[1]);
  EXPECT_NE(p0, p1);
  EXPECT_NEAR(p0, p1, 0.1);
  bool differ = false;
  for (std::int64_t k = 0; k < cfgs[0].bytes() / 8; k += 101)
    if (cfgs[0].data()[k] != cfgs[2].data()[k]) differ = true;
  EXPECT_TRUE(differ);
}

TEST(Ensemble, CampaignProducesPerConfigObservables) {
  const auto res = run_ensemble(tiny_spec(), quick_params());
  EXPECT_TRUE(res.all_converged);
  EXPECT_EQ(res.n_configs, 3);
  ASSERT_EQ(res.c2pt.size(), 3u);
  EXPECT_EQ(res.c2pt[0].size(), 8u);
  EXPECT_EQ(res.geff[0].size(), 7u);
  ASSERT_EQ(res.plaquettes.size(), 3u);
  EXPECT_GT(res.plaquette_mean, 0.4);
  EXPECT_GT(res.plaquette_err, 0.0);
  // Jackknife effective mass populated with errors.
  ASSERT_EQ(res.meff_mean.size(), 7u);
  EXPECT_GT(res.meff_err[1], 0.0);
}

TEST(Ensemble, CorrelatorsVaryAcrossConfigs) {
  const auto res = run_ensemble(tiny_spec(), quick_params());
  // Monte Carlo: the same observable fluctuates configuration to
  // configuration.
  EXPECT_NE(res.c2pt[0][1], res.c2pt[1][1]);
  EXPECT_NE(res.c2pt[1][1], res.c2pt[2][1]);
}

TEST(Ensemble, ArchiveRoundTrip) {
  const std::string path = test_temp_path("femto_ensemble_test.bin");
  fio::File archive;
  const auto res = run_ensemble(tiny_spec(), quick_params(), &archive);
  archive.save(path);

  const auto loaded_file = fio::File::load(path);
  const auto back = load_ensemble(loaded_file, "test-tiny");
  EXPECT_EQ(back.n_configs, res.n_configs);
  for (int cfg = 0; cfg < res.n_configs; ++cfg)
    for (std::size_t t = 0; t < res.c2pt[0].size(); ++t)
      EXPECT_EQ(back.c2pt[static_cast<std::size_t>(cfg)][t],
                res.c2pt[static_cast<std::size_t>(cfg)][t]);
  EXPECT_EQ(back.meff_mean.size(), res.meff_mean.size());
  for (std::size_t t = 0; t < res.meff_mean.size(); ++t)
    EXPECT_NEAR(back.meff_mean[t], res.meff_mean[t], 1e-12);
  std::remove(path.c_str());
}

TEST(Ensemble, ReproducibleEndToEnd) {
  const auto a = run_ensemble(tiny_spec(), quick_params());
  const auto b = run_ensemble(tiny_spec(), quick_params());
  for (std::size_t t = 0; t < a.c2pt[0].size(); ++t)
    EXPECT_EQ(a.c2pt[0][t], b.c2pt[0][t]);
}

}  // namespace
}  // namespace femto::core
