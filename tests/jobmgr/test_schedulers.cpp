// Job-management behaviour the paper reports:
//  * naive bundling idles 20-25% of the allocation,
//  * METAQ backfilling recovers most of it,
//  * mpi_jm matches/beats METAQ, never fragments placements across blocks,
//    co-schedules CPU contractions for free, starts thousands of nodes in
//    minutes, and drops lumps containing bad nodes instead of dying.

#include "jobmgr/schedulers.hpp"

#include <gtest/gtest.h>

#include "jobmgr/workload.hpp"

namespace femto::jm {
namespace {

cluster::ClusterSpec sierra_like(int n_nodes) {
  cluster::ClusterSpec s;
  s.n_nodes = n_nodes;
  s.node.gpus = 4;
  s.node.cpu_slots = 40;
  s.nodes_per_block = 4;
  s.perf_jitter_sigma = 0.03;
  s.seed = 404;
  return s;
}

WorkloadOptions campaign(int n_props) {
  WorkloadOptions w;
  w.n_propagators = n_props;
  w.nodes_per_solve = 4;
  w.solve_seconds = 600;
  w.duration_jitter = 0.18;
  w.seed = 77;
  return w;
}

TEST(Workload, CampaignShape) {
  const auto tasks = make_campaign(campaign(10));
  EXPECT_EQ(tasks.size(), 20u);  // solve + contraction each
  int solves = 0, contractions = 0;
  for (const auto& t : tasks) {
    if (t.kind == TaskKind::GpuSolve) {
      ++solves;
      EXPECT_EQ(t.nodes, 4);
      EXPECT_TRUE(t.deps.empty());
    } else {
      ++contractions;
      ASSERT_EQ(t.deps.size(), 1u);
    }
  }
  EXPECT_EQ(solves, 10);
  EXPECT_EQ(contractions, 10);
}

TEST(Workload, DurationsJitterAroundNominal) {
  const auto tasks = make_campaign(campaign(200));
  double lo = 1e30, hi = 0, sum = 0;
  int n = 0;
  for (const auto& t : tasks) {
    if (t.kind != TaskKind::GpuSolve) continue;
    lo = std::min(lo, t.duration);
    hi = std::max(hi, t.duration);
    sum += t.duration;
    ++n;
  }
  EXPECT_NEAR(sum / n, 600.0, 40.0);
  EXPECT_LT(lo, 500.0);
  EXPECT_GT(hi, 700.0);
}

TEST(Schedulers, AllCompleteEveryTask) {
  cluster::Cluster cl(sierra_like(64));
  const auto tasks = make_campaign(campaign(64));
  for (auto rep : {run_naive_bundling(cl, tasks), run_metaq(cl, tasks),
                   run_mpi_jm(cl, tasks, {.lump_nodes = 16})}) {
    EXPECT_EQ(rep.tasks_completed, static_cast<int>(tasks.size()))
        << rep.scheduler;
    // Dependencies respected: contraction starts after its solve ends.
    std::map<int, double> end_time;
    for (const auto& r : rep.records) end_time[r.task_id] = r.end;
    for (const auto& t : tasks)
      for (int d : t.deps)
        for (const auto& r : rep.records) {
          if (r.task_id == t.id) {
            EXPECT_GE(r.start, end_time[d] - 1e-9) << rep.scheduler;
          }
        }
  }
}

TEST(Schedulers, NaiveBundlingIdlesTwentyishPercent) {
  cluster::Cluster cl(sierra_like(128));
  auto w = campaign(256);
  w.with_contractions = false;
  const auto rep = run_naive_bundling(cl, make_campaign(w));
  EXPECT_GT(rep.idle_fraction(), 0.12);
  EXPECT_LT(rep.idle_fraction(), 0.33);
}

TEST(Schedulers, MetaqBeatsNaive) {
  cluster::Cluster cl(sierra_like(128));
  auto w = campaign(256);
  w.with_contractions = false;
  const auto tasks = make_campaign(w);
  const auto naive = run_naive_bundling(cl, tasks);
  const auto metaq = run_metaq(cl, tasks);
  EXPECT_LT(metaq.makespan, naive.makespan);
  EXPECT_LT(metaq.idle_fraction(), naive.idle_fraction());
  // The paper: backfilling gave an across-the-board ~25% speed-up.
  EXPECT_GT(naive.makespan / metaq.makespan, 1.1);
}

TEST(Schedulers, MetaqFragmentsPlacements) {
  // With MIXED task sizes (the realistic campaign: 4-node solves plus
  // 1-node contractions) completing tasks free scattered nodes, so METAQ's
  // first-fit placements drift across block boundaries.  A uniform
  // aligned workload would never fragment — the mix is what bites.
  cluster::Cluster cl(sierra_like(64));
  auto w = campaign(150);
  w.duration_jitter = 0.3;
  w.with_contractions = true;  // 1-node tasks interleave with 4-node ones
  const auto rep = run_metaq(cl, make_campaign(w));
  EXPECT_GT(rep.fragmented_placements, 0);
}

TEST(Schedulers, MpiJmNeverFragments) {
  cluster::Cluster cl(sierra_like(64));
  auto w = campaign(200);
  w.duration_jitter = 0.3;
  const auto rep = run_mpi_jm(cl, make_campaign(w), {.lump_nodes = 16});
  EXPECT_EQ(rep.fragmented_placements, 0);
  for (const auto& r : rep.records) EXPECT_FALSE(r.spans_blocks);
}

TEST(Schedulers, MpiJmCoschedulesContractions) {
  cluster::Cluster cl(sierra_like(32));
  const auto rep =
      run_mpi_jm(cl, make_campaign(campaign(64)), {.lump_nodes = 16});
  EXPECT_GT(rep.cpu_tasks_coscheduled, 0);
}

TEST(Schedulers, MpiJmAtLeastAsEfficientAsMetaq) {
  cluster::Cluster cl(sierra_like(128));
  const auto tasks = make_campaign(campaign(400));
  const auto metaq = run_metaq(cl, tasks);
  const auto jm = run_mpi_jm(cl, tasks, {.lump_nodes = 32});
  EXPECT_LE(jm.makespan, metaq.makespan * 1.05);
}

TEST(Schedulers, MpiJmStartupScalesGently) {
  // Paper: 4224 nodes up and running in 3-5 minutes.
  cluster::ClusterSpec spec = sierra_like(4224);
  cluster::Cluster cl(spec);
  auto w = campaign(50);
  w.with_contractions = false;
  const auto rep = run_mpi_jm(cl, make_campaign(w), {.lump_nodes = 128});
  EXPECT_GT(rep.startup_time, 60.0);
  EXPECT_LT(rep.startup_time, 300.0);
}

TEST(Schedulers, MpiJmDropsLumpsWithBadNodes) {
  auto spec = sierra_like(256);
  spec.bad_node_prob = 0.02;
  cluster::Cluster cl(spec);
  auto w = campaign(64);
  w.with_contractions = false;
  const auto rep = run_mpi_jm(cl, make_campaign(w), {.lump_nodes = 8});
  // Everything still completes despite bad nodes (lumps dropped, work
  // rescheduled on the survivors).
  EXPECT_EQ(rep.tasks_completed, 64);
}

TEST(Schedulers, MvapichRateFactorSlowsJobs) {
  cluster::Cluster cl(sierra_like(64));
  auto w = campaign(64);
  w.with_contractions = false;
  const auto tasks = make_campaign(w);
  const auto tuned = run_mpi_jm(cl, tasks, {.lump_nodes = 16});
  MpiJmOptions untuned;
  untuned.lump_nodes = 16;
  untuned.mpi_rate_factor = 0.75;  // 15% vs 20% of peak at scale
  const auto slow = run_mpi_jm(cl, tasks, untuned);
  EXPECT_GT(slow.makespan, tuned.makespan * 1.1);
}

TEST(Schedulers, GpuGranularPlacement) {
  // Summit example (S VII): jobs that use a subset of each node's GPUs can
  // share nodes under mpi_jm.
  cluster::ClusterSpec spec = sierra_like(8);
  spec.node.gpus = 6;  // Summit nodes
  spec.nodes_per_block = 8;
  cluster::Cluster cl(spec);

  std::vector<Task> tasks;
  for (int j = 0; j < 3; ++j) {
    Task t;
    t.id = j;
    t.kind = TaskKind::GpuSolve;
    t.nodes = 8;
    t.gpus_per_node = 2;  // 16 GPUs spread as 2/node over 8 nodes
    t.cpu_slots_per_node = 2;
    t.duration = 500;
    tasks.push_back(t);
  }
  const auto rep = run_mpi_jm(cl, tasks, {.lump_nodes = 8});
  EXPECT_EQ(rep.tasks_completed, 3);
  // All three must run CONCURRENTLY on the same 8 nodes (6 GPUs = 3 x 2).
  double latest_start = 0, earliest_end = 1e30;
  for (const auto& r : rep.records) {
    latest_start = std::max(latest_start, r.start);
    earliest_end = std::min(earliest_end, r.end);
  }
  EXPECT_LT(latest_start, earliest_end);
}

TEST(Schedulers, ReportSummariesMentionScheduler) {
  cluster::Cluster cl(sierra_like(16));
  auto w = campaign(8);
  const auto rep = run_metaq(cl, make_campaign(w));
  EXPECT_NE(rep.summary().find("metaq"), std::string::npos);
}

}  // namespace
}  // namespace femto::jm
