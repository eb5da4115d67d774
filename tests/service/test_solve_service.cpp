// Async solve service: exactly-once completion under many producers,
// correct solutions (each future's x solves the full Mobius system), and
// determinism — whatever batches the queue timing produces, every result
// is bitwise the one a solo DwfSolver::solve would return, because
// block_mixed_cg keeps per-RHS trajectories independent of batch mates.

#include "service/solve_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "autotune/autotune.hpp"
#include "lattice/gauge.hpp"
#include "obs/flow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace femto {
namespace {

std::shared_ptr<const Geometry> geom44() {
  return std::make_shared<Geometry>(4, 4, 4, 4);
}

const MobiusParams kParams{6, -1.8, 1.5, 0.5, 0.1};

std::shared_ptr<const GaugeField<double>> make_gauge(std::uint64_t seed) {
  auto u = std::make_shared<GaugeField<double>>(geom44());
  weak_gauge(*u, seed, 0.25);
  return u;
}

std::shared_ptr<const SpinorField<double>> make_source(
    const std::shared_ptr<const GaugeField<double>>& u, std::uint64_t seed) {
  auto b = std::make_shared<SpinorField<double>>(u->geom_ptr(), kParams.l5,
                                                 Subset::Full);
  b->gaussian(seed);
  return b;
}

double full_residual(const MobiusOperator<double>& op,
                     const SpinorField<double>& x,
                     const SpinorField<double>& b) {
  SpinorField<double> check(b.geom_ptr(), b.l5(), Subset::Full);
  op.apply_full(check, x);
  blas::axpy(-1.0, b, check);
  return std::sqrt(blas::norm2(check) / blas::norm2(b));
}

TEST(SolveService, BatchedResultsMatchSoloSolveBitwise) {
  auto u = make_gauge(401);
  SolveServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.solver.tol = 1e-10;

  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  for (std::uint64_t r = 0; r < 5; ++r) b.push_back(make_source(u, 410 + r));

  std::vector<std::future<SolveOutcome>> futs;
  {
    SolveService svc(cfg);
    for (const auto& src : b)
      futs.push_back(svc.submit(SolveRequest{u, kParams, src}));
    svc.drain();
    EXPECT_EQ(svc.pending(), 0u);
  }

  DwfSolver solo(u, kParams, cfg.solver);
  for (std::size_t r = 0; r < b.size(); ++r) {
    SolveOutcome out = futs[r].get();
    ASSERT_TRUE(out.x != nullptr);
    ASSERT_TRUE(out.stats.converged) << "r=" << r;
    SpinorField<double> want(u->geom_ptr(), kParams.l5, Subset::Full);
    SolveResult ws = solo.solve(want, *b[r]);
    EXPECT_EQ(out.stats.iterations, ws.iterations) << "r=" << r;
    for (std::int64_t k = 0; k < want.reals(); ++k)
      ASSERT_EQ(out.x->data()[k], want.data()[k]) << "r=" << r << " k=" << k;
  }
}

TEST(SolveService, ManyProducersExactlyOnce) {
  auto u = make_gauge(402);
  SolveServiceConfig cfg;
  cfg.max_batch = 3;
  cfg.workers = 2;
  cfg.solver.tol = 1e-8;

  const int kProducers = 4, kPerProducer = 3;
  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  for (std::uint64_t r = 0; r < kProducers * kPerProducer; ++r)
    b.push_back(make_source(u, 420 + r));

  SolveService svc(cfg);
  std::vector<std::future<SolveOutcome>> futs(b.size());
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::size_t r =
            static_cast<std::size_t>(p) * kPerProducer + i;
        futs[r] = svc.submit(SolveRequest{u, kParams, b[r]});
      }
    });
  }
  for (auto& t : producers) t.join();
  svc.drain();

  // Every future resolves exactly once with a correct solution.
  MobiusOperator<double> op(u, kParams);
  for (std::size_t r = 0; r < b.size(); ++r) {
    ASSERT_TRUE(futs[r].valid()) << "r=" << r;
    SolveOutcome out = futs[r].get();
    ASSERT_TRUE(out.stats.converged) << "r=" << r;
    EXPECT_LT(full_residual(op, *out.x, *b[r]), 1e-6) << "r=" << r;
  }
}

TEST(SolveService, IncompatibleRequestsNeverBatchTogether) {
  auto u1 = make_gauge(403);
  auto u2 = make_gauge(404);
  MobiusParams heavier = kParams;
  heavier.mf = 0.2;

  SolveServiceConfig cfg;
  cfg.max_batch = 8;
  cfg.solver.tol = 1e-8;
  SolveService svc(cfg);

  std::vector<std::future<SolveOutcome>> futs;
  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  std::vector<const GaugeField<double>*> us;
  std::vector<MobiusParams> ps;
  for (std::uint64_t r = 0; r < 6; ++r) {
    auto& u = (r % 2 == 0) ? u1 : u2;
    const MobiusParams p = (r == 5) ? heavier : kParams;
    b.push_back(make_source(u, 430 + r));
    us.push_back(u.get());
    ps.push_back(p);
    futs.push_back(svc.submit(SolveRequest{u, p, b.back()}));
  }
  svc.drain();

  for (std::size_t r = 0; r < futs.size(); ++r) {
    SolveOutcome out = futs[r].get();
    ASSERT_TRUE(out.stats.converged) << "r=" << r;
    // Check against the right operator: a cross-batched request would
    // have been solved on the wrong configuration and fail loudly here.
    std::shared_ptr<const GaugeField<double>> u =
        us[r] == u1.get() ? u1 : u2;
    MobiusOperator<double> op(u, ps[r]);
    EXPECT_LT(full_residual(op, *out.x, *b[r]), 1e-6) << "r=" << r;
  }
}

TEST(SolveService, MetricsAndDestructorDrain) {
  auto u = make_gauge(405);
  SolveServiceConfig cfg;
  cfg.max_batch = 4;
  cfg.solver.tol = 1e-8;

  const std::int64_t completed0 =
      obs::Registry::global().counter("solve_service.completed").get();
  const std::int64_t batches0 =
      obs::Registry::global().counter("solve_service.batches").get();

  std::vector<std::future<SolveOutcome>> futs;
  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  {
    SolveService svc(cfg);
    for (std::uint64_t r = 0; r < 4; ++r) {
      b.push_back(make_source(u, 440 + r));
      futs.push_back(svc.submit(SolveRequest{u, kParams, b.back()}));
    }
    // No drain(): the destructor must resolve everything.
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().stats.converged);

  const std::int64_t completed =
      obs::Registry::global().counter("solve_service.completed").get() -
      completed0;
  const std::int64_t batches =
      obs::Registry::global().counter("solve_service.batches").get() -
      batches0;
  EXPECT_EQ(completed, 4);
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, 4);
  EXPECT_GT(
      obs::Registry::global().histogram("solve_service.batch_size").count(),
      0);
}

TEST(SolveService, DestructUnderLoadResolvesEveryFuture) {
  // Shutdown-ordering regression: tear the service down the instant the
  // last submit returns, with multiple workers mid-flight and a queue deep
  // enough that batches (including a second solver build for the second
  // gauge) are still pending.  The destructor must drain — waiting with
  // mu_ released so workers can fulfil promises — before raising the stop
  // flag, so every future resolves with a converged solution.
  auto u1 = make_gauge(407);
  auto u2 = make_gauge(408);
  SolveServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.workers = 3;
  cfg.solver.tol = 1e-8;

  std::vector<std::future<SolveOutcome>> futs;
  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  std::vector<const GaugeField<double>*> us;
  {
    SolveService svc(cfg);
    for (std::uint64_t r = 0; r < 10; ++r) {
      auto& u = (r % 2 == 0) ? u1 : u2;
      b.push_back(make_source(u, 470 + r));
      us.push_back(u.get());
      futs.push_back(svc.submit(SolveRequest{u, kParams, b.back()}));
    }
    // No drain(), no sleep: destruct under load.
  }
  for (std::size_t r = 0; r < futs.size(); ++r) {
    ASSERT_TRUE(futs[r].valid()) << "r=" << r;
    SolveOutcome out = futs[r].get();
    ASSERT_TRUE(out.stats.converged) << "r=" << r;
    std::shared_ptr<const GaugeField<double>> u =
        us[r] == u1.get() ? u1 : u2;
    MobiusOperator<double> op(u, kParams);
    EXPECT_LT(full_residual(op, *out.x, *b[r]), 1e-6) << "r=" << r;
  }
}

TEST(SolveService, AutotuneSweepsTwiceAtMaxBatch) {
  // With autotune set, the first solver build of a configuration runs the
  // two sweeps its launches need, the double and the float dslash_multi
  // at max_batch, and nothing else; a second service on the same
  // configuration finds both in the cache.  Batches stay within
  // max_batch (3 is the top of a batch_size histogram bucket).
  tune::Autotuner::global().clear();
  obs::Histogram& sizes = obs::histogram("solve_service.batch_size");
  sizes.reset();
  const obs::Counter& misses = obs::counter("autotune.cache_misses");
  const std::int64_t misses0 = misses.get();
  auto u = make_gauge(406);
  SolveServiceConfig cfg;
  cfg.max_batch = 3;
  cfg.autotune = true;
  cfg.solver.tol = 1e-8;

  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  for (std::uint64_t r = 0; r < 5; ++r) b.push_back(make_source(u, 460 + r));
  const auto serve = [&] {
    SolveService svc(cfg);
    std::vector<std::future<SolveOutcome>> futs;
    for (const auto& src : b)
      futs.push_back(svc.submit(SolveRequest{u, kParams, src}));
    svc.drain();
    for (auto& f : futs) EXPECT_TRUE(f.get().stats.converged);
  };
  serve();
  EXPECT_EQ(misses.get() - misses0, 2);
  serve();
  EXPECT_EQ(misses.get() - misses0, 2);
  EXPECT_EQ(tune::Autotuner::global().size(), 2u);
  EXPECT_GT(sizes.count(), 0);
  for (int k = obs::Histogram::bucket_of(cfg.max_batch + 1);
       k < obs::Histogram::kBuckets; ++k)
    EXPECT_EQ(sizes.bucket(k), 0) << "bucket " << k;
  tune::Autotuner::global().clear();
}

// Femtoscope causal layer (DESIGN.md §15): every traced submit records a
// flow-out span that the claiming worker's queue_wait flow-in matches;
// the edge's weight is the request's time-in-queue.
TEST(SolveService, SubmitClaimPairsAsFlowEdges) {
  obs::set_trace_enabled(true);
  obs::trace_clear();
  auto u = make_gauge(409);
  SolveServiceConfig cfg;
  cfg.max_batch = 2;
  cfg.solver.tol = 1e-8;

  constexpr std::uint64_t kReqs = 3;
  std::vector<std::future<SolveOutcome>> futs;
  std::vector<std::shared_ptr<const SpinorField<double>>> b;
  {
    SolveService svc(cfg);
    for (std::uint64_t r = 0; r < kReqs; ++r) {
      b.push_back(make_source(u, 480 + r));
      futs.push_back(svc.submit(SolveRequest{u, kParams, b.back()}));
    }
    svc.drain();
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().stats.converged);

  const auto snap = obs::trace_snapshot();
  std::size_t service_edges = 0;
  for (const auto& e : obs::flow_edges(snap)) {
    if (std::string(e.out.name) != "submit") continue;
    ++service_edges;
    EXPECT_STREQ(e.in.name, "queue_wait");
    EXPECT_GE(e.wait_ns, 0);
  }
  EXPECT_EQ(service_edges, kReqs);
  obs::trace_clear();
}

}  // namespace
}  // namespace femto
