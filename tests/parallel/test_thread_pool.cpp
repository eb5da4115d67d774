#include "parallel/thread_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace femto::par {
namespace {

TEST(ThreadPool, SizeIsAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  ThreadPool pool3(3);
  EXPECT_EQ(pool3.size(), 3u);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  int count = 0;
  pool.parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ThreadPool, ChunkedCoversRangeWithoutOverlap) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(977);  // prime-ish size, uneven chunks
  pool.parallel_for_chunked(0, hits.size(),
                            [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                            });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainLimitsParallelism) {
  ThreadPool pool(8);
  // With grain = range size, only one chunk should run.
  std::atomic<int> chunks{0};
  pool.parallel_for_chunked(
      0, 100, [&](std::size_t, std::size_t) { chunks++; }, 100);
  EXPECT_EQ(chunks.load(), 1);
}

TEST(ThreadPool, ReduceMatchesSerialSum) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  const double got = pool.parallel_reduce(0, n, [](std::size_t lo,
                                                   std::size_t hi) {
    double s = 0;
    for (std::size_t i = lo; i < hi; ++i) s += static_cast<double>(i);
    return s;
  });
  EXPECT_DOUBLE_EQ(got, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(ThreadPool, ReduceIsDeterministicAcrossRepeats) {
  ThreadPool pool(4);
  std::vector<double> vals(50000);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 1.0 / static_cast<double>(i + 1);
  auto run = [&] {
    return pool.parallel_reduce(0, vals.size(),
                                [&](std::size_t lo, std::size_t hi) {
                                  double s = 0;
                                  for (std::size_t i = lo; i < hi; ++i)
                                    s += vals[i];
                                  return s;
                                });
  };
  const double first = run();
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(run(), first);
}

TEST(ThreadPool, Reduce2SumsBothComponents) {
  ThreadPool pool(2);
  auto [a, b] = pool.parallel_reduce2(
      0, 100, [](std::size_t lo, std::size_t hi) {
        double s = 0;
        for (std::size_t i = lo; i < hi; ++i) s += 1.0;
        return std::make_pair(s, 2.0 * s);
      });
  EXPECT_DOUBLE_EQ(a, 100.0);
  EXPECT_DOUBLE_EQ(b, 200.0);
}

TEST(ThreadPool, NestedUseOfDifferentPools) {
  // A kernel running on one pool may use another pool internally.
  ThreadPool outer(2);
  ThreadPool inner(2);
  std::atomic<int> total{0};
  outer.parallel_for(0, 4, [&](std::size_t) {
    inner.parallel_for(0, 4, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

TEST(ThreadPool, ManySequentialLaunches) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int rep = 0; rep < 200; ++rep)
    pool.parallel_for(0, 64, [&](std::size_t) { total++; });
  EXPECT_EQ(total.load(), 200 * 64);
}

TEST(ThreadPool, OversubscribedLaunchesRunEveryChunkOnce) {
  // More workers than CPUs: most wake after their launch's chunks are
  // taken, or after a newer launch is posted, and must claim nothing of
  // it.  Every index still runs exactly once per launch.
  ThreadPool pool(32);
  std::vector<std::atomic<int>> hits(96);
  for (int rep = 0; rep < 500; ++rep)
    pool.parallel_for_chunked(0, hits.size(),
                              [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                              });
  for (auto& h : hits) EXPECT_EQ(h.load(), 500);
}

TEST(ThreadPool, NestedLaunchOnTheSamePoolRunsInline) {
  // A chunk body that launches on its own pool (the caller's chunks and
  // the workers' alike) runs the inner launch inline instead of waiting
  // on the launch it is part of.
  ThreadPool pool(4);
  std::atomic<int> total{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    pool.parallel_for(0, 4, [&](std::size_t) { total++; });
  });
  EXPECT_EQ(total.load(), 16);
}

// The hand-off between launches: a worker that has run its chunks spins on
// the launch epoch for ThreadPool::kSpinBudget, then parks; a launch wakes
// only the parked workers its chunks need beyond the spinning ones.

TEST(ThreadPool, LaunchesAfterWorkersParkRunEveryChunkOnce) {
  // A sleep past the spin budget parks every worker before each launch.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  constexpr int kReps = 20;
  for (int rep = 0; rep < kReps; ++rep) {
    std::this_thread::sleep_for(2 * ThreadPool::kSpinBudget +
                                std::chrono::milliseconds(1));
    pool.parallel_for_chunked(0, hits.size(),
                              [&](std::size_t lo, std::size_t hi) {
                                for (std::size_t i = lo; i < hi; ++i) hits[i]++;
                              });
  }
  for (auto& h : hits) EXPECT_EQ(h.load(), kReps);
}

TEST(ThreadPool, BackToBackLaunchesRunEveryChunkOnce) {
  // Launches inside the budget find the workers of the previous one
  // spinning; 1 to 4 chunks, so some need fewer workers than spin.
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(96);
  constexpr int kReps = 2000;
  for (int rep = 0; rep < kReps; ++rep)
    pool.parallel_for_chunked(
        0, hits.size(),
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) hits[i]++;
        },
        hits.size() / static_cast<std::size_t>(1 + rep % 4));
  for (auto& h : hits) EXPECT_EQ(h.load(), kReps);
}

TEST(ThreadPool, DestroyedWhileWorkersSpinJoinsPromptly) {
  for (int rep = 0; rep < 50; ++rep) {
    auto pool = std::make_unique<ThreadPool>(4);
    std::atomic<int> total{0};
    pool->parallel_for(0, 4, [&](std::size_t) { total++; });
    const auto t0 = std::chrono::steady_clock::now();
    pool.reset();  // its workers are still inside their spin budget
    EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(1));
    EXPECT_EQ(total.load(), 4);
  }
}

TEST(ThreadPool, NestedLaunchFromASpinningWorkerRunsInline) {
  // The first launch leaves its workers spinning; a chunk of the second
  // that one of them claims launches on the same pool, and that inner
  // launch runs inline on the worker's thread.
  ThreadPool pool(4);
  pool.parallel_for(0, 4, [](std::size_t) {});
  const auto caller = std::this_thread::get_id();
  std::atomic<int> entered{0}, on_workers{0}, inner{0}, inner_inline{0};
  pool.parallel_for(0, 4, [&](std::size_t) {
    // Hold each chunk until a second thread runs one, so a worker claims
    // a chunk (bounded: a worker that never comes fails below instead of
    // hanging the test).
    entered++;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (entered.load() < 2 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
    const auto me = std::this_thread::get_id();
    if (me != caller) on_workers++;
    pool.parallel_for(0, 8, [&](std::size_t) {
      inner++;
      if (std::this_thread::get_id() == me) inner_inline++;
    });
  });
  EXPECT_GT(on_workers.load(), 0);
  EXPECT_EQ(inner.load(), 32);
  EXPECT_EQ(inner_inline.load(), 32);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool) {
  // Launches from several threads serialise on the pool; each caller's
  // chunks run exactly once and never under another caller's launch.
  ThreadPool pool(4);
  constexpr int kCallers = 3;
  constexpr int kReps = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(50);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < kReps; ++rep)
        pool.parallel_for(0, hits[c].size(),
                          [&](std::size_t i) { hits[c][i]++; });
    });
  for (auto& t : callers) t.join();
  for (const auto& h : hits)
    for (const auto& x : h) EXPECT_EQ(x.load(), kReps);
}

TEST(ThreadPool, ReduceNMatchesSerialComponents) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  double out[3] = {-1.0, -1.0, -1.0};
  pool.parallel_reduce_n(
      0, n, 3,
      [](std::size_t lo, std::size_t hi, double* acc) {
        double s0 = 0, s1 = 0, s2 = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const double v = static_cast<double>(i);
          s0 += 1.0;
          s1 += v;
          s2 += v * v;
        }
        acc[0] = s0;
        acc[1] = s1;
        acc[2] = s2;
      },
      out);
  EXPECT_DOUBLE_EQ(out[0], static_cast<double>(n));
  EXPECT_DOUBLE_EQ(out[1], static_cast<double>(n) * (n - 1) / 2.0);
  double s2 = 0;
  for (std::size_t i = 0; i < n; ++i)
    s2 += static_cast<double>(i) * static_cast<double>(i);
  EXPECT_DOUBLE_EQ(out[2], s2);
}

TEST(ThreadPool, ReduceNZeroesOutputOnEmptyRange) {
  ThreadPool pool(4);
  double out[2] = {99.0, 99.0};
  pool.parallel_reduce_n(
      5, 5, 2, [](std::size_t, std::size_t, double*) { FAIL(); }, out);
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(ThreadPool, ReduceNBodyMayMutateData) {
  // The fused-kernel contract: chunk bodies update the data they walk while
  // accumulating.  Chunks are disjoint so this is race-free; every element
  // must end up updated exactly once and the sum must match.
  ThreadPool pool(4);
  std::vector<double> vals(9973, 1.0);
  double sum = 0.0;
  pool.parallel_reduce_n(
      0, vals.size(), 1,
      [&](std::size_t lo, std::size_t hi, double* acc) {
        double s = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          vals[i] += 2.0;
          s += vals[i];
        }
        acc[0] = s;
      },
      &sum);
  EXPECT_DOUBLE_EQ(sum, 3.0 * static_cast<double>(vals.size()));
  for (const double v : vals) ASSERT_EQ(v, 3.0);
}

TEST(ThreadPool, ReduceNDeterministicAcrossThreadCountSweep) {
  // Repeated runs are bit-identical, and -- because the chunk
  // decomposition depends only on the range -- so are runs under
  // different worker counts.
  std::vector<double> vals(50000);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 1.0 / static_cast<double>(i + 1);
  auto run = [&](ThreadPool& pool) {
    double out[2] = {0.0, 0.0};
    pool.parallel_reduce_n(
        0, vals.size(), 2,
        [&](std::size_t lo, std::size_t hi, double* acc) {
          double s = 0, q = 0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += vals[i];
            q += vals[i] * vals[i];
          }
          acc[0] = s;
          acc[1] = q;
        },
        out);
    return std::make_pair(out[0], out[1]);
  };
  const std::size_t counts[] = {1, 2, 3, 4, 8};
  double ref_s = 0.0, ref_q = 0.0;
  {
    ThreadPool serial(1);
    const auto ref = run(serial);
    ref_s = ref.first;
    ref_q = ref.second;
  }
  for (const std::size_t nt : counts) {
    ThreadPool pool(nt);
    const auto first = run(pool);
    for (int rep = 0; rep < 3; ++rep) {
      const auto again = run(pool);
      EXPECT_EQ(again.first, first.first) << "threads=" << nt;
      EXPECT_EQ(again.second, first.second) << "threads=" << nt;
    }
    EXPECT_EQ(first.first, ref_s) << "threads=" << nt;
    EXPECT_EQ(first.second, ref_q) << "threads=" << nt;
  }
}

TEST(ThreadPool, DefaultThreadCountReadsFemtoThreads) {
  // FEMTO_THREADS pins the default worker count (the cross-thread-count
  // golden determinism test re-execs itself under it); garbage or zero
  // falls back to the CPU count.
  const char* saved = std::getenv("FEMTO_THREADS");
  const std::string restore = saved ? saved : "";
  setenv("FEMTO_THREADS", "5", 1);
  EXPECT_EQ(default_thread_count(), 5u);
  setenv("FEMTO_THREADS", "0", 1);
  EXPECT_GE(default_thread_count(), 1u);
  setenv("FEMTO_THREADS", "banana", 1);
  EXPECT_GE(default_thread_count(), 1u);
  if (saved)
    setenv("FEMTO_THREADS", restore.c_str(), 1);
  else
    unsetenv("FEMTO_THREADS");
}

TEST(ThreadPool, CpuQuotaParsesCgroupText) {
  // cgroup v2 cpu.max, and v1's quota and period files joined by a space.
  EXPECT_EQ(cpu_quota_cpus("max 100000\n"), 0u);
  EXPECT_EQ(cpu_quota_cpus("200000 100000\n"), 2u);
  EXPECT_EQ(cpu_quota_cpus("150000 100000"), 2u);  // rounds up
  EXPECT_EQ(cpu_quota_cpus("50000 100000"), 1u);
  EXPECT_EQ(cpu_quota_cpus("-1\n 100000\n"), 0u);  // v1: no quota
  EXPECT_EQ(cpu_quota_cpus("400000\n 100000\n"), 4u);
  // Malformed: no limit, never a zero-worker pool.
  for (const char* bad : {"", " ", "max", "100000", "banana 100000",
                          "200000 0", "200000 -5", "0 100000",
                          "200000 100000 7", "2e5 100000", "200000 1e5"})
    EXPECT_EQ(cpu_quota_cpus(bad), 0u) << "'" << bad << "'";
}

#if defined(__linux__)
TEST(ThreadPool, DefaultThreadCountFollowsTheAffinityMask) {
  // Without FEMTO_THREADS the default is the CPUs this thread may run on
  // (capped by a cgroup CPU quota when one is set), not the machine's
  // count: pin the thread to one of its CPUs and the default drops to 1.
  const char* saved = std::getenv("FEMTO_THREADS");
  const std::string restore = saved ? saved : "";
  unsetenv("FEMTO_THREADS");
  cpu_set_t old_mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(old_mask), &old_mask), 0);
  const auto mask_cpus = static_cast<std::size_t>(CPU_COUNT(&old_mask));
  const std::size_t quota = cgroup_cpu_limit();
  EXPECT_EQ(default_thread_count(),
            quota > 0 ? std::min(mask_cpus, quota) : mask_cpus);
  int first = 0;
  while (!CPU_ISSET(first, &old_mask)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(default_thread_count(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(old_mask), &old_mask), 0);
  if (saved) setenv("FEMTO_THREADS", restore.c_str(), 1);
}
#endif

TEST(GlobalHelpers, ParallelForAndReduce) {
  std::atomic<int> n{0};
  parallel_for(0, 10, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 10);
  const double s = parallel_reduce(0, 10, [](std::size_t lo, std::size_t hi) {
    return static_cast<double>(hi - lo);
  });
  EXPECT_DOUBLE_EQ(s, 10.0);
}

}  // namespace
}  // namespace femto::par
