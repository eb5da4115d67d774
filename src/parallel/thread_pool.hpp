#pragma once
// femtopar: a small persistent thread pool used as the execution engine for
// every lattice kernel in the library.
//
// The paper offloads its stencil and BLAS kernels to GPUs via CUDA; our
// substitution (see DESIGN.md) runs the identical numerics on CPU threads.
// The pool exposes the two primitives the kernels need:
//
//   * parallel_for(begin, end, body)   -- static partition of an index range
//   * parallel_reduce_n(begin, end, ncomp, ...) -- per-chunk partials
//     combined in a fixed order over a decomposition that depends only on
//     the range, so reductions are bitwise identical for ANY worker count
//     (mirroring QUDA's deterministic double-precision reductions, which
//     the mixed-precision solver relies on; see DESIGN.md §8).
//
// A launch posts its chunks and the caller claims chunks from a shared
// counter alongside the workers; the launch returns once every chunk has
// run.  A worker that has run its chunks SPINS on the launch epoch for a
// bounded budget (kSpinBudget, with the CPU's relax hint and periodic
// yields) before it parks on a condition variable, so the next launch of
// a solver iteration finds it awake; the caller likewise spins on the
// done count before it waits.  A launch wakes only the parked workers its
// chunks need beyond those already spinning, so a pool wider than the
// CPUs it gets does not keep waking threads that only compete with the
// ones already running.  A worker that wakes late (its CPU busy
// elsewhere) finds the chunks taken and goes back to spinning and
// parking, so no launch waits on a thread the scheduler has not run yet.
// Which thread runs a chunk never changes the chunk boundaries, so
// results do not depend on it.  The dslash autotuner (src/autotune) sizes
// the stencil's work per thread the way QUDA tunes a CUDA block size.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/check.hpp"

namespace femto::par {

/// Number of workers to use when the caller does not specify: the value of
/// the FEMTO_THREADS environment variable when set to a positive integer,
/// otherwise the number of CPUs in the process's affinity mask (the
/// hardware concurrency where that is unavailable), capped by the cgroup
/// CPU quota when one is set, with a floor of 1.
std::size_t default_thread_count();

/// CPUs a cgroup CPU quota grants, ceil(quota / period), from the text
/// "<quota> <period>": a cgroup v2 `cpu.max`, or v1's `cpu.cfs_quota_us`
/// and `cpu.cfs_period_us` joined by a space.  0 means no limit: a quota
/// of "max" (v2) or -1 (v1), or text that is not two such numbers.
std::size_t cpu_quota_cpus(const std::string& text);

/// cpu_quota_cpus() of the cgroup mounted at /sys/fs/cgroup (a
/// container's own under a cgroup namespace): v2 `cpu.max`, else v1's cfs
/// files under the cpu controller.  0 when no quota is set or readable.
std::size_t cgroup_cpu_limit();

/// A persistent pool of worker threads executing range-based kernels.
///
/// The pool is not copyable or movable; it owns its threads for its whole
/// lifetime (RAII: the destructor joins all workers).
class ThreadPool {
 public:
  /// Create a pool with @p n_threads workers (0 = default_thread_count()).
  explicit ThreadPool(std::size_t n_threads = 0);
  ~ThreadPool();

  /// How long a worker that has run its chunks (and a caller whose chunks
  /// are still running elsewhere) spins before it parks: a few stencil or
  /// BLAS launches of one solver iteration on a 4^4 lattice, so the
  /// launches of an iteration hand off to awake workers, while a worker
  /// idle for longer than that (between solves, on a crowded box) gives
  /// its CPU back.
  static constexpr std::chrono::microseconds kSpinBudget{50};

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of workers (always >= 1; the calling thread participates).
  std::size_t size() const { return n_threads_; }

  /// Execute @p body(i) for every i in [begin, end).  The range is split
  /// into `size()` contiguous chunks.  Blocks until all iterations finish.
  ///
  /// @p grain: minimum iterations per worker; below it the pool shrinks the
  /// number of participating workers to keep per-thread work above the
  /// launch overhead.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Like parallel_for but the body receives the chunk [chunk_begin,
  /// chunk_end) instead of a single index, avoiding a std::function call
  /// per iteration for tight kernels.
  void parallel_for_chunked(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body,
      std::size_t grain = 1);

  /// Deterministic N-component reduction.  @p chunk_body receives a chunk
  /// [lo, hi) and a pointer to its @p ncomp-slot partial accumulator
  /// (zero-initialised); the @p ncomp sums over chunks, taken in chunk
  /// order, are written to @p out.  The result is independent of thread
  /// scheduling.
  ///
  /// The body is free to MUTATE the data it walks: chunks are disjoint
  /// and each is visited by exactly one worker, so a fused update+reduce
  /// kernel (y += a*x accumulating ||y||^2) is race-free and, with the
  /// thread-count-independent decomposition and the fixed combination
  /// order, bitwise deterministic for any worker count.  This is the
  /// primitive behind the fused BLAS kernels in lattice/blas.hpp.
  void parallel_reduce_n(
      std::size_t begin, std::size_t end, std::size_t ncomp,
      const std::function<void(std::size_t, std::size_t, double*)>& chunk_body,
      double* out, std::size_t grain = 1);

  /// The process-wide pool most kernels use.  Constructed on first use.
  static ThreadPool& global();

 private:
  using Body = std::function<void(std::size_t, std::size_t)>;
  struct Task {
    // Chunked task: threads claim chunk ids and run body over their range.
    const Body* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t n_chunks = 0;
    std::uint64_t epoch = 0;
  };

  void worker_loop();
  // Claims and runs chunks of @p task until none is left; true when this
  // call ran the launch's last chunk.
  bool run_claimed(const Task& task);
  static std::pair<std::size_t, std::size_t> chunk_range(std::size_t begin,
                                                         std::size_t end,
                                                         std::size_t n_chunks,
                                                         std::size_t chunk);

  const std::size_t n_threads_;  // fixed at construction
  std::vector<std::thread> workers_;

  // Serialises concurrent launches from different caller threads; a launch
  // from inside one of this pool's own workers runs inline instead (see
  // .cpp), so re-entrant use cannot deadlock.  Lock order (DESIGN.md
  // §8): launch_mu_ -> mu_, always in that direction.
  std::mutex launch_mu_;

  // Kernel hand-off.  A launch stores its task's fields and then its
  // epoch in posted_ (release), under mu_ so that a worker about to park
  // cannot miss it; spinning workers read them without mu_.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::atomic<const Body*> body_{nullptr};
  std::atomic<std::size_t> begin_{0};
  std::atomic<std::size_t> end_{0};
  std::atomic<std::size_t> n_chunks_{0};
  std::atomic<std::uint64_t> posted_{0};
  // Set under mu_ by the destructor; spinning workers poll it too.
  std::atomic<bool> stop_{false};
  // Workers spinning on posted_: a launch counts them as awake and wakes
  // parked workers only for the chunks beyond them.
  std::atomic<std::size_t> spinning_{0};
  // True while the launcher waits on cv_done_: only then does the worker
  // that ran the last chunk take mu_ to notify it.
  std::atomic<bool> launcher_parked_{false};

  // Chunk claims of the current launch: the epoch's low 32 bits above the
  // number of chunks not yet claimed, so a worker still holding an older
  // task can never claim a chunk of a newer one.  Reset (with done_) when
  // a launch is posted.
  std::atomic<std::uint64_t> claim_{0};
  // Chunks of the current launch that have finished running.
  std::atomic<std::size_t> done_{0};
};

/// Convenience wrappers over ThreadPool::global().
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain = 1);

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain = 1);

void parallel_reduce_n(
    std::size_t begin, std::size_t end, std::size_t ncomp,
    const std::function<void(std::size_t, std::size_t, double*)>& chunk_body,
    double* out, std::size_t grain = 1);

}  // namespace femto::par
