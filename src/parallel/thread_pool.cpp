#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <sched.h>
#endif

#include "obs/metrics.hpp"
#include "simd/relax.hpp"

namespace femto::par {

namespace {
// The pool (if any) whose worker is executing on this thread.  Used to run
// re-entrant launches inline rather than deadlocking on the launch mutex.
thread_local const ThreadPool* t_current_pool = nullptr;

// claim_ layout: launch epoch (low 32 bits) << 32 | chunks left to claim.
constexpr std::uint64_t kChunkMask = 0xffffffffu;
std::uint64_t claim_tag(std::uint64_t epoch) { return epoch << 32; }

// Spin-loop pacing: the clock is read every kSpinsPerCheck relax hints and
// the thread yields every kSpinsPerYield, so a spinner on a crowded CPU
// lets the thread it waits for run.
constexpr std::uint32_t kSpinsPerCheck = 64;
constexpr std::uint32_t kSpinsPerYield = 1024;

// Polls @p ready with the CPU's relax hint for up to the pool's spin
// budget; false when the budget ran out first.
template <typename Ready>
bool spin_until(const Ready& ready) {
  if (ready()) return true;
  const auto deadline =
      std::chrono::steady_clock::now() + ThreadPool::kSpinBudget;
  for (std::uint32_t i = 1;; ++i) {
    simd::cpu_relax();
    if (ready()) return true;
    if (i % kSpinsPerCheck != 0) continue;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    if (i % kSpinsPerYield == 0) std::this_thread::yield();
  }
}

// Upper bound on reduction partials.  The reduce decomposition must be a
// pure function of the range (never of the worker count) for sums to be
// bitwise identical across thread counts; the cap keeps the partial buffer
// and the serial combination loop small on huge ranges.
constexpr std::size_t kReduceChunks = 64;
}  // namespace

std::size_t default_thread_count() {
  // FEMTO_THREADS pins the worker count: the knob CI and the
  // cross-thread-count determinism test turn (they re-run the same solve
  // under FEMTO_THREADS=1/2/7 and demand identical bits).
  if (const char* e = std::getenv("FEMTO_THREADS")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(e, &end, 10);
    if (end != e && *end == '\0' && v >= 1)
      return static_cast<std::size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  std::size_t n = hw == 0 ? 1 : static_cast<std::size_t>(hw);
#if defined(__linux__)
  // The CPUs this process may run on: a container's cpuset or a taskset
  // mask can grant fewer than the machine has, and a pool sized to the
  // machine would then run more workers than CPUs.
  cpu_set_t mask;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0 && CPU_COUNT(&mask) > 0)
    n = static_cast<std::size_t>(CPU_COUNT(&mask));
#endif
  // A CPU quota grants time, not CPUs: a container limited to 2 CPUs' worth
  // of a 64-CPU mask gets its workers descheduled for most of each period.
  const std::size_t quota = cgroup_cpu_limit();
  return quota > 0 ? std::min(n, quota) : n;
}

std::size_t cpu_quota_cpus(const std::string& text) {
  std::istringstream is(text);
  std::string quota, rest;
  long long period = 0;
  if (!(is >> quota >> period) || period <= 0 || (is >> rest)) return 0;
  char* end = nullptr;
  const long long q = std::strtoll(quota.c_str(), &end, 10);
  if (end == quota.c_str() || *end != '\0' || q <= 0) return 0;
  return static_cast<std::size_t>((q + period - 1) / period);
}

std::size_t cgroup_cpu_limit() {
  const auto slurp = [](const char* path) {
    std::ifstream f(path);
    std::ostringstream os;
    if (f) os << f.rdbuf();
    return os.str();
  };
  const std::string v2 = slurp("/sys/fs/cgroup/cpu.max");
  if (!v2.empty()) return cpu_quota_cpus(v2);
  return cpu_quota_cpus(slurp("/sys/fs/cgroup/cpu/cpu.cfs_quota_us") + " " +
                        slurp("/sys/fs/cgroup/cpu/cpu.cfs_period_us"));
}

ThreadPool::ThreadPool(std::size_t n_threads)
    : n_threads_(n_threads == 0 ? default_thread_count() : n_threads) {
  // The calling thread acts as worker 0; we spawn n_threads_-1 helpers.
  workers_.reserve(n_threads_ - 1);
  for (std::size_t i = 1; i < n_threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  obs::gauge("pool.threads").set(static_cast<double>(n_threads_));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(
    std::size_t begin, std::size_t end, std::size_t n_chunks,
    std::size_t chunk) {
  const std::size_t n = end - begin;
  const std::size_t base = n / n_chunks;
  const std::size_t rem = n % n_chunks;
  const std::size_t lo = begin + chunk * base + std::min(chunk, rem);
  const std::size_t hi = lo + base + (chunk < rem ? 1 : 0);
  return {lo, hi};
}

void ThreadPool::worker_loop() {
  // Every launch this thread makes comes from one of this pool's chunks.
  t_current_pool = this;
  std::uint64_t seen_epoch = 0;
  const auto posted = [&] {
    return posted_.load(std::memory_order_acquire) != seen_epoch ||
           stop_.load(std::memory_order_relaxed);
  };
  for (;;) {
    // Spin first: a launch posted within the budget finds this worker
    // awake.  While counted in spinning_, no launch wakes a parked worker
    // on this one's behalf.  A launch reads spinning_ after posting, so a
    // worker that stops counting itself here either sees that launch in
    // its predicate under mu_ below or was not counted by it.
    spinning_.fetch_add(1);
    const bool awake = spin_until(posted);
    spinning_.fetch_sub(1);
    if (!awake) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, posted);
    }
    if (stop_.load(std::memory_order_relaxed)) return;
    Task task;
    task.epoch = posted_.load(std::memory_order_acquire);
    task.body = body_.load(std::memory_order_relaxed);
    task.begin = begin_.load(std::memory_order_relaxed);
    task.end = end_.load(std::memory_order_relaxed);
    task.n_chunks = n_chunks_.load(std::memory_order_relaxed);
    seen_epoch = task.epoch;
    if (run_claimed(task) && launcher_parked_.load()) {
      // Notify under mu_ so the wake-up cannot fall between the
      // launcher's predicate check and its wait.
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

bool ThreadPool::run_claimed(const Task& task) {
  // A claim takes one of the chunks left under this task's epoch tag, so
  // its success proves the launch is still running.  A later launch
  // rewrites the task fields only after every chunk of this one finished,
  // so a task a worker read before its claim is wholly this launch's and
  // task.body is alive.  The count left lives in claim_, not in the task,
  // so a task torn by a newer launch cannot pass.  A chunk's range depends
  // on (begin, end, n_chunks, id) only, never on who claims it or when.
  const std::uint64_t tag = claim_tag(task.epoch);
  bool last = false;
  std::uint64_t cur = claim_.load(std::memory_order_acquire);
  for (;;) {
    if ((cur & ~kChunkMask) != tag) return last;
    const auto left = static_cast<std::size_t>(cur & kChunkMask);
    if (left == 0) return last;
    if (!claim_.compare_exchange_weak(cur, cur - 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire))
      continue;
    const std::size_t chunk = task.n_chunks - left;
    auto [lo, hi] = chunk_range(task.begin, task.end, task.n_chunks, chunk);
    if (lo < hi) (*task.body)(lo, hi);
    last = done_.fetch_add(1) + 1 == task.n_chunks;
    cur = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  std::size_t n_chunks = std::min(n_threads_, (n + grain - 1) / grain);
  n_chunks = std::max<std::size_t>(n_chunks, 1);

  // Metric objects are resolved once; the per-launch cost is one relaxed
  // atomic add (references stay valid: the registry never erases).
  static obs::Counter& obs_inline = obs::counter("pool.inline_runs");
  static obs::Counter& obs_launches = obs::counter("pool.launches");
  static obs::Histogram& obs_depth = obs::histogram("pool.queue_depth");

  // Re-entrant launch from one of our own workers: run inline.
  if (n_chunks == 1 || n_threads_ == 1 || t_current_pool == this) {
    obs_inline.add();
    body(begin, end);
    return;
  }

  obs_launches.add();
  obs_depth.observe(static_cast<std::int64_t>(n_chunks));

  std::lock_guard<std::mutex> launch_lk(launch_mu_);

  Task task;
  task.body = &body;
  task.begin = begin;
  task.end = end;
  task.n_chunks = n_chunks;
  {
    std::lock_guard<std::mutex> lk(mu_);
    task.epoch = posted_.load(std::memory_order_relaxed) + 1;
    body_.store(&body, std::memory_order_relaxed);
    begin_.store(begin, std::memory_order_relaxed);
    end_.store(end, std::memory_order_relaxed);
    n_chunks_.store(n_chunks, std::memory_order_relaxed);
    done_.store(0, std::memory_order_relaxed);
    claim_.store(claim_tag(task.epoch) | n_chunks, std::memory_order_relaxed);
    posted_.store(task.epoch, std::memory_order_release);
  }
  // Wake only the parked workers the chunks need beyond the caller and the
  // workers already spinning on posted_.
  const std::size_t awake = 1 + spinning_.load();
  for (std::size_t i = awake; i < n_chunks; ++i) cv_start_.notify_one();

  // The calling thread claims chunks too; if the workers are slow to
  // wake it runs them all.
  const ThreadPool* prev = t_current_pool;
  t_current_pool = this;
  run_claimed(task);
  t_current_pool = prev;

  // Spin, then park.  launcher_parked_ and done_ are sequentially
  // consistent: the last chunk's worker sees the flag, or this thread sees
  // that chunk done before it waits.
  const auto all_done = [&] { return done_.load() == n_chunks; };
  if (spin_until(all_done)) return;
  std::unique_lock<std::mutex> lk(mu_);
  launcher_parked_.store(true);
  cv_done_.wait(lk, all_done);
  launcher_parked_.store(false);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

void ThreadPool::parallel_reduce_n(
    std::size_t begin, std::size_t end, std::size_t ncomp,
    const std::function<void(std::size_t, std::size_t, double*)>& chunk_body,
    double* out, std::size_t grain) {
  assert(ncomp >= 1);
  for (std::size_t c = 0; c < ncomp; ++c) out[c] = 0.0;
  if (begin >= end) return;
  const std::size_t n = end - begin;
  grain = std::max<std::size_t>(grain, 1);
  // Decomposition depends on (n, grain) only -- NOT on n_threads_ -- so
  // the partial boundaries, and with them every bit of the sum, are the
  // same whether the pool has 1 worker or 64.  Scheduling still adapts to
  // the pool through the inner parallel_for_chunked over chunk ids.
  std::size_t n_chunks = std::min(kReduceChunks, (n + grain - 1) / grain);
  n_chunks = std::max<std::size_t>(n_chunks, 1);

  std::vector<double> partials(n_chunks * ncomp, 0.0);
  parallel_for_chunked(
      0, n_chunks,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t c = lo; c < hi; ++c) {
          auto [a, b] = chunk_range(begin, end, n_chunks, c);
          chunk_body(a, b, partials.data() + c * ncomp);
        }
      },
      1);

  // Fixed chunk order => deterministic for any thread count.
  for (std::size_t c = 0; c < n_chunks; ++c)
    for (std::size_t k = 0; k < ncomp; ++k) out[k] += partials[c * ncomp + k];
}

double ThreadPool::parallel_reduce(
    std::size_t begin, std::size_t end,
    const std::function<double(std::size_t, std::size_t)>& chunk_body,
    std::size_t grain) {
  double sum = 0.0;
  parallel_reduce_n(
      begin, end, 1,
      [&chunk_body](std::size_t lo, std::size_t hi, double* acc) {
        acc[0] = chunk_body(lo, hi);
      },
      &sum, grain);
  return sum;
}

std::pair<double, double> ThreadPool::parallel_reduce2(
    std::size_t begin, std::size_t end,
    const std::function<std::pair<double, double>(std::size_t, std::size_t)>&
        chunk_body,
    std::size_t grain) {
  double sums[2] = {0.0, 0.0};
  parallel_reduce_n(
      begin, end, 2,
      [&chunk_body](std::size_t lo, std::size_t hi, double* acc) {
        auto [re, im] = chunk_body(lo, hi);
        acc[0] = re;
        acc[1] = im;
      },
      sums, grain);
  return {sums[0], sums[1]};
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t grain) {
  ThreadPool::global().parallel_for(begin, end, body, grain);
}

void parallel_for_chunked(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t grain) {
  ThreadPool::global().parallel_for_chunked(begin, end, body, grain);
}

double parallel_reduce(
    std::size_t begin, std::size_t end,
    const std::function<double(std::size_t, std::size_t)>& chunk_body,
    std::size_t grain) {
  return ThreadPool::global().parallel_reduce(begin, end, chunk_body, grain);
}

void parallel_reduce_n(
    std::size_t begin, std::size_t end, std::size_t ncomp,
    const std::function<void(std::size_t, std::size_t, double*)>& chunk_body,
    double* out, std::size_t grain) {
  ThreadPool::global().parallel_reduce_n(begin, end, ncomp, chunk_body, out,
                                         grain);
}

}  // namespace femto::par
