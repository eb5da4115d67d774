#pragma once
// Femtoscope metrics registry: named counters, gauges, and log2-bucketed
// histograms, plus structured per-solve records.  This is the single sink
// that unifies the tree's previously ad-hoc telemetry (flops::Counter
// traffic, autotune hit/miss, halo bytes, thread-pool launches, job-manager
// busy/idle) so the end-of-run report can compute sustained performance
// from MEASURED data.
//
// Concurrency contract: metric objects are lock-free atomics, safe to
// update from kernels and pool workers.  Name lookup takes the registry
// lock; hot paths should cache the reference once:
//
//   static obs::Counter& bytes = obs::counter("comm.halo_bytes");
//   bytes.add(n);
//
// Cached references stay valid forever: the registry never erases a
// metric -- reset() zeroes values but keeps the objects.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/check.hpp"

namespace femto::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double get() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

// Fixed log2 buckets: bucket 0 holds v <= 0, bucket b (1..63) holds values
// with bit_width b, i.e. [2^(b-1), 2^b - 1].  Fixed bounds mean two
// histograms (or two runs) are always mergeable/comparable.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  static int bucket_of(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

  // Inclusive lower bound of bucket b (0 for the <=0 bucket).
  static std::int64_t bucket_lower_bound(int b) {
    if (b <= 0) return 0;
    return std::int64_t{1} << (b - 1);
  }

  void observe(std::int64_t v) {
    buckets_[static_cast<std::size_t>(bucket_of(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

// One residual-history point of an iterative solve.
struct ResidualPoint {
  int iteration = 0;
  double rel_residual = 0.0;
  char precision = 'd';        // 'd' double, 's' single, 'h' half
  bool reliable_update = false;
};

// Structured record of one linear solve, pushed by the solvers and
// surfaced verbatim in the run report.
struct SolveRecord {
  std::string solver;
  bool converged = false;
  int iterations = 0;
  int reliable_updates = 0;
  double final_rel_residual = 0.0;
  double seconds = 0.0;
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
  std::vector<ResidualPoint> history;
};

struct HistogramSnapshot {
  std::string name;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::array<std::int64_t, Histogram::kBuckets> buckets{};
};

// Process-global metric registry.  Lookup is locked; returned references
// are stable for the life of the process.
class Registry {
 public:
  static Registry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  void record_solve(SolveRecord rec);

  // Sorted snapshots for the report writer.
  std::vector<std::pair<std::string, std::int64_t>> counters() const;
  std::vector<std::pair<std::string, double>> gauges() const;
  std::vector<HistogramSnapshot> histograms() const;
  std::vector<SolveRecord> solves() const;
  std::int64_t total_solves() const;

  // Crash-tolerant snapshot for the flight recorder (obs/blackbox.hpp):
  // try_lock, so a dump taken while some thread died holding mu_ degrades
  // to an empty snapshot instead of deadlocking the abort path.  Returns
  // false (outputs untouched) when the lock is unavailable.
  bool try_crash_snapshot(
      std::vector<std::pair<std::string, std::int64_t>>* counters,
      std::vector<std::pair<std::string, double>>* gauges) const;

  // Does NOT erase metric objects (cached references stay valid); zeroes
  // every value and clears the solve log.
  void reset();

  // Caps the retained solve records (oldest evicted); total_solves()
  // keeps counting.
  static constexpr std::size_t kMaxSolveRecords = 256;

 private:
  Registry() = default;

  // Lock order (DESIGN.md §8): mu_ is a LEAF — Autotuner::mu_ and
  // SolveService::mu_ are both legitimately held while counters update
  // under it, so no code path may acquire another tracked mutex (or
  // block) while holding mu_.
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      FEMTO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      FEMTO_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      FEMTO_GUARDED_BY(mu_);
  std::vector<SolveRecord> solves_ FEMTO_GUARDED_BY(mu_);
  std::int64_t total_solves_ FEMTO_GUARDED_BY(mu_) = 0;
};

// Convenience lookups against the global registry.
inline Counter& counter(const std::string& name) {
  return Registry::global().counter(name);
}
inline Gauge& gauge(const std::string& name) {
  return Registry::global().gauge(name);
}
inline Histogram& histogram(const std::string& name) {
  return Registry::global().histogram(name);
}
inline void record_solve(SolveRecord rec) {
  Registry::global().record_solve(std::move(rec));
}

}  // namespace femto::obs
