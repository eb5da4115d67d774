#pragma once
// The bench harness: the one timer, flop/byte read-out and BENCH JSON
// writer of every microbench under bench/.
//
// Timing is min-of-reps wall clock, the autotuner's convention: the
// minimum is the least-noisy estimator of the achievable rate on a shared
// machine.  The kernels compared in one row run round-robin inside every
// rep, so a machine-state change (frequency step, noisy neighbour) hits
// all of them alike instead of whichever one was being timed at the moment.
//
// Rates divide the library's own charge to flops::Counter (the paper's
// "add up the necessary number of operations") by measured time; a bench
// never re-derives a flop or byte count by hand.
//
// A BENCH file is one flat JSON object of numbers under dotted names
// ({"stream.full18.gbps": 6.03, ...}), the names benchdiff flattens to.  A
// bench that makes a claim writes it as a `<claim>_gate_ok` 0/1 row,
// computed next to the claim's named threshold; bench/baseline.json gates
// those rows and benchdiff is their only judge.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "lattice/flops.hpp"
#include "obs/json.hpp"
#include "obs/wallclock.hpp"

namespace femto::bench {

/// Seconds per call of each of @p fns.  Every fn is first called @p warm
/// times untimed; then each of @p reps reps times @p inner back-to-back
/// calls of every fn in turn.  Returns each fn's minimum over the reps.
inline std::vector<double> min_seconds(
    const std::vector<std::function<void()>>& fns, int inner, int reps,
    int warm) {
  for (const auto& fn : fns)
    for (int i = 0; i < warm; ++i) fn();
  std::vector<double> best(fns.size(), 1e300);
  for (int r = 0; r < reps; ++r)
    for (std::size_t k = 0; k < fns.size(); ++k) {
      const obs::Stopwatch sw;
      for (int i = 0; i < inner; ++i) fns[k]();
      best[k] = std::min(best[k], sw.seconds() / inner);
    }
  return best;
}

/// What one call adds to flops::Counter.
struct Charge {
  std::int64_t flops = 0;
  std::int64_t bytes = 0;
};

/// Calls @p fn once and returns its charge, read as a before/after delta.
inline Charge charge(const std::function<void()>& fn) {
  const std::int64_t flops0 = flops::get();
  const std::int64_t bytes0 = flops::bytes();
  fn();
  return {flops::get() - flops0, flops::bytes() - bytes0};
}

/// GFLOP/s or GB/s: @p count flops or bytes done in @p seconds.
inline double giga_per_s(std::int64_t count, double seconds) {
  return static_cast<double>(count) / seconds / 1e9;
}

/// The rows of one BENCH file, written in insertion order.
class Report {
 public:
  void set(std::string name, double value) {
    rows_.emplace_back(std::move(name), value);
  }

  /// Writes {"name": value, ...} to @p path and says so on stdout; false
  /// (with a message on stderr) when the file cannot be written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << '{';
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << (i == 0 ? "\n  \"" : ",\n  \"")
          << obs::json_escape(rows_[i].first)
          << "\": " << obs::json_number(rows_[i].second);
    out << "\n}\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::vector<std::pair<std::string, double>> rows_;
};

}  // namespace femto::bench
