#pragma once
// femtotune: a run-time kernel autotuner modelled on QUDA's.
//
// From the paper (S IV, "GPU Kernel Autotuning"): "a brute-force search
// through launch parameter space is performed the first time an un-tuned
// kernel or algorithm is encountered.  Once the optimum launch
// configuration is known, this is stored in a std::map, and is
// subsequently looked up on demand...  Each entry in the map is given a
// unique identifier which stores the optimum launch parameters, as well as
// other metadata, such as performance metrics...  The class structure
// makes it easy to manage the backup/restore of input data in the case of
// data-destructive algorithms."
//
// We reproduce that architecture: a Tunable interface with a keyed cache,
// brute-force search, per-entry performance metadata, backup/restore
// hooks, and (de)serialisation of the cache so later runs skip tuning.
// Our "launch parameters" are the CPU kernel knobs (work-chunk grain,
// thread count) instead of CUDA block/grid shapes; the framework is
// identical.  The same machinery tunes the communication policy (S V,
// "Communication Autotuning") — see policy_tunable.hpp.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/check.hpp"

namespace femto::tune {

/// One point in a kernel's launch-parameter space: named integer knobs.
struct TuneParam {
  std::map<std::string, std::int64_t> knobs;

  std::int64_t get(const std::string& name, std::int64_t def = 0) const {
    auto it = knobs.find(name);
    return it == knobs.end() ? def : it->second;
  }

  std::string to_string() const;
  bool operator==(const TuneParam& o) const { return knobs == o.knobs; }
};

/// What a kernel must expose to be tunable.
class Tunable {
 public:
  virtual ~Tunable() = default;

  /// Unique cache key: kernel name + every parameter that changes the
  /// optimum (volume, precision, subset...).  QUDA calls this TuneKey.
  virtual std::string key() const = 0;

  /// The candidate launch-parameter space to brute-force.
  virtual std::vector<TuneParam> candidates() const = 0;

  /// Execute the kernel once with the given parameters.
  virtual void apply(const TuneParam& p) = 0;

  /// Hooks for data-destructive kernels: called before/after the search so
  /// tuning does not corrupt live fields.
  virtual void backup() {}
  virtual void restore() {}

  /// Output verification, once per search: the tuner applies
  /// candidates()[0] and calls save_reference(); after each candidate's
  /// warm-up call, matches_reference() decides whether its output agrees
  /// with that reference (within the kernel's own accuracy contract).  A
  /// candidate that disagrees is rejected and never timed.  The defaults
  /// accept everything, for kernels with no checkable output.
  virtual void save_reference() {}
  virtual bool matches_reference() const { return true; }

  /// Optional metrics per apply() for the cache metadata.
  virtual std::int64_t flops_per_call() const { return 0; }
  virtual std::int64_t bytes_per_call() const { return 0; }
};

/// Cache entry: the winning parameters plus performance metadata.
struct TuneEntry {
  TuneParam param;
  double seconds = 0.0;    ///< best observed time per call
  double gflops = 0.0;
  double gbytes = 0.0;     ///< effective bandwidth
  int candidates_tried = 0;
  int rejected = 0;           ///< candidates whose output failed verification
  int hits = 0;               ///< lookups served from this entry
  double search_seconds = 0.0;  ///< wall time the brute-force search cost
};

/// The tuner: keyed cache + brute-force search.
class Autotuner {
 public:
  /// Process-wide instance (kernels share one cache, like QUDA).
  static Autotuner& global();

  Autotuner() = default;

  /// Look up the kernel's entry, running the brute-force search on a miss.
  /// Thread-safe.
  const TuneEntry& tune(Tunable& t);

  /// True if the key is already tuned.
  bool contains(const std::string& key) const;

  /// Manually insert (used by tests and by cache loading).
  void insert(const std::string& key, TuneEntry entry);

  /// Persist / restore the cache (QUDA's tunecache.tsv equivalent).
  void save(const std::string& path) const;
  /// Returns number of entries loaded; unknown files load zero entries.
  int load(const std::string& path);

  void clear();
  std::size_t size() const;

  /// Telemetry.
  std::int64_t cache_hits() const;
  std::int64_t cache_misses() const;

  /// Number of timing repetitions per candidate (min is taken).
  void set_reps(int reps) { reps_ = reps; }

 private:
  TuneEntry search(Tunable& t) const;

  // Lock order (DESIGN.md §8): mu_ may be held while obs::Registry::mu_
  // is taken (counter updates inside tune()); never take mu_ while
  // holding a Registry or thread-pool mutex.
  mutable std::mutex mu_;
  std::map<std::string, TuneEntry> cache_ FEMTO_GUARDED_BY(mu_);
  std::int64_t hits_ FEMTO_GUARDED_BY(mu_) = 0;
  std::int64_t misses_ FEMTO_GUARDED_BY(mu_) = 0;
  // Read inside search(), which deliberately runs outside mu_ (the timing
  // loop must not serialise against cache lookups), so atomic not guarded.
  std::atomic<int> reps_{3};
};

}  // namespace femto::tune
