#pragma once
// SolveService: the async propagator-solve front end (DESIGN.md §12).
//
// The paper's Feynman-Hellmann workflow needs dozens of solves per gauge
// configuration (sources x spins x flavors), and the stochastic FH method
// multiplies that further — the ROADMAP's "heavy traffic" story.  Instead
// of calling DwfSolver::solve one RHS at a time, producers submit
// SolveRequests to a thread-safe FIFO queue and get a std::future back;
// worker threads drain the queue, greedily batching COMPATIBLE requests
// (same gauge field, same operator params — i.e. the same preconditioned
// system) up to max_batch B, and run them through DwfSolver::solve_multi
// so the B solves share every gauge-link load.  With autotune on, every
// solver build tunes its dslash for batches of B (the process-wide tune
// cache runs each sweep once per geometry).
//
// Batching policy: a worker pops the oldest pending request, then scans
// the rest of the queue in FIFO order pulling every compatible request
// until the batch holds B.  Incompatible requests are left in place (no
// reordering among themselves), so a config change drains in submission
// order and a single stream of same-config requests batches maximally.
// METAQ (src/jobmgr) models the same claim-from-queue shape at the
// cluster level; this is its in-process, solver-granularity analogue.
//
// Because the mixed-precision CG keeps per-RHS trajectories bitwise
// independent of batch composition (block_cg.hpp), results are
// DETERMINISTIC under any queue timing: however requests interleave into
// batches, each solution equals its batch of one, the solution a solo
// DwfSolver::solve produces.
//
// Telemetry (femtoscope): per-request SolveRecords (solver "mixed_cg"),
// plus
//   solve_service.queue_depth   gauge, sampled at every queue transition
//   solve_service.batch_size    histogram, one observation per batch
//   solve_service.throughput    gauge, completed solves / busy second
//   solve_service.submitted / .completed / .batches   counters

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/check.hpp"
#include "dirac/mobius.hpp"
#include "lattice/field.hpp"
#include "solver/cg.hpp"
#include "solver/dwf_solve.hpp"

namespace femto {

/// One propagator solve: D x = b on the given configuration.  Requests
/// sharing (u, params) are batchable.  Shared ownership keeps the fields
/// alive however long the queue holds them.
struct SolveRequest {
  std::shared_ptr<const GaugeField<double>> u;
  MobiusParams params;
  std::shared_ptr<const SpinorField<double>> b;
};

/// What the future resolves to: the full 5D solution plus solver stats.
struct SolveOutcome {
  std::shared_ptr<SpinorField<double>> x;
  SolveResult stats;
};

struct SolveServiceConfig {
  std::size_t max_batch = 4;  ///< greedy batch bound B
  std::size_t workers = 1;    ///< drain threads
  bool autotune = false;      ///< tune each solver's dslash at B when built
  SolverParams solver;        ///< per-solve tolerances / precisions
};

class SolveService {
 public:
  explicit SolveService(SolveServiceConfig cfg = {});
  /// Drains outstanding work, then joins the workers (every submitted
  /// future is resolved before the destructor returns).  The drain waits
  /// on cv_idle_ with mu_ released for the duration of the block, so
  /// workers fulfilling promises can always reach the lock; only after the
  /// queue and in-flight count hit zero is the stop flag raised.
  ~SolveService();

  SolveService(const SolveService&) = delete;
  SolveService& operator=(const SolveService&) = delete;

  /// Enqueue a solve; the future resolves when a worker completes it.
  /// Requests are never dropped and complete exactly once.
  std::future<SolveOutcome> submit(SolveRequest req);

  /// Block until every request submitted so far has completed.
  void drain();

  /// Pending (not yet claimed) requests.
  std::size_t pending() const;

  const SolveServiceConfig& config() const { return cfg_; }

 private:
  struct Item {
    SolveRequest req;
    std::promise<SolveOutcome> promise;
    // Femtoscope causal link (DESIGN.md §15): submit() records a flow-out
    // span under this id; the claiming worker records the matching
    // flow-in whose duration is the request's queue latency.  0 when
    // tracing was off at submission.
    std::uint64_t flow_id = 0;
    std::int64_t submit_ns = -1;
  };

  /// One operator pair per (gauge field, operator params) seen; workers
  /// reuse it across batches so the float gauge conversion and autotune
  /// happen once per configuration.
  struct SolverEntry {
    const GaugeField<double>* key_u;
    MobiusParams key_params;
    std::unique_ptr<DwfSolver> solver;
    /// Checked out by a worker for the duration of one batch; a second
    /// worker hitting the same (u, params) builds its own entry rather
    /// than sharing solver scratch mid-solve.
    bool busy = false;
  };

  void worker_loop();
  /// Crash-tolerant in-flight state for the flight recorder: one JSON
  /// object, degrading to {"locked":true} when mu_ is unavailable.
  std::string queue_state_json() const;
  /// Pop the head plus every queue-order-compatible follower, up to
  /// max_batch.  Caller holds mu_.
  std::vector<Item> take_batch_locked();
  /// Check out (creating on first use) the solver for this request's
  /// (gauge field, operator params); pair with release_solver().
  DwfSolver& solver_for(const SolveRequest& req);
  void release_solver(const DwfSolver& s);
  void run_batch(std::vector<Item> batch);

  const SolveServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable cv_work_;   ///< queue gained work / stopping
  std::condition_variable cv_idle_;   ///< a request finished (drain waits)
  std::deque<Item> queue_ FEMTO_GUARDED_BY(mu_);
  std::size_t in_flight_ FEMTO_GUARDED_BY(mu_) = 0;
  std::uint64_t submitted_ FEMTO_GUARDED_BY(mu_) = 0;
  std::uint64_t completed_ FEMTO_GUARDED_BY(mu_) = 0;
  double busy_seconds_ FEMTO_GUARDED_BY(mu_) = 0.0;
  bool stopping_ FEMTO_GUARDED_BY(mu_) = false;
  std::vector<SolverEntry> solvers_ FEMTO_GUARDED_BY(mu_);

  std::vector<std::thread> workers_;
  /// Flight-recorder provider registration (obs/blackbox.hpp); atomic so
  /// the write in the constructor body and the read in the destructor
  /// need no lock.
  std::atomic<int> blackbox_handle_{0};
};

}  // namespace femto
