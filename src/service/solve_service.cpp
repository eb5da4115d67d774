#include "service/solve_service.hpp"

#include <cstdio>
#include <utility>

#include "obs/blackbox.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"

namespace femto {

SolveService::SolveService(SolveServiceConfig cfg) : cfg_(std::move(cfg)) {
  FEMTO_CHECK(cfg_.max_batch >= 1,
              "SolveService: max_batch must be at least 1");
  const std::size_t n = cfg_.workers > 0 ? cfg_.workers : 1;
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  // Flight-recorder hookup: if the process dies mid-campaign, the dump
  // shows what this queue held.  Registration is unconditional (cheap);
  // the callback only runs when a dump is actually written.
  blackbox_handle_ = obs::blackbox_register_provider(
      "solve_service", [this] { return queue_state_json(); });
}

SolveService::~SolveService() {
  // The provider captures `this`: deregister before any member dies.
  obs::blackbox_unregister_provider(blackbox_handle_.load());
  // Drain FIRST, stop second.  The wait releases mu_ while blocked, so
  // workers can take mu_ at end-of-batch to fulfil promises and decrement
  // in_flight_ while the destructor sleeps.  Only once every submitted
  // future has resolved is stopping_ raised, so no worker can ever observe
  // a stop flag with work it silently abandons.
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_idle_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
    stopping_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::future<SolveOutcome> SolveService::submit(SolveRequest req) {
  FEMTO_CHECK(req.u != nullptr && req.b != nullptr,
              "SolveService::submit: request needs a gauge field and a "
              "source");
  FEMTO_CHECK(req.b->l5() == req.params.l5,
              "SolveService::submit: source l5 does not match the operator "
              "params");
  std::promise<SolveOutcome> promise;
  std::future<SolveOutcome> fut = promise.get_future();
  std::uint64_t flow = 0;
  std::int64_t t0 = -1;
  if (obs::trace_enabled()) {
    t0 = obs::uptime_ns();
    flow = obs::next_flow_id();
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    FEMTO_CHECK(!stopping_, "SolveService::submit: service is shutting down");
    queue_.push_back(Item{std::move(req), std::move(promise), flow, t0});
    ++submitted_;
    obs::counter("solve_service.submitted").add(1);
    obs::gauge("solve_service.queue_depth")
        .set(static_cast<double>(queue_.size()));
  }
  cv_work_.notify_one();
  if (flow != 0) obs::trace_flow_out("service", "submit", t0, flow);
  return fut;
}

void SolveService::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  cv_idle_.wait(lk, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t SolveService::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return queue_.size();
}

std::string SolveService::queue_state_json() const {
  // Crash path: the dump may run on a thread that died while holding mu_
  // (or while another worker holds it mid-batch); degrade instead of
  // deadlocking the abort.
  std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
  if (!lk.owns_lock()) return "{\"locked\":true}";
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"pending\":%zu,\"in_flight\":%zu,\"submitted\":%llu,"
      "\"completed\":%llu,\"stopping\":%s,\"solvers\":%zu,"
      "\"pending_flows\":[",
      queue_.size(), in_flight_,
      static_cast<unsigned long long>(submitted_),
      static_cast<unsigned long long>(completed_),
      stopping_ ? "true" : "false", solvers_.size());
  std::string out = buf;
  bool first = true;
  for (const Item& item : queue_) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(item.flow_id));
    out += buf;
  }
  out += "]}";
  return out;
}

void SolveService::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_work_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::vector<Item> batch = take_batch_locked();
    in_flight_ += batch.size();
    obs::gauge("solve_service.queue_depth")
        .set(static_cast<double>(queue_.size()));
    lk.unlock();
    run_batch(std::move(batch));
    lk.lock();
  }
}

std::vector<SolveService::Item> SolveService::take_batch_locked() {
  // femtolint: allow(guarded-by): private helper; every caller holds mu_.
  std::vector<Item> batch;
  batch.push_back(std::move(queue_.front()));
  queue_.pop_front();
  const SolveRequest& head = batch.front().req;
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < cfg_.max_batch;) {
    if (it->req.u.get() == head.u.get() && it->req.params == head.params) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

DwfSolver& SolveService::solver_for(const SolveRequest& req) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    for (SolverEntry& e : solvers_) {
      if (!e.busy && e.key_u == req.u.get() && e.key_params == req.params) {
        e.busy = true;
        return *e.solver;
      }
    }
  }
  // First batch against this configuration (or the matching entry is mid
  // solve on another worker): build a fresh operator pair.  The build is
  // heavy — the float gauge conversion walks the whole field — so it runs
  // OUTSIDE mu_: submit(), pending() and every worker's end-of-batch
  // bookkeeping keep flowing while this worker constructs.  Two workers
  // racing here build two entries, exactly as the old in-lock path did
  // when the only matching entry was busy; both are reused later.
  auto fresh =
      std::make_unique<DwfSolver>(req.u, req.params, cfg_.solver);
  DwfSolver* solver = nullptr;
  {
    std::lock_guard<std::mutex> lk(mu_);
    solvers_.push_back(SolverEntry{req.u.get(), req.params,
                                   std::move(fresh), /*busy=*/true});
    solver = solvers_.back().solver.get();
  }
  // Tune the launch the service's batches make (DslashMultiTunable).
  if (cfg_.autotune) solver->autotune_multi(cfg_.max_batch);
  return *solver;
}

void SolveService::release_solver(const DwfSolver& s) {
  std::lock_guard<std::mutex> lk(mu_);
  for (SolverEntry& e : solvers_) {
    if (e.solver.get() == &s) {
      e.busy = false;
      return;
    }
  }
}

void SolveService::run_batch(std::vector<Item> batch) {
  FEMTO_TRACE_SCOPE("service", "solve_batch");
  // Close each request's causal link: the flow-in span [submitted, claimed]
  // on this worker's timeline is the queue latency the critical-path
  // reducer charges to the submit->claim edge.
  for (const Item& item : batch)
    if (item.flow_id != 0)
      obs::trace_flow_in("service", "queue_wait", item.submit_ns,
                         item.flow_id);
  const std::size_t nb = batch.size();
  DwfSolver& solver = solver_for(batch.front().req);
  const obs::Stopwatch sw;

  std::vector<std::shared_ptr<SpinorField<double>>> xs;
  std::vector<SolveResult> stats;
  bool ok = true;
  std::exception_ptr error;
  try {
    std::vector<SpinorField<double>*> xp;
    std::vector<const SpinorField<double>*> bp;
    xs.reserve(nb);
    for (const Item& item : batch) {
      const SpinorField<double>& b = *item.req.b;
      xs.push_back(std::make_shared<SpinorField<double>>(b.geom_ptr(),
                                                         b.l5(), b.subset()));
      xp.push_back(xs.back().get());
      bp.push_back(item.req.b.get());
    }
    stats = solver.solve_multi(xp, bp);
  } catch (...) {
    ok = false;
    error = std::current_exception();
  }
  release_solver(solver);
  const double secs = sw.seconds();

  for (std::size_t r = 0; r < nb; ++r) {
    if (ok)
      batch[r].promise.set_value(SolveOutcome{xs[r], stats[r]});
    else
      batch[r].promise.set_exception(error);
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    in_flight_ -= nb;
    completed_ += nb;
    busy_seconds_ += secs;
    obs::counter("solve_service.completed")
        .add(static_cast<std::int64_t>(nb));
    obs::counter("solve_service.batches").add(1);
    obs::histogram("solve_service.batch_size")
        .observe(static_cast<std::int64_t>(nb));
    if (busy_seconds_ > 0.0)
      obs::gauge("solve_service.throughput")
          .set(static_cast<double>(completed_) / busy_seconds_);
  }
  cv_idle_.notify_all();
}

}  // namespace femto
