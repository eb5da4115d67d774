// femtobench: the paper's Fig. 2 workflow end to end, one workload per
// process, with per-layer numbers timed from outside the library.
//
//   femtobench --workload NAME --seed N --seconds S --out FILE
//              [--scratch DIR] [--reference-dir DIR] [--traced] [--smoke]
//   femtobench --workload NAME --seed N --make-reference --reference-dir DIR
//
// A run sets its workload up several times (gauge field and solver or
// service, or the propagators) and reports the median as setup_s.  It then
// repeats the workload's unit of work -- one run_workflow, one round of
// service requests, or one contraction + I/O round -- until another unit
// would overrun S seconds, and reports medians over units.  Every unit's
// output is checked.  --traced repeats the same phase and then runs the
// layer probes: a bitwise replay of the solver, the kernels on the
// workload's own shapes, and the machine's ceilings.  --smoke shrinks
// every shape so that all workloads finish in a second or two.
//
// The program calls only the library's public entry points and receives
// only inputs generated from --seed.  run.py builds it, runs it and prints
// the result; README.md documents the workloads and the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/contractions.hpp"
#include "core/propagator.hpp"
#include "core/workflow.hpp"
#include "dirac/fifth_dim.hpp"
#include "dirac/mobius.hpp"
#include "dirac/wilson.hpp"
#include "fio/fio.hpp"
#include "fio/propagator_io.hpp"
#include "lattice/blas.hpp"
#include "lattice/flops.hpp"
#include "lattice/gauge.hpp"
#include "obs/json.hpp"
#include "obs/wallclock.hpp"
#include "parallel/thread_pool.hpp"
#include "service/solve_service.hpp"
#include "simd/vec.hpp"
#include "solver/block_cg.hpp"
#include "solver/cg.hpp"
#include "solver/dwf_solve.hpp"
#include "solver/half.hpp"

using namespace femto;

namespace {

// --- fixed physics and checks (shared by every solve workload) -------------

constexpr double kBeta = 6.0;
constexpr int kSweeps = 10;
constexpr double kSolveTol = 1e-8;
constexpr int kMaxIter = 20000;
/// Correlators and true residuals must agree to this; about 50x the spread
/// measured across valid code paths (half vs single sloppy, recon12).
constexpr double kCheckTol = 1e-6;
/// Tolerance of the reference solves.
constexpr double kReferenceTol = 1e-12;
/// Repeated contractions of the same inputs must agree to this.
constexpr double kRepeatTol = 1e-12;

/// Setups timed before every unit by the workloads whose setup takes tens
/// of ms.  Spread over the run, they see the machine's busy and quiet
/// moments as the units do; taken all at the start, they would see one.
constexpr int kSetupsPerUnit = 3;
/// contract_io's setup (the propagators) takes about a second; three at
/// the start span enough of the machine's moments.
constexpr int kPropagatorSetups = 3;

constexpr std::size_t kServiceBatch = 12;
constexpr int kServiceRequests = 24;
constexpr std::size_t kServiceOutstanding = 12;
constexpr int kColumns = kNs * kNc;

/// mf = 0.3: at mf = 0.1 the iterations per 4^4 propagator vary by 13%
/// (quartile spread over seeds 1-10), at 0.3 by 2.3%, so the seed no
/// longer decides the timing.
MobiusParams mobius(int l5) { return {l5, -1.8, 1.5, 0.5, 0.3}; }

SolverParams solver_params(double tol) {
  SolverParams sp;
  sp.tol = tol;
  sp.max_iter = kMaxIter;
  return sp;
}

// --- workloads --------------------------------------------------------------

enum class Kind { Fig2, Service, ContractIo };

struct Workload {
  const char* name;
  Kind kind;
  std::array<int, 4> extents;
  std::array<int, 4> smoke_extents;
  int l5;        ///< 0: no operator (the solver probes use the fig2 shape)
  bool with_fh;
  /// Name of the reference file family this workload's correlators are
  /// checked against, or nullptr when its checks need no reference.
  const char* reference;
};

// run.py sets FEMTO_THREADS=4 (nproc here) for every workload.
constexpr Workload kWorkloads[] = {
    {"fig2_4x4_fh", Kind::Fig2, {4, 4, 4, 4}, {2, 2, 2, 2}, 4, true,
     "fig2_4x4_fh"},
    {"service_4x4_b12", Kind::Service, {4, 4, 4, 4}, {2, 2, 2, 2}, 4, false,
     "fig2_4x4_fh"},
    {"contract_io_12x24", Kind::ContractIo, {12, 12, 12, 24}, {4, 4, 4, 4},
     0, true, nullptr},
};

struct Options {
  const Workload* w = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool smoke = false;
  bool make_reference = false;
  bool probe_normal_op = false;
  std::string out;
  std::string scratch = ".";
  std::string reference_dir;
  std::string exe;  ///< this binary, re-run for the FEMTO_THREADS=1 probe
};

/// The 4D lattice the workload runs on.
std::shared_ptr<const Geometry> workload_geom(const Options& o) {
  const auto& e = o.smoke ? o.w->smoke_extents : o.w->extents;
  return std::make_shared<Geometry>(e[0], e[1], e[2], e[3]);
}

/// The shape the solver and dirac probes run on: the workload's own, or
/// the fig2 shape for a workload without an operator.
struct SolveShape {
  std::shared_ptr<const Geometry> geom;
  int l5;
};

SolveShape solve_shape(const Options& o) {
  const Workload& w = o.w->l5 > 0 ? *o.w : kWorkloads[0];
  const auto& e = o.smoke ? w.smoke_extents : w.extents;
  return {std::make_shared<Geometry>(e[0], e[1], e[2], e[3]), w.l5};
}

// --- statistics and output --------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it; the maximum
/// when there are ten samples or fewer.
double tail(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.back();
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  std::string json() const {
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      os << (i ? ", " : "") << "\"" << rows_[i].name << "\": {\"value\": "
         << obs::json_number(rows_[i].value) << ", \"unit\": \""
         << rows_[i].unit << "\"}";
    os << "}";
    return os.str();
  }

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Times f() until it has run at least min_calls times and min_seconds.
template <typename F>
std::vector<double> time_calls(F&& f, int min_calls, double min_seconds) {
  std::vector<double> t;
  const obs::Stopwatch total;
  while (static_cast<int>(t.size()) < min_calls ||
         total.seconds() < min_seconds) {
    const obs::Stopwatch sw;
    f();
    t.push_back(sw.seconds());
  }
  return t;
}

// --- correlators and references ---------------------------------------------

std::vector<double> real_parts(const core::Correlator& c) {
  std::vector<double> r;
  for (const auto& v : c) r.push_back(v.re);
  return r;
}

/// max_t |a(t) - ref(t)| / max_t |ref(t)|; infinite when the lengths
/// differ.  The scale is the series' largest entry, not each entry: on a
/// 4^4 lattice g_eff(t) and C2(t) pass close to zero at some t, where a
/// per-entry ratio would flag rounding as failure.
template <typename V>
double max_rel_dev(const std::vector<V>& a, const std::vector<V>& ref) {
  using std::abs;  // double here; femto::abs for cdouble by ADL
  if (a.size() != ref.size() || ref.empty()) return INFINITY;
  double d = 0.0, scale = 0.0;
  for (std::size_t t = 0; t < a.size(); ++t) {
    d = std::max(d, static_cast<double>(abs(a[t] - ref[t])));
    scale = std::max(scale, static_cast<double>(abs(ref[t])));
  }
  return d / scale;
}

bool bitwise_equal(const core::Correlator& a, const core::Correlator& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)) == 0;
}

template <typename T>
bool bitwise_equal(const SpinorField<T>& a, const SpinorField<T>& b) {
  return a.reals() == b.reals() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.bytes())) == 0;
}

bool bitwise_equal(const SolveResult& a, const SolveResult& b) {
  return a.converged == b.converged && a.iterations == b.iterations &&
         a.reliable_updates == b.reliable_updates &&
         std::memcmp(&a.final_rel_residual, &b.final_rel_residual,
                     sizeof(double)) == 0;
}

struct Reference {
  std::vector<double> c2, geff;  ///< geff empty when not computed
  std::string source = "none";   ///< committed | computed | none
  bool valid = true;             ///< every reference solve converged
};

std::shared_ptr<const GaugeField<double>> make_gauge(
    std::shared_ptr<const Geometry> geom, std::uint64_t seed) {
  return std::make_shared<GaugeField<double>>(
      quenched_config(std::move(geom), kBeta, kSweeps, seed));
}

/// C2 from twelve pure-double solves (DwfSolver::solve_double: plain CG,
/// independent of mixed_cg, half storage and gauge tiers); g_eff from
/// compute_fh_propagator on that base.  Both at kReferenceTol.
Reference compute_reference(const std::shared_ptr<const GaugeField<double>>& u,
                            int l5, bool with_fh) {
  Reference ref;
  ref.source = "computed";
  const auto geom = u->geom_ptr();
  DwfSolver solver(u, mobius(l5), solver_params(kReferenceTol));
  core::Propagator base(geom);
  SpinorField<double> x5(geom, l5, Subset::Full);
  for (int s = 0; s < kNs; ++s)
    for (int c = 0; c < kNc; ++c) {
      const auto b5 =
          core::make_dwf_point_source(geom, l5, {0, 0, 0, 0}, s, c);
      x5.zero();
      ref.valid = solver.solve_double(x5, b5).converged && ref.valid;
      core::project_4d(x5, base.column(s, c));
    }
  const SpinMat pol = polarized_projector();
  const auto c2 = core::nucleon_two_point(base, base, pol, 0);
  ref.c2 = real_parts(c2);
  if (with_fh) {
    core::PropagatorSolveStats st;
    const auto fh = core::compute_fh_propagator(solver, base, &st);
    ref.valid = ref.valid && st.all_converged;
    ref.geff = core::fh_effective_coupling_series(
        c2, core::nucleon_fh_three_point(base, fh, base, pol, 0));
  }
  return ref;
}

std::string reference_path(const Options& o) {
  return o.reference_dir + "/" + o.w->reference + ".seed" +
         std::to_string(o.seed) + ".json";
}

std::string json_array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    s += (i ? ", " : "") + obs::json_number(v[i]);
  return s + "]";
}

void save_reference(const Options& o, const Reference& ref) {
  std::ofstream f(reference_path(o));
  const auto& e = o.w->extents;
  const MobiusParams m = mobius(o.w->l5);
  f << "{\n  \"reference\": \"" << o.w->reference << "\",\n"
    << "  \"seed\": " << o.seed << ",\n"
    << "  \"extents\": [" << e[0] << ", " << e[1] << ", " << e[2] << ", "
    << e[3] << "],\n"
    << "  \"gauge\": \"quenched_config, beta " << kBeta << ", " << kSweeps
    << " sweeps\",\n"
    << "  \"mobius\": {\"l5\": " << m.l5 << ", \"m5\": " << m.m5
    << ", \"b5\": " << m.b5 << ", \"c5\": " << m.c5 << ", \"mf\": " << m.mf
    << "},\n"
    << "  \"c2_method\": \"12 x DwfSolver::solve_double, tol 1e-12\",\n"
    << "  \"geff_method\": \"compute_fh_propagator on that base, tol "
       "1e-12\",\n"
    << "  \"c2\": " << json_array(ref.c2) << ",\n"
    << "  \"geff\": " << json_array(ref.geff) << "\n}\n";
  if (!f) throw std::runtime_error("cannot write " + reference_path(o));
}

/// Reads the number array stored under "key" in a file save_reference
/// wrote.
std::vector<double> read_array(const std::string& text,
                               const std::string& key) {
  std::size_t p = text.find("\"" + key + "\"");
  if (p == std::string::npos) throw std::runtime_error("no " + key);
  p = text.find('[', p);
  const std::size_t end = text.find(']', p);
  if (p == std::string::npos || end == std::string::npos)
    throw std::runtime_error("malformed " + key);
  std::vector<double> v;
  const char* c = text.c_str() + p + 1;
  for (;;) {
    while (*c == ' ' || *c == ',' || *c == '\n') ++c;
    if (static_cast<std::size_t>(c - text.c_str()) >= end) break;
    char* next = nullptr;
    v.push_back(std::strtod(c, &next));
    if (next == c) throw std::runtime_error("malformed " + key);
    c = next;
  }
  return v;
}

/// The committed reference for (workload, seed) when there is one and the
/// run uses the full-size shape; otherwise computed here.
Reference load_or_compute_reference(
    const Options& o, const std::shared_ptr<const GaugeField<double>>& u,
    int l5, bool with_fh) {
  if (!o.smoke && !o.reference_dir.empty()) {
    std::ifstream f(reference_path(o));
    if (f) {
      std::stringstream ss;
      ss << f.rdbuf();
      Reference ref;
      ref.source = "committed";
      ref.c2 = read_array(ss.str(), "c2");
      ref.geff = read_array(ss.str(), "geff");
      return ref;
    }
  }
  return compute_reference(u, l5, with_fh);
}

// --- what one run produces --------------------------------------------------

struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool correct = true;
  std::string reference_source = "none";
  /// Per-unit values behind the medians, kept in the run's record.
  std::vector<double> wall, s_per_prop, gflops;
  Metrics e2e;
  Metrics layers;
};

/// The end-to-end table: medians over the run's units (and setups).
/// @p rss is read right after the units, before any reference solves.
void report_e2e(Result& r, const std::vector<double>& setup, double rss) {
  r.e2e.add("setup_s", median(setup), "s");
  r.e2e.add("wall_s", median(r.wall), "s");
  r.e2e.add("s_per_propagator", median(r.s_per_prop), "s");
  r.e2e.add("sustained_gflops", median(r.gflops), "GFLOP/s");
  r.e2e.add("peak_rss_mb", rss, "MB");
}

/// Seconds per stage of the pipeline, for core.stage_frac.*.
struct StageSeconds {
  double gauge = 0.0, propagators = 0.0, io = 0.0, contractions = 0.0;
  void report(Metrics& m) const {
    const double total = gauge + propagators + io + contractions;
    m.add("core.stage_frac.gauge", gauge / total, "ratio");
    m.add("core.stage_frac.propagators", propagators / total, "ratio");
    m.add("core.stage_frac.io", io / total, "ratio");
    m.add("core.stage_frac.contractions", contractions / total, "ratio");
  }
};

/// Per-layer numbers the e2e phase itself yields; the probes fill in what
/// a workload's phase does not measure.
struct PhaseLayers {
  std::optional<double> heatbath_s;
  StageSeconds stages;
  std::optional<double> iterations_per_rhs;
  std::optional<double> reliable_updates_per_rhs;
  std::optional<double> s_per_iteration;
  double c2_dev = 0.0, geff_dev = 0.0;
  std::vector<double> latency, wait, solve;   ///< service requests
  std::vector<double> two_point, three_point;  ///< contraction rounds
  std::vector<double> write, read;             ///< fio rounds
  double file_bytes = 0.0;
  bool contract_bitwise = true;
  /// Last service round: solution per source index (traced C2 check).
  std::vector<std::shared_ptr<SpinorField<double>>> service_x;
};

/// Runs unit() until one more unit would overrun the phase (once in smoke
/// mode).
template <typename F>
void run_units(const Options& o, F&& unit) {
  const obs::Stopwatch phase;
  for (;;) {
    const obs::Stopwatch sw;
    unit();
    if (o.smoke || phase.seconds() + sw.seconds() > o.seconds) return;
  }
}

/// Set-up of the solve workloads: the gauge field, then the DwfSolver
/// built for it, timed kSetupsPerUnit times per sample() call.
struct SetupTimes {
  std::vector<double> total, heatbath;
  void sample(const std::shared_ptr<const Geometry>& geom, int l5,
              std::uint64_t seed) {
    for (int i = 0; i < kSetupsPerUnit; ++i) {
      const obs::Stopwatch sw;
      const auto u = make_gauge(geom, seed);
      heatbath.push_back(sw.seconds());
      const DwfSolver solver(u, mobius(l5), solver_params(kSolveTol));
      total.push_back(sw.seconds());
    }
  }
};

// --- workload: run_workflow (Fig. 2) ----------------------------------------

PhaseLayers run_fig2(const Options& o, Result& r) {
  PhaseLayers pl;
  const auto geom = workload_geom(o);
  const int l5 = o.w->l5;

  // Setup: what run_workflow does before its first solve.
  SetupTimes setup;
  setup.sample(geom, l5, o.seed);
  const auto u = make_gauge(geom, o.seed);
  {
    // Warm-up (untimed): one column, so the pool and caches are live.
    DwfSolver solver(u, mobius(l5), solver_params(kSolveTol));
    SpinorField<double> x(geom, l5, Subset::Full);
    solver.solve(x, core::make_dwf_point_source(geom, l5, {0, 0, 0, 0}, 0, 0));
  }

  core::WorkflowOptions wo;
  wo.extents = geom->extents();
  wo.mobius = mobius(l5);
  wo.solver_tol = kSolveTol;
  wo.n_configs = 1;
  wo.beta = kBeta;
  wo.thermalization = kSweeps;
  wo.with_fh = o.w->with_fh;
  wo.scratch_dir = o.scratch;
  wo.seed = o.seed;  // config 0 uses exactly this seed, as setup does

  const double fpn = static_cast<double>(
      MobiusOperator<double>(u, mobius(l5)).flops_per_normal());
  std::vector<core::WorkflowReport> reps;
  run_units(o, [&] {
    setup.sample(geom, l5, o.seed);
    const obs::Stopwatch sw;
    core::WorkflowReport rep = core::run_workflow(wo);
    const double total = sw.seconds();
    r.wall.push_back(total - rep.seconds_gauge);
    r.s_per_prop.push_back(rep.seconds_propagators * kColumns /
                           rep.propagator_solves);
    r.gflops.push_back(rep.solver_iterations * fpn /
                       rep.seconds_propagators / 1e9);
    reps.push_back(std::move(rep));
  });
  const double rss = peak_rss_mb();

  const Reference ref = load_or_compute_reference(o, u, l5, o.w->with_fh);
  r.reference_source = ref.source;
  double c2_dev = 0.0, geff_dev = 0.0;
  int iters = 0, solves = 0;
  for (const auto& rep : reps) {
    const double dc = max_rel_dev(rep.c2pt.at(0), ref.c2);
    const double dg = o.w->with_fh ? max_rel_dev(rep.geff.at(0), ref.geff)
                                   : 0.0;
    c2_dev = std::max(c2_dev, dc);
    geff_dev = std::max(geff_dev, dg);
    const bool ok = ref.valid && rep.all_converged && dc <= kCheckTol &&
                    dg <= kCheckTol;
    r.attempted += rep.propagator_solves;
    if (!ok) r.failed += rep.propagator_solves;
    iters += rep.solver_iterations;
    solves += rep.propagator_solves;
    pl.stages.gauge += rep.seconds_gauge;
    pl.stages.propagators += rep.seconds_propagators;
    pl.stages.io += rep.seconds_io;
    pl.stages.contractions += rep.seconds_contractions;
  }

  report_e2e(r, setup.total, rss);

  pl.heatbath_s = median(setup.heatbath);
  pl.iterations_per_rhs = static_cast<double>(iters) / solves;
  pl.s_per_iteration = pl.stages.propagators / iters;
  pl.c2_dev = c2_dev;
  pl.geff_dev = geff_dev;
  std::filesystem::remove(o.scratch + "/prop_cfg0.femto");
  std::filesystem::remove(o.scratch + "/corr_cfg0.femto");
  return pl;
}

// --- workload: SolveService -------------------------------------------------

/// The 24 point sources: the 12 spin-colour columns at the origin, then at
/// the lattice midpoint.
std::vector<std::shared_ptr<const SpinorField<double>>> service_sources(
    const std::shared_ptr<const Geometry>& geom, int l5, int n) {
  const Coord mid{geom->extent(0) / 2, geom->extent(1) / 2,
                  geom->extent(2) / 2, geom->extent(3) / 2};
  std::vector<std::shared_ptr<const SpinorField<double>>> src;
  for (int k = 0; k < n; ++k) {
    const int col = k % kColumns;
    src.push_back(std::make_shared<SpinorField<double>>(
        core::make_dwf_point_source(geom, l5,
                                    (k / kColumns) % 2 ? mid : Coord{},
                                    col / kNc, col % kNc)));
  }
  return src;
}

struct ServiceRecord {
  int src = 0;
  double latency = 0.0;
  SolveOutcome outcome;
};

/// One closed-loop round: keep @p outstanding requests in flight until
/// @p total have completed.  Latency is submit -> observed ready.
std::vector<ServiceRecord> service_round(
    SolveService& svc, const std::shared_ptr<const GaugeField<double>>& u,
    const MobiusParams& params,
    const std::vector<std::shared_ptr<const SpinorField<double>>>& src,
    int total, std::size_t outstanding) {
  struct Pending {
    std::future<SolveOutcome> fut;
    double t_submit;
    int src;
  };
  const obs::Stopwatch clock;
  std::deque<Pending> q;
  std::vector<ServiceRecord> done;
  int next = 0;
  auto refill = [&] {
    while (next < total && q.size() < outstanding) {
      const int k = next % static_cast<int>(src.size());
      q.push_back({svc.submit({u, params, src[static_cast<std::size_t>(k)]}),
                   clock.seconds(), k});
      ++next;
    }
  };
  refill();
  while (!q.empty()) {
    q.front().fut.wait();
    for (auto it = q.begin(); it != q.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        const double t = clock.seconds();
        done.push_back({it->src, t - it->t_submit, it->fut.get()});
        it = q.erase(it);
      } else {
        ++it;
      }
    }
    refill();
  }
  return done;
}

/// ||b - D x|| / ||b|| with the double operator on full fields.
double true_residual(const MobiusOperator<double>& op,
                     const SpinorField<double>& x,
                     const SpinorField<double>& b) {
  SpinorField<double> dx(x.geom_ptr(), x.l5(), Subset::Full);
  op.apply_full(dx, x);
  const double r2 = blas::axpy_norm2<double>(-1.0, b, dx);
  return std::sqrt(r2 / blas::norm2(b));
}

SolveServiceConfig service_config(std::size_t batch) {
  SolveServiceConfig cfg;
  cfg.max_batch = batch;
  cfg.workers = 1;
  cfg.solver = solver_params(kSolveTol);
  return cfg;
}

PhaseLayers run_service(const Options& o, Result& r) {
  PhaseLayers pl;
  const auto geom = workload_geom(o);
  const int l5 = o.w->l5;
  const MobiusParams params = mobius(l5);

  // Setup: the gauge field and the DwfSolver the service builds for it on
  // its first request.
  SetupTimes setup;
  setup.sample(geom, l5, o.seed);
  // Every request carries this one field: the service keys its solvers by
  // the field's address, so a new field would make it build a new solver.
  const auto u = make_gauge(geom, o.seed);
  // The rounds share one service, as a long-lived one would be used; the
  // warm-up (untimed) builds its solver for this gauge field.
  SolveService svc(service_config(kServiceBatch));
  const auto src = service_sources(geom, l5, kServiceRequests);
  service_round(svc, u, params, src, 1, 1);

  const MobiusOperator<double> op(u, params);
  const double fpn = static_cast<double>(op.flops_per_normal());
  double iters = 0.0, updates = 0.0, n = 0.0;
  pl.service_x.resize(static_cast<std::size_t>(kColumns));
  run_units(o, [&] {
    setup.sample(geom, l5, o.seed);
    const obs::Stopwatch sw;
    const auto recs = service_round(svc, u, params, src, kServiceRequests,
                                    kServiceOutstanding);
    const double t = sw.seconds();
    double round_iters = 0.0;
    // Checked now and dropped, so memory does not grow with the rounds.
    for (const auto& rec : recs) {
      const auto& st = rec.outcome.stats;
      const bool ok =
          st.converged &&
          true_residual(op, *rec.outcome.x,
                        *src[static_cast<std::size_t>(rec.src)]) <= kCheckTol;
      ++r.attempted;
      if (!ok) ++r.failed;
      round_iters += st.iterations;
      updates += st.reliable_updates;
      n += 1.0;
      pl.latency.push_back(rec.latency);
      pl.wait.push_back(rec.latency - st.seconds);
      pl.solve.push_back(st.seconds);
      if (rec.src < kColumns)
        pl.service_x[static_cast<std::size_t>(rec.src)] = rec.outcome.x;
    }
    iters += round_iters;
    r.wall.push_back(t);
    r.s_per_prop.push_back(t * kColumns / kServiceRequests);
    r.gflops.push_back(round_iters * fpn / t / 1e9);
  });
  const double rss = peak_rss_mb();

  report_e2e(r, setup.total, rss);

  pl.heatbath_s = median(setup.heatbath);
  pl.stages.gauge = median(setup.heatbath);
  pl.stages.propagators = median(r.wall);
  pl.iterations_per_rhs = iters / n;
  pl.reliable_updates_per_rhs = updates / n;
  pl.s_per_iteration = sum(r.wall) / iters;
  return pl;
}

// --- workload: contractions and propagator I/O, no solves -------------------

void fill_gaussian(core::Propagator& p, std::uint64_t seed) {
  for (int k = 0; k < kColumns; ++k)
    p.column(k / kNc, k % kNc).gaussian(seed * 1000 +
                                        static_cast<std::uint64_t>(k));
}

/// Writes the 12 columns of @p p to @p path; returns the file size.
double write_columns(const core::Propagator& p, const std::string& path) {
  fio::File f;
  fio::PropagatorMeta meta;
  meta.ensemble = "femtobench-gaussian";
  meta.l5 = 1;
  for (int k = 0; k < kColumns; ++k)
    fio::write_propagator(f, "col" + std::to_string(k),
                          p.column(k / kNc, k % kNc), meta);
  f.save(path);
  return static_cast<double>(std::filesystem::file_size(path));
}

void read_columns(core::Propagator& p, const std::string& path) {
  const fio::File f = fio::File::load(path);
  for (int k = 0; k < kColumns; ++k)
    fio::read_propagator(f, "col" + std::to_string(k),
                         p.column(k / kNc, k % kNc));
}

bool same_columns(const core::Propagator& a, const core::Propagator& b) {
  for (int k = 0; k < kColumns; ++k)
    if (!bitwise_equal(a.column(k / kNc, k % kNc), b.column(k / kNc, k % kNc)))
      return false;
  return true;
}

/// One contraction + I/O round: 2pt(u, u), FH 3pt(u, f, u), then the 12
/// columns of u written to @p path and loaded back into @p loaded.  Its
/// stage timings go to @p pl.
struct Round {
  core::Correlator c2, c3;
  double flops = 0.0;  ///< counted by the two contractions
};

Round contract_io_round(const core::Propagator& up, const core::Propagator& fh,
                        core::Propagator& loaded, const std::string& path,
                        PhaseLayers& pl) {
  const SpinMat pol = polarized_projector();
  Round out;
  const std::int64_t f0 = flops::get();
  obs::Stopwatch sw;
  out.c2 = core::nucleon_two_point(up, up, pol, 0);
  pl.two_point.push_back(sw.seconds());
  sw.restart();
  out.c3 = core::nucleon_fh_three_point(up, fh, up, pol, 0);
  pl.three_point.push_back(sw.seconds());
  out.flops = static_cast<double>(flops::get() - f0);
  sw.restart();
  pl.file_bytes = write_columns(up, path);
  pl.write.push_back(sw.seconds());
  sw.restart();
  read_columns(loaded, path);
  pl.read.push_back(sw.seconds());
  return out;
}

PhaseLayers run_contract_io(const Options& o, Result& r) {
  PhaseLayers pl;
  const auto geom = workload_geom(o);
  const std::string path = o.scratch + "/contract_io.femto";

  std::vector<double> setup;
  std::unique_ptr<core::Propagator> up, fh;
  for (int i = 0; i < kPropagatorSetups; ++i) {
    up.reset();
    fh.reset();
    const obs::Stopwatch sw;
    up = std::make_unique<core::Propagator>(geom);
    fh = std::make_unique<core::Propagator>(geom);
    fill_gaussian(*up, 2 * o.seed);
    fill_gaussian(*fh, 2 * o.seed + 1);
    setup.push_back(sw.seconds());
  }

  // Warm-up round (untimed), which also fixes the values every timed
  // round must reproduce, and checks C_FH(u,u,u) = 2 C2(u,u).
  const SpinMat pol = polarized_projector();
  const auto c2_ref = core::nucleon_two_point(*up, *up, pol, 0);
  const auto c3_ref = core::nucleon_fh_three_point(*up, *fh, *up, pol, 0);
  {
    auto twice = c2_ref;
    for (auto& v : twice) v *= 2.0;
    const double d = max_rel_dev(
        core::nucleon_fh_three_point(*up, *up, *up, pol, 0), twice);
    ++r.attempted;
    if (!(d <= kRepeatTol)) ++r.failed;
    pl.geff_dev = d;
  }
  core::Propagator loaded(geom);
  write_columns(*up, path);
  read_columns(loaded, path);

  double c2_dev = 0.0;
  run_units(o, [&] {
    for (int k = 0; k < kColumns; ++k) loaded.column(k / kNc, k % kNc).zero();
    const obs::Stopwatch sw;
    const Round rd = contract_io_round(*up, *fh, loaded, path, pl);
    r.wall.push_back(sw.seconds());
    const double t_contract = pl.two_point.back() + pl.three_point.back();
    const double t_io = pl.write.back() + pl.read.back();
    r.s_per_prop.push_back(t_io);
    r.gflops.push_back(rd.flops / t_contract / 1e9);
    pl.stages.contractions += t_contract;
    pl.stages.io += t_io;

    const double d2 = max_rel_dev(rd.c2, c2_ref);
    const double d3 = max_rel_dev(rd.c3, c3_ref);
    c2_dev = std::max({c2_dev, d2, d3});
    r.attempted += 3;
    r.failed += (d2 <= kRepeatTol ? 0 : 1) + (d3 <= kRepeatTol ? 0 : 1) +
                (same_columns(*up, loaded) ? 0 : 1);
    pl.contract_bitwise = pl.contract_bitwise && bitwise_equal(rd.c2, c2_ref);
  });
  const double rss = peak_rss_mb();
  std::filesystem::remove(path);

  report_e2e(r, setup, rss);

  pl.stages.propagators = median(setup);
  pl.c2_dev = c2_dev;
  return pl;
}

// --- probe 1: replay one solve exactly as DwfSolver does --------------------

/// Wraps an apply in a stopwatch, recording one sample per call.
struct CallLog {
  std::vector<double> seconds;
  std::vector<double> rhs;  ///< right-hand sides per call (batched)
};

struct SingleReplay {
  bool bitwise = false;
  int iterations = 0, reliable_updates = 0;
  double real_s = 0.0, replay_s = 0.0, cg_s = 0.0;
  CallLog f, d;
};

/// DwfSolver::solve, step by step: prepare_source -> apply_schur(dagger)
/// -> mixed_cg -> reconstruct, with each apply_normal timed.  The real
/// call runs first on an identical solver; the replay must match it bit
/// for bit, or it no longer measures the program the e2e phase ran.
SingleReplay replay_single(const std::shared_ptr<const GaugeField<double>>& u,
                           int l5) {
  SingleReplay out;
  const auto geom = u->geom_ptr();
  const MobiusParams params = mobius(l5);
  const SolverParams sp = solver_params(kSolveTol);
  const auto b = core::make_dwf_point_source(geom, l5, {0, 0, 0, 0}, 0, 0);

  SpinorField<double> x_real(geom, l5, Subset::Full);
  DwfSolver solver(u, params, sp);
  obs::Stopwatch sw;
  const SolveResult res_real = solver.solve(x_real, b);
  out.real_s = sw.seconds();

  sw.restart();
  const auto u_f = std::make_shared<GaugeField<float>>(u->convert<float>());
  const MobiusOperator<double> op_d(u, params);
  MobiusOperator<float> op_f(u_f, params);
  op_f.tuning().format = sp.gauge_format;
  SpinorField<double> bhat(geom, l5, Subset::Odd), rhs(geom, l5, Subset::Odd);
  op_d.prepare_source(bhat, b);
  op_d.apply_schur(rhs, bhat, /*dagger=*/true);
  ApplyFn<double> a_d = [&](SpinorField<double>& o,
                            const SpinorField<double>& i) {
    const obs::Stopwatch t;
    op_d.apply_normal(o, i);
    out.d.seconds.push_back(t.seconds());
  };
  ApplyFn<float> a_f = [&](SpinorField<float>& o,
                           const SpinorField<float>& i) {
    const obs::Stopwatch t;
    op_f.apply_normal(o, i);
    out.f.seconds.push_back(t.seconds());
  };
  SpinorField<double> y(geom, l5, Subset::Odd);
  const obs::Stopwatch cg;
  const SolveResult res = mixed_cg(a_d, a_f, y, rhs, sp);
  out.cg_s = cg.seconds();
  SpinorField<double> x(geom, l5, Subset::Full);
  op_d.reconstruct(x, y, b);
  out.replay_s = sw.seconds();

  out.bitwise = bitwise_equal(res, res_real) && bitwise_equal(x, x_real);
  out.iterations = res.iterations;
  out.reliable_updates = res.reliable_updates;
  return out;
}

struct MultiReplay {
  bool bitwise = false;
  CallLog f;
};

/// DwfSolver::solve_multi (what SolveService runs per batch), step by
/// step, on the 12 point-source columns, with apply_normal_multi timed.
MultiReplay replay_multi(const std::shared_ptr<const GaugeField<double>>& u,
                         int l5) {
  MultiReplay out;
  const auto geom = u->geom_ptr();
  const MobiusParams params = mobius(l5);
  const SolverParams sp = solver_params(kSolveTol);
  const std::size_t nb = kColumns;

  std::vector<SpinorField<double>> b, x_real, x, bhat, rhs, y;
  for (std::size_t k = 0; k < nb; ++k) {
    b.push_back(core::make_dwf_point_source(geom, l5, {0, 0, 0, 0},
                                            static_cast<int>(k) / kNc,
                                            static_cast<int>(k) % kNc));
    x_real.emplace_back(geom, l5, Subset::Full);
    x.emplace_back(geom, l5, Subset::Full);
    bhat.emplace_back(geom, l5, Subset::Odd);
    rhs.emplace_back(geom, l5, Subset::Odd);
    y.emplace_back(geom, l5, Subset::Odd);
  }
  auto ptrs = [](std::vector<SpinorField<double>>& v) {
    std::vector<SpinorField<double>*> p;
    for (auto& f : v) p.push_back(&f);
    return p;
  };
  auto cptrs = [](const std::vector<SpinorField<double>>& v) {
    std::vector<const SpinorField<double>*> p;
    for (const auto& f : v) p.push_back(&f);
    return p;
  };

  DwfSolver solver(u, params, sp);
  const auto res_real = solver.solve_multi(ptrs(x_real), cptrs(b));

  const auto u_f = std::make_shared<GaugeField<float>>(u->convert<float>());
  const MobiusOperator<double> op_d(u, params);
  MobiusOperator<float> op_f(u_f, params);
  op_f.tuning().format = sp.gauge_format;
  for (std::size_t k = 0; k < nb; ++k) op_d.prepare_source(bhat[k], b[k]);
  op_d.apply_schur_multi(ptrs(rhs), cptrs(bhat), /*dagger=*/true);
  MultiApplyFn<double> a_d =
      [&](std::span<SpinorField<double>* const> o,
          std::span<const SpinorField<double>* const> i) {
        op_d.apply_normal_multi(o, i);
      };
  MultiApplyFn<float> a_f =
      [&](std::span<SpinorField<float>* const> o,
          std::span<const SpinorField<float>* const> i) {
        const obs::Stopwatch t;
        op_f.apply_normal_multi(o, i);
        out.f.seconds.push_back(t.seconds());
        out.f.rhs.push_back(static_cast<double>(i.size()));
      };
  const auto res = block_mixed_cg(a_d, a_f, ptrs(y), cptrs(rhs), sp);
  for (std::size_t k = 0; k < nb; ++k) op_d.reconstruct(x[k], y[k], b[k]);

  out.bitwise = res.size() == res_real.size();
  for (std::size_t k = 0; out.bitwise && k < nb; ++k)
    out.bitwise = bitwise_equal(res[k], res_real[k]) &&
                  bitwise_equal(x[k], x_real[k]);
  return out;
}

// --- probe 3: this machine's ceilings ---------------------------------------

/// Size of the last-level cache from sysfs, in bytes (0 if unknown).
double llc_bytes() {
  int best_level = -1;
  double bytes = 0.0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
    std::ifstream lf(dir + "/level"), sf(dir + "/size");
    int level = 0;
    std::string size;
    if (!(lf >> level) || !(sf >> size)) continue;
    double v = std::strtod(size.c_str(), nullptr);
    if (size.back() == 'K') v *= 1024.0;
    if (size.back() == 'M') v *= 1024.0 * 1024.0;
    if (level > best_level) {
      best_level = level;
      bytes = v;
    }
  }
  return bytes;
}

struct Ceilings {
  double stream_gbps = 0.0, peak_f = 0.0, peak_d = 0.0;
  double array_mb = 0.0, llc_mb = 0.0;
};

/// a = b + s c over three arrays, each at least four times the LLC.
double stream_triad_gbps(std::size_t n, int reps) {
  const auto a = std::make_unique_for_overwrite<double[]>(n);
  const auto b = std::make_unique_for_overwrite<double[]>(n);
  const auto c = std::make_unique_for_overwrite<double[]>(n);
  const std::size_t grain = n / par::ThreadPool::global().size() + 1;
  par::parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t k = lo; k < hi; ++k) {
          a[k] = 0.0;
          b[k] = 1.0;
          c[k] = 2.0;
        }
      },
      grain);
  const double s = 3.0;
  double best = INFINITY;
  for (int r = 0; r < reps; ++r) {
    const obs::Stopwatch sw;
    par::parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          for (std::size_t k = lo; k < hi; ++k) a[k] = b[k] + s * c[k];
        },
        grain);
    best = std::min(best, sw.seconds());
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("stream triad: wrong result");
  return 3.0 * static_cast<double>(n) * sizeof(double) / best / 1e9;
}

/// Multiply-add throughput of one thread on simd::Vec: kChains independent
/// dependency chains keep the FP pipes full.
template <typename T>
T madd_chains(std::int64_t iters, T seed) {
  constexpr int W = simd::kWidth<T>;
  constexpr int kChains = 12;
  using V = simd::Vec<T, W>;
  V acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = V(seed + static_cast<T>(c));
  const V m(static_cast<T>(0.999999)), a(static_cast<T>(1e-7));
  for (std::int64_t i = 0; i < iters; ++i) {
    // Unrolled, the chains live in registers instead of on the stack.
#pragma GCC unroll 16
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * m + a;
  }
  T s = 0;
  for (int c = 0; c < kChains; ++c) s += simd::sum_ordered(acc[c]);
  return s;
}

template <typename T>
double peak_gflops(std::int64_t iters) {
  const std::size_t nt = par::ThreadPool::global().size();
  std::vector<T> sink(nt);
  double best = INFINITY;
  for (int r = 0; r < 3; ++r) {
    const obs::Stopwatch sw;
    par::parallel_for(
        0, nt, [&](std::size_t i) { sink[i] = madd_chains<T>(iters, T(1)); },
        1);
    best = std::min(best, sw.seconds());
  }
  if (!std::isfinite(static_cast<double>(sink[0])))
    throw std::runtime_error("peak loop: non-finite result");
  return 2.0 * 12 * simd::kWidth<T> * static_cast<double>(iters) *
         static_cast<double>(nt) / best / 1e9;
}

Ceilings measure_ceilings(bool smoke) {
  Ceilings c;
  const double llc = llc_bytes();
  c.llc_mb = llc / (1024.0 * 1024.0);
  const double array_bytes =
      smoke ? 8.0 * 1024 * 1024 : std::max(4.0 * llc, 256.0 * 1024 * 1024);
  c.array_mb = array_bytes / (1024.0 * 1024.0);
  c.stream_gbps = stream_triad_gbps(
      static_cast<std::size_t>(array_bytes / sizeof(double)), smoke ? 2 : 5);
  const std::int64_t iters = smoke ? 100000 : 20000000;
  c.peak_f = peak_gflops<float>(iters);
  c.peak_d = peak_gflops<double>(iters);
  return c;
}

// --- probe 2: kernels on the workload's own shapes --------------------------

/// Median seconds of one float apply_normal on the odd checkerboard of
/// @p u's lattice.
double normal_op_seconds(const std::shared_ptr<const GaugeField<double>>& u,
                         int l5, double min_seconds) {
  const auto geom = u->geom_ptr();
  const auto u_f = std::make_shared<GaugeField<float>>(u->convert<float>());
  const MobiusOperator<float> op(u_f, mobius(l5));
  SpinorField<float> in(geom, l5, Subset::Odd), out(geom, l5, Subset::Odd);
  in.gaussian(7);
  return median(time_calls([&] { op.apply_normal(out, in); }, 10,
                           min_seconds));
}

/// FEMTO_THREADS=1 re-exec of this binary's normal-op probe, as the
/// determinism test's golden_probe does; returns its seconds per call.
double normal_op_seconds_t1(const Options& o) {
  const std::string cmd = "FEMTO_THREADS=1 '" + o.exe +
                          "' --probe-normal-op --workload " + o.w->name +
                          " --seed " + std::to_string(o.seed) +
                          (o.smoke ? " --smoke" : "");
  FILE* p = popen(cmd.c_str(), "r");
  if (!p) throw std::runtime_error("cannot start " + o.exe);
  double t = 0.0;
  const int got = std::fscanf(p, "%lf", &t);
  if (pclose(p) != 0 || got != 1)
    throw std::runtime_error("normal-op probe at FEMTO_THREADS=1 failed");
  return t;
}

struct Kernel {
  double seconds;  ///< median per call
  double flops;
  double bytes;    ///< computed: each input, output and link read once
  double gflops() const { return flops / seconds / 1e9; }
  double gbps() const { return bytes / seconds / 1e9; }
};

template <typename T>
Kernel dslash_kernel(const std::shared_ptr<const GaugeField<double>>& u,
                     int l5, double min_seconds) {
  const auto geom = u->geom_ptr();
  const auto ut = std::make_shared<GaugeField<T>>(u->convert<T>());
  SpinorField<T> in(geom, l5, Subset::Even), out(geom, l5, Subset::Odd);
  in.gaussian(11);
  const DslashTuning tune;  // the operators' default, as the workloads run
  const double t = median(time_calls(
      [&] { dslash<T>(view(out), *ut, cview(in), 1, false, tune); }, 10,
      min_seconds));
  const double sites5 = static_cast<double>(geom->half_volume() * l5);
  return {t, sites5 * flops::kWilsonDslashPerSite,
          (2.0 * sites5 * kSpinorReals +
           4.0 * static_cast<double>(geom->volume()) * kLinkReals) *
              sizeof(T)};
}

void run_kernel_probes(const Options& o,
                       const std::shared_ptr<const GaugeField<double>>& u,
                       int l5, const Ceilings& ceil, Metrics& m) {
  const double min_s = o.smoke ? 0.002 : 0.2;
  const auto geom = u->geom_ptr();
  const double mf = mobius(l5).mf;

  auto roofline = [&](const Kernel& k, double peak) {
    const double ai = k.flops / k.bytes;
    return k.gflops() / std::min(peak, ai * ceil.stream_gbps);
  };
  const Kernel df = dslash_kernel<float>(u, l5, min_s);
  const Kernel dd = dslash_kernel<double>(u, l5, min_s);
  m.add("dirac.dslash_f.gflops", df.gflops(), "GFLOP/s");
  m.add("dirac.dslash_f.gbps_computed", df.gbps(), "GB/s");
  m.add("dirac.dslash_f.roofline_frac", roofline(df, ceil.peak_f), "ratio");
  m.add("dirac.dslash_d.gflops", dd.gflops(), "GFLOP/s");
  m.add("dirac.dslash_d.gbps_computed", dd.gbps(), "GB/s");
  m.add("dirac.dslash_d.roofline_frac", roofline(dd, ceil.peak_d), "ratio");

  SpinorField<float> a(geom, l5, Subset::Odd), b(geom, l5, Subset::Odd),
      c(geom, l5, Subset::Odd), d(geom, l5, Subset::Odd);
  a.gaussian(21);
  b.gaussian(22);
  c.gaussian(23);
  d.gaussian(24);
  const double field_bytes = static_cast<double>(a.bytes());
  const double sites = static_cast<double>(geom->half_volume());

  const FifthDimOp fifth{lambda_plus(l5, mf), lambda_minus(l5, mf)};
  const double t5 = median(time_calls(
      [&] { fifth.apply<float>(view(b), cview(a)); }, 10, min_s));
  m.add("dirac.fifth_dim_f.gflops",
        sites * flops::fifth_dim_per_site(l5) / t5 / 1e9, "GFLOP/s");
  m.add("dirac.fifth_dim_f.gbps_computed", 2.0 * field_bytes / t5 / 1e9,
        "GB/s");

  const double tan = median(time_calls(
      [&] { blas::axpy_norm2<float>(1e-3, a, b); }, 10, min_s));
  m.add("lattice.blas.axpy_norm2_f.gbps_computed",
        3.0 * field_bytes / tan / 1e9, "GB/s");
  const double ttc = median(time_calls(
      [&] { blas::triple_cg_update<float>(1e-3, a, b, c, d); }, 10, min_s));
  m.add("lattice.blas.triple_cg_update_f.gbps_computed",
        6.0 * field_bytes / ttc / 1e9, "GB/s");
  HalfSpinorField half(geom, l5, Subset::Odd);
  const double thr = median(
      time_calls([&] { half.roundtrip_norm2(c); }, 10, min_s));
  // Per 24-real block: read + write the floats, write the int16 values and
  // the float scale (the library's own traffic model for this kernel).
  const double half_bytes =
      static_cast<double>(half.blocks()) *
      (kSpinorReals * (2.0 * sizeof(float) + sizeof(std::int16_t)) +
       sizeof(float));
  m.add("solver.half.roundtrip_norm2.gbps_computed", half_bytes / thr / 1e9,
        "GB/s");

  // The propagator layer's serial loops around each solve.
  SpinorField<double> x5(geom, l5, Subset::Full), q4(geom, 1, Subset::Full);
  x5.gaussian(31);
  m.add("core.source_s_per_rhs",
        median(time_calls(
            [&] { core::make_dwf_point_source(geom, l5, {0, 0, 0, 0}, 0, 0); },
            10, min_s)),
        "s");
  m.add("core.project_s_per_rhs",
        median(time_calls([&] { core::project_4d(x5, q4); }, 10, min_s)),
        "s");

  // Cost of one empty launch on the global pool.
  const std::size_t nt = par::ThreadPool::global().size();
  const auto launch = time_calls(
      [&] { par::parallel_for(0, nt, [](std::size_t) {}, 1); }, 2000,
      min_s / 4);
  m.add("parallel.launch_ns", median(launch) * 1e9, "ns");
  m.add("parallel.launch_ns_tail", tail(launch) * 1e9, "ns");
  const double tn = normal_op_seconds(u, l5, min_s);
  m.add("parallel.normal_op_t1_over_tn", normal_op_seconds_t1(o) / tn,
        "ratio");
}

// --- contraction and I/O probes for workloads whose phase has none ----------

/// contract_io's round on this workload's 4D lattice.
void contraction_probe(const Options& o, PhaseLayers& pl) {
  const auto geom = workload_geom(o);
  core::Propagator up(geom), fh(geom), loaded(geom);
  fill_gaussian(up, 2 * o.seed);
  fill_gaussian(fh, 2 * o.seed + 1);
  const std::string path = o.scratch + "/contract_probe.femto";
  const auto first = core::nucleon_two_point(up, up, polarized_projector(), 0);
  for (int i = 0; i < (o.smoke ? 2 : 10); ++i) {
    const Round rd = contract_io_round(up, fh, loaded, path, pl);
    pl.contract_bitwise = pl.contract_bitwise && bitwise_equal(rd.c2, first);
  }
  std::filesystem::remove(path);
}

/// A small service run (4 requests, batch 4) for workloads whose phase
/// does not use the service.
void service_probe(const std::shared_ptr<const GaugeField<double>>& u, int l5,
                   PhaseLayers& pl) {
  SolveService svc(service_config(4));
  const auto src = service_sources(u->geom_ptr(), l5, 4);
  for (const auto& rec : service_round(svc, u, mobius(l5), src, 4, 4)) {
    pl.latency.push_back(rec.latency);
    pl.wait.push_back(rec.latency - rec.outcome.stats.seconds);
    pl.solve.push_back(rec.outcome.stats.seconds);
  }
}

/// C2 from the service's solutions at the origin, against the reference.
double service_c2_dev(const Options& o, const PhaseLayers& pl,
                      const std::shared_ptr<const GaugeField<double>>& u,
                      int l5, Result& r) {
  core::Propagator prop(u->geom_ptr());
  for (int k = 0; k < kColumns; ++k) {
    const auto& x = pl.service_x[static_cast<std::size_t>(k)];
    if (!x) return INFINITY;
    core::project_4d(*x, prop.column(k / kNc, k % kNc));
  }
  const Reference ref = load_or_compute_reference(o, u, l5, false);
  r.reference_source = ref.source;
  const auto c2 =
      core::nucleon_two_point(prop, prop, polarized_projector(), 0);
  return max_rel_dev(real_parts(c2), ref.c2);
}

// --- the traced run's per-layer table ---------------------------------------

void run_traced(const Options& o, PhaseLayers& pl, Result& r) {
  const SolveShape shape = solve_shape(o);
  SetupTimes probe_setup;  // heatbath timing for contract_io, which has none
  probe_setup.sample(shape.geom, shape.l5, o.seed);
  const auto u = make_gauge(shape.geom, o.seed);

  const SingleReplay rs = replay_single(u, shape.l5);
  const MultiReplay rm = replay_multi(u, shape.l5);
  const double fpn_f = static_cast<double>(
      MobiusOperator<double>(u, mobius(shape.l5)).flops_per_normal());
  const double t_f = sum(rs.f.seconds), t_d = sum(rs.d.seconds);

  if (o.w->kind == Kind::Service)
    pl.c2_dev = service_c2_dev(o, pl, u, shape.l5, r);
  if (pl.latency.empty()) service_probe(u, shape.l5, pl);
  if (pl.two_point.empty()) contraction_probe(o, pl);
  const Ceilings ceil = measure_ceilings(o.smoke);

  Metrics& m = r.layers;
  m.add("lattice.heatbath_s",
        pl.heatbath_s.value_or(median(probe_setup.heatbath)), "s");
  pl.stages.report(m);
  m.add("solver.iterations_per_rhs",
        pl.iterations_per_rhs.value_or(rs.iterations), "count");
  m.add("solver.reliable_updates_per_rhs",
        pl.reliable_updates_per_rhs.value_or(rs.reliable_updates), "count");
  m.add("solver.s_per_iteration",
        pl.s_per_iteration.value_or(rs.cg_s / rs.iterations), "s");
  m.add("solver.self_frac", (rs.cg_s - t_f - t_d) / rs.cg_s, "ratio");
  m.add("solver.c2_max_rel_dev", pl.c2_dev, "ratio");
  m.add("solver.geff_max_rel_dev", pl.geff_dev, "ratio");
  m.add("solver.replay_bitwise", rs.bitwise ? 1.0 : 0.0, "bool");
  m.add("solver.replay_bitwise_multi", rm.bitwise ? 1.0 : 0.0, "bool");
  m.add("dirac.normal_op_f.s_per_call", median(rs.f.seconds), "s");
  m.add("dirac.normal_op_f.s_per_call_tail", tail(rs.f.seconds), "s");
  m.add("dirac.normal_op_f.n", static_cast<double>(rs.f.seconds.size()),
        "count");
  m.add("dirac.normal_op_f.gflops", fpn_f / median(rs.f.seconds) / 1e9,
        "GFLOP/s");
  m.add("dirac.normal_op_f.share", t_f / rs.cg_s, "ratio");
  m.add("dirac.normal_op_d.s_per_call", median(rs.d.seconds), "s");
  m.add("dirac.normal_op_d.calls_per_rhs",
        static_cast<double>(rs.d.seconds.size()), "count");
  m.add("dirac.normal_op_multi_f.s_per_rhs",
        sum(rm.f.seconds) / sum(rm.f.rhs), "s");
  run_kernel_probes(o, u, shape.l5, ceil, m);
  m.add("service.latency_p50_s", median(pl.latency), "s");
  m.add("service.latency_tail_s", tail(pl.latency), "s");
  m.add("service.requests", static_cast<double>(pl.latency.size()), "count");
  m.add("service.wait_s_p50", median(pl.wait), "s");
  m.add("service.solve_s_p50", median(pl.solve), "s");
  const double vol = static_cast<double>(workload_geom(o)->volume());
  m.add("core.contract.two_point_s", median(pl.two_point), "s");
  m.add("core.contract.fh_three_point_s", median(pl.three_point), "s");
  m.add("core.contract.msites_per_s", vol / median(pl.two_point) / 1e6,
        "Msites/s");
  m.add("core.contract.bitwise_repeat", pl.contract_bitwise ? 1.0 : 0.0,
        "bool");
  m.add("fio.write_mbps", pl.file_bytes / median(pl.write) / 1e6, "MB/s");
  m.add("fio.read_mbps", pl.file_bytes / median(pl.read) / 1e6, "MB/s");
  m.add("fio.bytes_per_column", pl.file_bytes / kColumns, "B");
  m.add("ceiling.stream_triad_gbps", ceil.stream_gbps, "GB/s");
  m.add("ceiling.peak_gflops_f", ceil.peak_f, "GFLOP/s");
  m.add("ceiling.peak_gflops_d", ceil.peak_d, "GFLOP/s");
  m.add("ceiling.stream_array_mb", ceil.array_mb, "MB");
  m.add("ceiling.llc_mb", ceil.llc_mb, "MB");
  m.add("trace.replay_overhead_pct",
        100.0 * (rs.replay_s - rs.real_s) / rs.real_s, "%");
}

// --- main -------------------------------------------------------------------

Options parse(int argc, char** argv) {
  Options o;
  o.exe = argv[0];
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") name = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--out") o.out = value();
    else if (a == "--scratch") o.scratch = value();
    else if (a == "--reference-dir") o.reference_dir = value();
    else if (a == "--traced") o.traced = true;
    else if (a == "--smoke") o.smoke = true;
    else if (a == "--make-reference") o.make_reference = true;
    else if (a == "--probe-normal-op") o.probe_normal_op = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  for (const auto& w : kWorkloads)
    if (name == w.name) o.w = &w;
  if (!o.w) throw std::invalid_argument("unknown workload '" + name + "'");
  if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  if (!o.make_reference && !o.probe_normal_op && o.out.empty())
    throw std::invalid_argument("--out is required");
  if (o.make_reference && o.reference_dir.empty())
    throw std::invalid_argument("--make-reference needs --reference-dir");
  return o;
}

int run(const Options& o) {
  if (o.probe_normal_op) {
    const SolveShape shape = solve_shape(o);
    std::printf("%.17g\n",
                normal_op_seconds(make_gauge(shape.geom, o.seed), shape.l5,
                                  o.smoke ? 0.002 : 0.2));
    return 0;
  }
  if (o.make_reference) {
    if (!o.w->reference || std::strcmp(o.w->reference, o.w->name) != 0) {
      std::printf("%s: no reference of its own\n", o.w->name);
      return 0;
    }
    const Reference ref = compute_reference(
        make_gauge(workload_geom(o), o.seed), o.w->l5, o.w->with_fh);
    if (!ref.valid) throw std::runtime_error("reference solve failed");
    save_reference(o, ref);
    std::printf("wrote %s\n", reference_path(o).c_str());
    return 0;
  }

  Result r;
  PhaseLayers pl;
  switch (o.w->kind) {
    case Kind::Fig2: pl = run_fig2(o, r); break;
    case Kind::Service: pl = run_service(o, r); break;
    case Kind::ContractIo: pl = run_contract_io(o, r); break;
  }
  if (o.traced) run_traced(o, pl, r);
  r.correct = r.failed == 0;

  std::ofstream f(o.out);
  f << "{\"workload\": \"" << o.w->name << "\", \"seed\": " << o.seed
    << ", \"threads\": " << par::ThreadPool::global().size()
    << ", \"smoke\": " << (o.smoke ? "true" : "false")
    << ", \"traced\": " << (o.traced ? "true" : "false")
    << ", \"units\": {\"wall_s\": " << json_array(r.wall)
    << ", \"s_per_propagator\": " << json_array(r.s_per_prop)
    << ", \"sustained_gflops\": " << json_array(r.gflops) << "}"
    << ", \"reference_source\": \"" << r.reference_source << "\""
    << ", \"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"e2e\": " << r.e2e.json()
    << ", \"layers\": " << r.layers.json() << "}\n";
  if (!f) throw std::runtime_error("cannot write " + o.out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "femtobench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "femtobench: %s\n", e.what());
    return 3;
  }
}
