// femtoscope end-to-end: run a tiny but REAL slice of the paper's
// campaign -- the Fig. 2 workflow (gauge -> propagators -> contractions),
// an autotune warm-up, the mpi_jm wire protocol, a multi-rank halo-style
// exchange, and batched SolveService solves -- with tracing and the crash
// flight recorder armed, then export and self-validate the femtoscope
// artifacts:
//
//   observed_trace.json     merged multi-rank Chrome trace_event JSON
//                           (one process row per rank, s/f flow arrows;
//                           open in Perfetto or chrome://tracing)
//   observed_report.json    schema-versioned run report with the measured
//                           sustained-performance block (S VI-VII)
//   observed_flame.txt      collapsed span stacks (flamegraph.pl /
//                           speedscope input): self time per stack, in
//                           nanoseconds, derived from the trace spans
//   observed_blackbox.json  flight-recorder state dump (the same document
//                           a FEMTO_CHECK failure or fatal signal writes)
//
// Exit status is the smoke test: non-zero if any artifact fails to parse,
// the flow arrows are missing, the critical path is empty, the flamegraph
// misses the workflow stages or does not add up to the traced time, or
// the derived block is missing its measured inputs.
//
//   ./observed_run [output_dir]       (default: current directory)

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "autotune/dslash_tunable.hpp"
#include "comm/communicator.hpp"
#include "core/workflow.hpp"
#include "jobmgr/mpi_jm_protocol.hpp"
#include "lattice/gauge.hpp"
#include "obs/blackbox.hpp"
#include "obs/flow.hpp"
#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "service/solve_service.hpp"

namespace {

bool check(bool ok, const char* what) {
  if (!ok) std::fprintf(stderr, "observed_run: FAILED: %s\n", what);
  return ok;
}

std::string slurp(const std::string& path) {
  std::string body;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return body;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) body.append(buf, n);
  std::fclose(f);
  return body;
}

bool has(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : ".";
  femto::obs::set_trace_enabled(true);
  if (std::getenv("FEMTO_LOG") == nullptr)
    femto::obs::set_log_level(femto::obs::LogLevel::Info);

  // Arm the flight recorder for the whole run: a FEMTO_CHECK failure or
  // fatal signal anywhere below dumps the blackbox.
  const std::string blackbox_path = out_dir + "/observed_blackbox.json";
  femto::obs::blackbox_install(blackbox_path);

  // --- 1. the Fig. 2 workflow on a tiny lattice: real solves feed the
  // solver.* metrics, per-solve residual histories, and workflow spans.
  femto::core::WorkflowOptions wopts;
  wopts.extents = {4, 4, 4, 8};
  wopts.n_configs = 1;
  wopts.thermalization = 2;
  wopts.with_fh = false;
  wopts.solver_tol = 1e-7;
  wopts.scratch_dir = out_dir;
  const auto wrep = femto::core::run_workflow(wopts);

  // --- 2. autotune warm-up: the second identical request is a cache hit,
  // so the report's hit rate comes from real lookups.
  const auto geom = std::make_shared<femto::Geometry>(4, 4, 4, 8);
  auto tu = std::make_shared<femto::GaugeField<double>>(geom);
  femto::weak_gauge(*tu, 2025, 0.25);
  (void)femto::tune::tuned_dslash_grain<double>(tu, wopts.mobius.l5);
  (void)femto::tune::tuned_dslash_grain<double>(tu, wopts.mobius.l5);

  // --- 3. the mpi_jm protocol with real message passing: lump managers
  // measure their own busy/idle split (jm.lump_busy_us / jm.lump_idle_us).
  std::vector<femto::jm::Task> tasks;
  for (int i = 0; i < 12; ++i) {
    femto::jm::Task t;
    t.id = i;
    t.nodes = 4;
    t.duration = 400.0;  // 2 ms each at 5 us per simulated second
    tasks.push_back(t);
  }
  femto::jm::ProtocolOptions popts;
  popts.n_lumps = 3;
  popts.nodes_per_lump = 4;
  popts.us_per_sim_second = 5.0;
  const auto prep = femto::jm::run_mpi_jm_protocol(tasks, popts);

  // --- 4. a multi-rank halo-style ring exchange: every femtocomm
  // send/recv carries a flow id, so the merged trace draws a causal arrow
  // from each rank's send to the neighbour's recv and the critical-path
  // reducer can chain the waits.
  femto::comm::run_ranks(3, [](femto::comm::RankHandle& h) {
    FEMTO_TRACE_SCOPE("comm", "halo_ring");
    const int n = h.size();
    const int right = (h.rank() + 1) % n;
    const int left = (h.rank() + n - 1) % n;
    std::vector<double> face(64, static_cast<double>(h.rank()));
    for (int round = 0; round < 4; ++round) {
      h.send_vec<double>(right, 100 + round, face);
      const auto got = h.recv_vec<double>(left, 100 + round);
      face[0] += got[0];  // consume so the exchange is load-bearing
    }
  });

  // --- 5. batched solves through the async SolveService: submit/claim
  // pairs trace as service flows, and the service's queue state is a
  // registered blackbox provider while it is alive.
  {
    const auto sgeom = std::make_shared<femto::Geometry>(4, 4, 4, 4);
    const femto::MobiusParams sparams{4, -1.8, 1.5, 0.5, 0.1};
    auto su = std::make_shared<femto::GaugeField<double>>(sgeom);
    femto::weak_gauge(*su, 2026, 0.25);
    femto::SolveServiceConfig scfg;
    scfg.max_batch = 2;
    scfg.solver.tol = 1e-7;
    femto::SolveService svc(scfg);
    std::vector<std::future<femto::SolveOutcome>> futs;
    for (std::uint64_t r = 0; r < 3; ++r) {
      auto b = std::make_shared<femto::SpinorField<double>>(
          sgeom, sparams.l5, femto::Subset::Full);
      b->gaussian(7000 + r);
      futs.push_back(svc.submit(femto::SolveRequest{su, sparams, b}));
    }
    svc.drain();
    for (auto& f : futs)
      if (!f.get().stats.converged)
        std::fprintf(stderr, "observed_run: service solve not converged\n");
  }

  // --- export + self-validate.
  const std::string trace_path = out_dir + "/observed_trace.json";
  const std::string report_path = out_dir + "/observed_report.json";
  bool ok = true;
  ok &= check(femto::obs::write_chrome_trace(trace_path),
              "writing chrome trace");
  ok &= check(femto::obs::write_report(report_path, "observed_run"),
              "writing run report");

  std::string err;
  const std::string trace = slurp(trace_path);
  ok &= check(femto::obs::json_validate(trace, &err),
              ("trace JSON invalid: " + err).c_str());
  ok &= check(has(trace, "\"traceEvents\""), "trace has traceEvents");
  ok &= check(has(trace, "dslash") || has(trace, "fifth_dim_op"),
              "trace contains dirac spans");
  ok &= check(has(trace, "lump_job"), "trace contains jobmgr spans");
  // Merged multi-rank layout: the ring exchange ran 3 ranks, so the
  // export must name per-rank process rows and draw s/f flow arrows for
  // the matched send/recv (and submit/claim) pairs.
  ok &= check(has(trace, "\"name\":\"rank 1\""),
              "trace has per-rank process rows");
  ok &= check(has(trace, "\"ph\":\"s\""), "trace has flow start events");
  ok &= check(has(trace, "\"ph\":\"f\""), "trace has flow finish events");

  // Critical path: the longest chain of waits across the whole run.
  const auto cp = femto::obs::critical_path(femto::obs::trace_snapshot());
  std::printf("%s", femto::obs::critical_path_summary(cp).c_str());
  ok &= check(cp.edges_matched > 0, "flow edges matched");
  ok &= check(!cp.chain.empty(), "critical path non-empty");

  // Flamegraph: the spans' self time per stack.  Every thread is
  // quiescent, so the export and this snapshot see the same spans, and
  // the weights must add up to the snapshot's top-level span time.
  const std::string flame_path = out_dir + "/observed_flame.txt";
  ok &= check(femto::obs::write_collapsed_stacks(flame_path),
              "writing collapsed stacks");
  const std::string flame = slurp(flame_path);
  std::int64_t flame_ns = 0;  // each line: "stack weight"
  for (std::size_t at = 0, eol = 0;
       (eol = flame.find('\n', at)) != std::string::npos; at = eol + 1)
    flame_ns += std::strtoll(flame.c_str() + flame.rfind(' ', eol) + 1,
                             nullptr, 10);
  ok &= check(!flame.empty(), "collapsed stacks non-empty");
  ok &= check(has(flame, "workflow:propagators"),
              "flamegraph shows the workflow stage spans");
  ok &= check(flame_ns == femto::obs::top_level_span_ns(
                              femto::obs::trace_snapshot()),
              "flamegraph weights add up to the top-level span time");

  // Flight recorder: an operator-style mid-run dump must be the same
  // valid document a crash would produce.
  ok &= check(femto::obs::blackbox_write_now("operator_dump"),
              "writing blackbox dump");
  const std::string box = slurp(blackbox_path);
  ok &= check(femto::obs::json_validate(box, &err),
              ("blackbox JSON invalid: " + err).c_str());
  ok &= check(has(box, femto::obs::kBlackboxSchema), "blackbox schema tag");
  femto::obs::blackbox_uninstall();

  const std::string report = slurp(report_path);
  ok &= check(femto::obs::json_validate(report, &err),
              ("report JSON invalid: " + err).c_str());
  ok &= check(has(report, femto::obs::kReportSchema), "report schema tag");
  ok &= check(has(report, "\"sustained_gflops\""), "derived block");
  ok &= check(!has(report, "\"sustained_gflops\":0,"),
              "sustained GFLOP/s measured (non-zero)");
  ok &= check(has(report, "\"jm_source\":\"mpi_jm_lump_timeline\""),
              "jm efficiency from measured lump timeline");
  ok &= check(has(report, "\"solver\":\"mixed_cg\""),
              "per-solve records present");
  ok &= check(prep.jobs_completed == static_cast<int>(tasks.size()),
              "all protocol jobs completed");
  ok &= check(wrep.all_converged, "workflow solves converged");

  std::printf("%s", femto::obs::report_summary().c_str());
  std::printf("trace    -> %s\nreport   -> %s\nflame    -> %s\n"
              "blackbox -> %s\n",
              trace_path.c_str(), report_path.c_str(), flame_path.c_str(),
              blackbox_path.c_str());
  std::printf("observed_run: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
