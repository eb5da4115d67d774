#include "obs/report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "simd/vec.hpp"

namespace femto::obs {

namespace {

/// Decodes the dslash.variant_{f,d} gauge ordinal.  Mirrors the
/// femto::DslashVariant encoding (obs sits below dirac in the layer DAG,
/// so it cannot include the enum itself).
const char* dslash_variant_name(double v) {
  const int k = static_cast<int>(v);
  if (k == 1) return "vector";
  if (k == 2) return "vector_blocked";
  return "scalar";
}

/// Decodes the dslash.format_{f,d} gauge ordinal.  Mirrors the
/// femto::GaugeFormat encoding in lattice/compressed_gauge.hpp (same
/// layering reason as above).
const char* dslash_format_name(double v) {
  return static_cast<int>(v) == 1 ? "recon12" : "full18";
}

// Ratios whose denominator never accumulated are UNDEFINED, not zero: an
// empty run did not sustain 0 GFLOP/s, it sustained nothing.  They start
// as quiet NaN, which json_number renders as an explicit null and the
// text summary as "n/a" -- downstream consumers (benchdiff, dashboards)
// can tell "measured zero" from "no data" (DESIGN.md §15).
constexpr double kUndefined = std::numeric_limits<double>::quiet_NaN();

struct Derived {
  double solver_seconds = 0.0;
  std::int64_t solver_flops = 0;
  std::int64_t solver_bytes = 0;
  double sustained_gflops = kUndefined;
  double arithmetic_intensity = kUndefined;
  std::int64_t autotune_hits = 0;
  std::int64_t autotune_misses = 0;
  double autotune_hit_rate = kUndefined;
  double jm_busy_s = 0.0;
  double jm_idle_s = 0.0;
  double jm_efficiency = kUndefined;
  const char* jm_source = "none";
  double application_gflops = kUndefined;
  double dslash_variant_f = 0.0;
  double dslash_variant_d = 0.0;
  double dslash_format_f = 0.0;
  double dslash_format_d = 0.0;
  double dslash_gbytes_f = 0.0;
  double dslash_gbytes_d = 0.0;
  std::int64_t svc_completed = 0;
  std::int64_t svc_batches = 0;
  double svc_queue_depth = 0.0;
  double svc_batch_mean = kUndefined;
  double svc_throughput = kUndefined;
};

Derived derive() {
  Registry& reg = Registry::global();
  Derived d;
  d.solver_seconds = reg.gauge("solver.seconds").get();
  d.solver_flops = reg.counter("solver.flops").get();
  d.solver_bytes = reg.counter("solver.bytes").get();
  if (d.solver_seconds > 0.0)
    d.sustained_gflops =
        static_cast<double>(d.solver_flops) / d.solver_seconds * 1e-9;
  if (d.solver_bytes > 0)
    d.arithmetic_intensity = static_cast<double>(d.solver_flops) /
                             static_cast<double>(d.solver_bytes);
  d.autotune_hits = reg.counter("autotune.cache_hits").get();
  d.autotune_misses = reg.counter("autotune.cache_misses").get();
  if (d.autotune_hits + d.autotune_misses > 0)
    d.autotune_hit_rate =
        static_cast<double>(d.autotune_hits) /
        static_cast<double>(d.autotune_hits + d.autotune_misses);
  // jm efficiency: prefer the measured per-lump busy/idle timelines from
  // the mpi_jm protocol; fall back to the schedule-model node-seconds.
  const double lump_busy =
      static_cast<double>(reg.counter("jm.lump_busy_us").get()) * 1e-6;
  const double lump_idle =
      static_cast<double>(reg.counter("jm.lump_idle_us").get()) * 1e-6;
  const double busy_node_s = reg.gauge("jm.busy_node_seconds").get();
  const double alloc_node_s = reg.gauge("jm.alloc_node_seconds").get();
  if (lump_busy + lump_idle > 0.0) {
    d.jm_busy_s = lump_busy;
    d.jm_idle_s = lump_idle;
    d.jm_efficiency = lump_busy / (lump_busy + lump_idle);
    d.jm_source = "mpi_jm_lump_timeline";
  } else if (alloc_node_s > 0.0) {
    d.jm_busy_s = busy_node_s;
    d.jm_idle_s = alloc_node_s - busy_node_s;
    d.jm_efficiency = busy_node_s / alloc_node_s;
    d.jm_source = "schedule_report";
  }
  // NaN-aware propagation: an undefined efficiency leaves the sustained
  // figure as-is (NaN > 0.0 is false); an undefined sustained figure makes
  // the application figure undefined too.
  d.application_gflops =
      d.jm_efficiency > 0.0 ? d.sustained_gflops * d.jm_efficiency
                            : d.sustained_gflops;
  d.dslash_variant_f = reg.gauge("dslash.variant_f").get();
  d.dslash_variant_d = reg.gauge("dslash.variant_d").get();
  d.dslash_format_f = reg.gauge("dslash.format_f").get();
  d.dslash_format_d = reg.gauge("dslash.format_d").get();
  d.dslash_gbytes_f = reg.gauge("dslash.gbytes_f").get();
  d.dslash_gbytes_d = reg.gauge("dslash.gbytes_d").get();
  // Async solve service (src/service): batch-occupancy mean comes from the
  // batch_size histogram, throughput from completed / busy seconds.
  d.svc_completed = reg.counter("solve_service.completed").get();
  d.svc_batches = reg.counter("solve_service.batches").get();
  d.svc_queue_depth = reg.gauge("solve_service.queue_depth").get();
  const Histogram& bh = reg.histogram("solve_service.batch_size");
  if (bh.count() > 0)
    d.svc_batch_mean =
        static_cast<double>(bh.sum()) / static_cast<double>(bh.count());
  if (d.svc_completed > 0)
    d.svc_throughput = reg.gauge("solve_service.throughput").get();
  return d;
}

void append_kv(std::string* out, const char* key, const std::string& val,
               bool* first) {
  if (!*first) *out += ',';
  *first = false;
  *out += '"';
  *out += key;  // well-known keys, no escaping needed
  *out += "\":";
  *out += val;
}

std::string quoted(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}

// Summary-table rendering of a possibly-undefined ratio: printf format
// @p fmt when defined, "n/a" when the run never fed the denominator.
std::string ratio_str(double v, const char* fmt) {
  if (std::isnan(v)) return "n/a";
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

std::string report_json(const std::string& title) {
  Registry& reg = Registry::global();
  const Derived d = derive();
  const TraceSnapshot trace = trace_snapshot();

  std::string out;
  out.reserve(1 << 14);
  out += '{';
  bool first = true;
  append_kv(&out, "schema", quoted(kReportSchema), &first);
  append_kv(&out, "title", quoted(title), &first);

  // counters
  out += ",\"counters\":{";
  {
    bool f = true;
    for (const auto& [name, v] : reg.counters()) {
      if (!f) out += ',';
      f = false;
      out += quoted(name);
      out += ':';
      out += json_number(v);
    }
  }
  out += '}';

  // gauges
  out += ",\"gauges\":{";
  {
    bool f = true;
    for (const auto& [name, v] : reg.gauges()) {
      if (!f) out += ',';
      f = false;
      out += quoted(name);
      out += ':';
      out += json_number(v);
    }
  }
  out += '}';

  // histograms: only non-empty buckets, as [bucket_lower_bound, count]
  // pairs -- 64 mostly-zero buckets per histogram would dominate the file.
  out += ",\"histograms\":{";
  {
    bool f = true;
    for (const auto& h : reg.histograms()) {
      if (!f) out += ',';
      f = false;
      out += quoted(h.name);
      out += ":{\"count\":";
      out += json_number(h.count);
      out += ",\"sum\":";
      out += json_number(h.sum);
      out += ",\"buckets\":[";
      bool fb = true;
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const std::int64_t n = h.buckets[static_cast<std::size_t>(b)];
        if (n == 0) continue;
        if (!fb) out += ',';
        fb = false;
        out += '[';
        out += json_number(Histogram::bucket_lower_bound(b));
        out += ',';
        out += json_number(n);
        out += ']';
      }
      out += "]}";
    }
  }
  out += '}';

  // per-solve records with (downsampled) residual histories
  out += ",\"solves\":[";
  {
    bool f = true;
    for (const auto& s : reg.solves()) {
      if (!f) out += ',';
      f = false;
      out += "{\"solver\":";
      out += quoted(s.solver);
      out += ",\"converged\":";
      out += s.converged ? "true" : "false";
      out += ",\"iterations\":";
      out += json_number(static_cast<std::int64_t>(s.iterations));
      out += ",\"reliable_updates\":";
      out += json_number(static_cast<std::int64_t>(s.reliable_updates));
      out += ",\"final_rel_residual\":";
      out += json_number(s.final_rel_residual);
      out += ",\"seconds\":";
      out += json_number(s.seconds);
      out += ",\"flops\":";
      out += json_number(s.flops);
      out += ",\"bytes\":";
      out += json_number(s.bytes);
      out += ",\"history\":[";
      bool fh = true;
      for (const auto& p : s.history) {
        if (!fh) out += ',';
        fh = false;
        char prec[2] = {p.precision, '\0'};
        out += "{\"iter\":";
        out += json_number(static_cast<std::int64_t>(p.iteration));
        out += ",\"rel_residual\":";
        out += json_number(p.rel_residual);
        out += ",\"precision\":";
        out += quoted(prec);
        out += ",\"reliable_update\":";
        out += p.reliable_update ? "true" : "false";
        out += '}';
      }
      out += "]}";
    }
  }
  out += "],\"total_solves\":";
  out += json_number(reg.total_solves());

  // trace meta (the spans themselves live in the Chrome trace file)
  out += ",\"trace\":{\"enabled\":";
  out += trace_enabled() ? "true" : "false";
  out += ",\"events\":";
  out += json_number(static_cast<std::int64_t>(trace.events.size()));
  out += ",\"dropped\":";
  out += json_number(static_cast<std::int64_t>(trace.dropped));
  out += ",\"threads\":";
  out += json_number(static_cast<std::int64_t>(trace.threads));
  out += '}';

  // simd build + tuned-kernel block: what the build vectorizes with and
  // which dslash variant the autotuner picked at which bandwidth
  out += ",\"simd\":{";
  {
    bool f = true;
    append_kv(&out, "isa", quoted(simd::kIsaName), &f);
    append_kv(&out, "width_float",
              json_number(std::int64_t{simd::kWidth<float>}), &f);
    append_kv(&out, "width_double",
              json_number(std::int64_t{simd::kWidth<double>}), &f);
    append_kv(&out, "dslash_variant_f",
              quoted(dslash_variant_name(d.dslash_variant_f)), &f);
    append_kv(&out, "dslash_variant_d",
              quoted(dslash_variant_name(d.dslash_variant_d)), &f);
    append_kv(&out, "dslash_format_f",
              quoted(dslash_format_name(d.dslash_format_f)), &f);
    append_kv(&out, "dslash_format_d",
              quoted(dslash_format_name(d.dslash_format_d)), &f);
    append_kv(&out, "dslash_gbytes_f", json_number(d.dslash_gbytes_f), &f);
    append_kv(&out, "dslash_gbytes_d", json_number(d.dslash_gbytes_d), &f);
  }
  out += '}';

  // derived sustained-performance block (paper S VI-VII, measured)
  out += ",\"derived\":{";
  {
    bool f = true;
    append_kv(&out, "solver_seconds", json_number(d.solver_seconds), &f);
    append_kv(&out, "solver_flops", json_number(d.solver_flops), &f);
    append_kv(&out, "solver_bytes", json_number(d.solver_bytes), &f);
    append_kv(&out, "sustained_gflops", json_number(d.sustained_gflops),
              &f);
    append_kv(&out, "arithmetic_intensity",
              json_number(d.arithmetic_intensity), &f);
    append_kv(&out, "autotune_hit_rate", json_number(d.autotune_hit_rate),
              &f);
    append_kv(&out, "jm_busy_seconds", json_number(d.jm_busy_s), &f);
    append_kv(&out, "jm_idle_seconds", json_number(d.jm_idle_s), &f);
    append_kv(&out, "jm_efficiency", json_number(d.jm_efficiency), &f);
    append_kv(&out, "jm_source", quoted(d.jm_source), &f);
    append_kv(&out, "application_gflops",
              json_number(d.application_gflops), &f);
    append_kv(&out, "solve_service_completed", json_number(d.svc_completed),
              &f);
    append_kv(&out, "solve_service_batches", json_number(d.svc_batches), &f);
    append_kv(&out, "solve_service_queue_depth",
              json_number(d.svc_queue_depth), &f);
    append_kv(&out, "solve_service_batch_mean",
              json_number(d.svc_batch_mean), &f);
    append_kv(&out, "solve_service_throughput",
              json_number(d.svc_throughput), &f);
  }
  out += "}}";
  return out;
}

std::string report_summary() {
  Registry& reg = Registry::global();
  const Derived d = derive();
  const TraceSnapshot trace = trace_snapshot();
  char buf[256];
  std::string out;
  out += "femtoscope run report\n";
  out += "  sustained performance (measured)\n";
  std::snprintf(buf, sizeof(buf),
                "    solver time           %12.3f s\n"
                "    solver flops          %14" PRId64 "\n"
                "    solver bytes          %14" PRId64 "\n"
                "    sustained             %12s GFLOP/s\n"
                "    arithmetic intensity  %12s flop/byte\n",
                d.solver_seconds, d.solver_flops, d.solver_bytes,
                ratio_str(d.sustained_gflops, "%.3f").c_str(),
                ratio_str(d.arithmetic_intensity, "%.3f").c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  autotune: %" PRId64 " hits / %" PRId64
                " misses (hit rate %s)\n",
                d.autotune_hits, d.autotune_misses,
                ratio_str(d.autotune_hit_rate * 100.0, "%.1f%%").c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  simd [%s]: float x%d, double x%d; dslash "
                "f=%s/%s (%.2f GB/s), d=%s/%s (%.2f GB/s)\n",
                simd::kIsaName, simd::kWidth<float>, simd::kWidth<double>,
                dslash_variant_name(d.dslash_variant_f),
                dslash_format_name(d.dslash_format_f), d.dslash_gbytes_f,
                dslash_variant_name(d.dslash_variant_d),
                dslash_format_name(d.dslash_format_d), d.dslash_gbytes_d);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  job manager [%s]: busy %.3f s, idle %.3f s, "
                "efficiency %s\n",
                d.jm_source, d.jm_busy_s, d.jm_idle_s,
                ratio_str(d.jm_efficiency * 100.0, "%.1f%%").c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  application-level sustained: %s GFLOP/s\n",
                ratio_str(d.application_gflops, "%.3f").c_str());
  out += buf;
  if (d.svc_completed > 0) {
    std::snprintf(buf, sizeof(buf),
                  "  solve service: %" PRId64 " solves in %" PRId64
                  " batches (mean batch %s), queue depth %.0f, "
                  "%s solves/s\n",
                  d.svc_completed, d.svc_batches,
                  ratio_str(d.svc_batch_mean, "%.2f").c_str(),
                  d.svc_queue_depth,
                  ratio_str(d.svc_throughput, "%.3f").c_str());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "  solves: %lld recorded (%lld retained)\n",
                static_cast<long long>(reg.total_solves()),
                static_cast<long long>(reg.solves().size()));
  out += buf;
  std::snprintf(
      buf, sizeof(buf),
      "  trace: %s, %zu spans across %d threads (%llu dropped)\n",
      trace_enabled() ? "enabled" : "disabled", trace.events.size(),
      trace.threads, static_cast<unsigned long long>(trace.dropped));
  out += buf;
  return out;
}

bool report_validate(const std::string& text, std::string* err) {
  if (!json_validate(text, err)) return false;
  const std::string marker =
      std::string("\"schema\":\"") + kReportSchema + "\"";
  if (text.find(marker) == std::string::npos) {
    if (err != nullptr)
      *err = std::string("report schema marker ") + kReportSchema +
             " missing (wrong schema version or not a femtoscope report)";
    return false;
  }
  return true;
}

bool write_report(const std::string& path, const std::string& title) {
  return write_file(path, report_json(title));
}

}  // namespace femto::obs
