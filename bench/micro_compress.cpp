// Microbenchmark: gauge storage tiers (DESIGN.md §16) -- full18 vs
// recon12.
//
// Two studies, both on hot (random SU(3)) links, each timing its two
// formats round-robin:
//
//  * stream -- the GATED study: a DRAM-resident float gauge field is
//    streamed link by link (load + trace accumulate) per format.  This is
//    the bandwidth-bound regime the paper's compression argument lives
//    in: fewer stored bytes -> fewer streamed bytes -> more sites per
//    second.  The claim: recon12 beats full18 per-site throughput by
//    >= kRecon12Gate.  The loop is local to this bench, so the library
//    does not charge it; its GB/s is the stored bytes over time.
//
//  * dslash -- INFO-ONLY: the end-to-end float dslash per format on a
//    cache-unfriendly volume.  On wide-SIMD, bandwidth-starved machines
//    this tracks the stream study; on scalar or compute-bound builds the
//    reconstruction arithmetic can win back the byte savings, which is
//    exactly why the autotuner sweeps the format axis per machine instead
//    of hard-coding a tier.
//
// Results land in BENCH_compress.json, gated by benchdiff.  Run it at
// FEMTO_THREADS=1 (scripts/bench_all.sh does): the stream loop is
// single-threaded, and idle pool workers only add spread.

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dirac/wilson.hpp"
#include "harness.hpp"
#include "lattice/compressed_gauge.hpp"
#include "lattice/gauge.hpp"
#include "simd/vec.hpp"

namespace {

constexpr int kInner = 2;  // kernel calls per timed sample
constexpr int kReps = 8;   // timed samples; min is reported
constexpr int kWarm = 1;   // untimed call: faults the pages
// The gate auto-passes on scalar builds: with no SIMD the reference
// study is not bandwidth-bound and the compression claim is vacuous.
// The threshold sits below the noise: 20 runs at FEMTO_THREADS=1 on a
// 4-core sse2 box read x1.38-x2.10 (median x1.60, interquartile spread
// x0.15), and the gate is min - IQR rounded down.
constexpr double kRecon12Gate = 1.2;

// Reports one study's rows per format: seconds, GB/s of @p bytes, Msites/s
// of @p sites, and the speedup over full18.  Returns recon12's speedup.
double report_study(femto::bench::Report& rep, const std::string& study,
                    const std::vector<double>& seconds,
                    const std::vector<std::int64_t>& bytes, double sites) {
  const char* const formats[] = {"full18", "recon12"};
  std::printf("%s:\n", study.c_str());
  for (std::size_t k = 0; k < 2; ++k) {
    const std::string key = study + "." + formats[k];
    const double gbps = femto::bench::giga_per_s(bytes[k], seconds[k]);
    const double msites = sites / seconds[k] / 1e6;
    const double speedup = seconds[0] / seconds[k];
    rep.set(key + ".seconds", seconds[k]);
    rep.set(key + ".gbps", gbps);
    rep.set(key + ".msites_per_s", msites);
    rep.set(key + ".speedup", speedup);
    std::printf("  %-8s %9.3e s  %7.2f GB/s  %8.2f Msites/s  (x%.3f)\n",
                formats[k], seconds[k], gbps, msites, speedup);
  }
  return seconds[0] / seconds[1];
}

// ---------------------------------------------------------------------------
// Study 1 (gated): DRAM link stream per format.
// ---------------------------------------------------------------------------

// Stream every link of @p u (the container's load() does the
// reconstruction in registers) and fold the trace into a sink so the
// loads cannot be optimised away.
template <typename GaugeT>
double stream_links(const GaugeT& u) {
  double sink = 0.0;
  const std::int64_t vol = u.geom().volume();
  for (int mu = 0; mu < 4; ++mu)
    for (std::int64_t s = 0; s < vol; ++s) {
      const auto link = u.load(mu, s);
      sink += static_cast<double>(link(0, 0).re + link(1, 1).re +
                                  link(2, 2).re);
    }
  return sink;
}

double stream_study(const std::shared_ptr<const femto::Geometry>& geom,
                    femto::bench::Report& rep) {
  femto::GaugeField<double> ud(geom);
  femto::hot_gauge(ud, 7);
  const auto u = ud.convert<float>();
  const femto::CompressedGaugeField<float> r12(u);

  double sink = 0.0;
  const std::vector<double> seconds = femto::bench::min_seconds(
      {[&] { sink += stream_links(u); }, [&] { sink += stream_links(r12); }},
      kInner, kReps, kWarm);
  // Keep the sink alive without polluting the report.
  if (sink == 0.123456789) std::printf("sink %f\n", sink);
  return report_study(rep, "stream", seconds, {u.bytes(), r12.bytes()},
                      static_cast<double>(geom->volume()));
}

// ---------------------------------------------------------------------------
// Study 2 (info-only): end-to-end float dslash per format.
// ---------------------------------------------------------------------------

void dslash_study(const std::shared_ptr<const femto::Geometry>& geom, int l5,
                  femto::bench::Report& rep) {
  femto::GaugeField<double> ud(geom);
  femto::hot_gauge(ud, 11);
  const auto u = ud.convert<float>();
  const femto::CompressedGaugeField<float> r12(u);

  femto::SpinorField<float> in(geom, l5, femto::Subset::Odd),
      out(geom, l5, femto::Subset::Even);
  in.gaussian(3);

  femto::DslashTuning tune;
  tune.variant = femto::simd::kWidth<float> > 1
                     ? femto::DslashVariant::kVector
                     : femto::DslashVariant::kScalar;

  const std::vector<std::function<void()>> calls = {
      [&] {
        femto::dslash<float>(femto::view(out), u, femto::cview(in), 0,
                             false, tune);
      },
      [&] {
        femto::dslash<float>(femto::view(out), r12, femto::cview(in), 0,
                             false, tune);
      }};
  const std::vector<double> seconds =
      femto::bench::min_seconds(calls, kInner, kReps, kWarm);
  report_study(rep, "dslash", seconds,
               {femto::bench::charge(calls[0]).bytes,
                femto::bench::charge(calls[1]).bytes},
               static_cast<double>(geom->half_volume()) * l5);
}

}  // namespace

int main() {
  std::printf("gauge storage tier microbenchmark: isa=%s, float W=%d\n",
              femto::simd::kIsaName, femto::simd::kWidth<float>);
  femto::bench::Report rep;
  rep.set("width_float", femto::simd::kWidth<float>);

  // DRAM-resident stream: 16x16x16x32 = 131k sites -> 37.7 MB of full18
  // float links (25.2 MB for recon12), well past any LLC on the target
  // machines.
  auto geom_stream = std::make_shared<femto::Geometry>(16, 16, 16, 32);
  std::printf("stream volume 16x16x16x32 (%.1f MB full18 float links)\n\n",
              static_cast<double>(4 * geom_stream->volume() * 18 *
                                  static_cast<std::int64_t>(sizeof(float))) /
                  1e6);
  const double r12_speedup = stream_study(geom_stream, rep);
  std::printf("\n");

  // End-to-end dslash: modest volume, info-only.
  auto geom_dslash = std::make_shared<femto::Geometry>(8, 8, 8, 16);
  dslash_study(geom_dslash, 8, rep);

  const bool ok =
      femto::simd::kWidth<float> <= 1 || r12_speedup >= kRecon12Gate;
  rep.set("recon12_gate_ok", ok);
  std::printf("\nrecon12 stream speedup x%.3f (gate x%.2f) -> %s\n",
              r12_speedup, kRecon12Gate, ok ? "OK" : "FAIL");
  return rep.write("BENCH_compress.json") ? 0 : 1;
}
