#include "autotune/dslash_tunable.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <span>
#include <sstream>
#include <vector>

#include "lattice/gauge.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "simd/vec.hpp"

namespace femto::tune {
namespace {

std::shared_ptr<const GaugeField<double>> make_gauge() {
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  auto u = std::make_shared<GaugeField<double>>(g);
  weak_gauge(*u, 201, 0.2);
  return u;
}

TEST(DslashTunable, KeyEncodesGeometryAndPrecision) {
  auto u = make_gauge();
  DslashMultiTunable<double> t(u, 8, 0, 1);
  EXPECT_NE(t.key().find("4x4x4x8"), std::string::npos);
  EXPECT_NE(t.key().find("l5=8"), std::string::npos);
  EXPECT_NE(t.key().find("prec=8"), std::string::npos);

  auto uf = std::make_shared<GaugeField<float>>(u->convert<float>());
  DslashMultiTunable<float> tf(uf, 8, 0, 1);
  EXPECT_NE(tf.key(), t.key());
}

TEST(DslashTunable, CandidatesCoverGrainRange) {
  auto u = make_gauge();
  DslashMultiTunable<double> t(u, 4, 0, 1);
  const auto c = t.candidates();
  ASSERT_GE(c.size(), 2u);
  EXPECT_EQ(c.front().get("grain"), 16);
  // Last candidate runs the whole half-volume in one chunk.
  EXPECT_EQ(c.back().get("grain"), u->geom().half_volume());
}

TEST(DslashTunable, CandidatesSweepKernelVariants) {
  auto u = make_gauge();
  DslashMultiTunable<double> t(u, 4, 0, 1);
  const auto c = t.candidates();
  // The reference kernel leads the search at every width.
  EXPECT_EQ(c.front().get("variant"), 0);
  std::set<std::int64_t> variants;
  for (const auto& p : c) variants.insert(p.get("variant"));
  if (simd::kWidth<double> > 1) {
    // Vectorized builds race scalar vs vector vs lane-blocked; each
    // variant gets the full grain sweep.
    EXPECT_EQ(variants, (std::set<std::int64_t>{0, 1, 2}));
    EXPECT_EQ(c.size() % variants.size(), 0u);
  } else {
    // Scalar builds must not waste tuning time on lane variants that
    // degenerate to the scalar kernel with gather overhead.
    EXPECT_EQ(variants, (std::set<std::int64_t>{0}));
  }
}

TEST(DslashTunable, KeyEncodesSimdBuild) {
  // A femtotune cache written by a vectorized build must miss in a scalar
  // build (the variant ordinal would mean a kernel that isn't profitable
  // there), so the ISA/width is part of the key.
  auto u = make_gauge();
  DslashMultiTunable<double> t(u, 4, 0, 1);
  std::ostringstream want;
  want << ",simd=" << simd::kIsaName << "/" << simd::kWidth<double>;
  EXPECT_NE(t.key().find(want.str()), std::string::npos) << t.key();
}

TEST(DslashTunable, TunedVariantIsRecordedAndValid) {
  Autotuner::global().clear();
  auto u = make_gauge();
  const auto t = tuned_dslash_grain<double>(u, 2, 0);
  const int v = static_cast<int>(t.variant);
  EXPECT_GE(v, 0);
  EXPECT_LE(v, 2);
  if (simd::kWidth<double> == 1) {
    EXPECT_EQ(t.variant, DslashVariant::kScalar);
  }
  Autotuner::global().clear();
}

TEST(DslashTunable, TunedGrainComesFromCache) {
  Autotuner::global().clear();
  auto u = make_gauge();
  const auto t1 = tuned_dslash_grain<double>(u, 4, 0);
  EXPECT_GT(t1.grain, 0u);
  const auto misses = Autotuner::global().cache_misses();
  const auto t2 = tuned_dslash_grain<double>(u, 4, 0);
  EXPECT_EQ(t2.grain, t1.grain);
  EXPECT_EQ(Autotuner::global().cache_misses(), misses);  // pure lookup
  // Another batch size is its own sweep.
  (void)tuned_dslash_grain<double>(u, 4, 0, FormatSet::kFullOnly, 2);
  EXPECT_EQ(Autotuner::global().cache_misses(), misses + 1);
  Autotuner::global().clear();
}

TEST(DslashTunable, SingleRhsTuningIsTheBatchOfOne) {
  // tuned_dslash_grain's default batch is one right-hand side: the same
  // cache entry answers an explicit nrhs = 1 lookup.
  Autotuner::global().clear();
  auto u = make_gauge();
  const DslashTuning single = tuned_dslash_grain<double>(u, 2, 0);
  const auto misses = Autotuner::global().cache_misses();
  const DslashTuning one =
      tuned_dslash_grain<double>(u, 2, 0, FormatSet::kFullOnly, 1);
  EXPECT_EQ(Autotuner::global().cache_misses(), misses);
  EXPECT_EQ(one.grain, single.grain);
  EXPECT_EQ(one.variant, single.variant);
  EXPECT_EQ(one.format, single.format);
  Autotuner::global().clear();
}

TEST(DslashTunable, MetricsPopulated) {
  Autotuner tuner;
  tuner.set_reps(1);
  auto u = make_gauge();
  DslashMultiTunable<double> t(u, 2, 1, 1);
  const auto& e = tuner.tune(t);
  EXPECT_GT(e.gflops, 0.0);
  EXPECT_GT(e.gbytes, 0.0);
  EXPECT_GT(e.seconds, 0.0);
}

TEST(DslashMultiTunable, KeyCarriesTheBatchSize) {
  auto u = make_gauge();
  DslashMultiTunable<double> t4(u, 2, 0, 4);
  DslashMultiTunable<double> t8(u, 2, 0, 8);
  EXPECT_NE(t4.key().find("dslash_multi"), std::string::npos);
  EXPECT_NE(t4.key().find(",nrhs=4,"), std::string::npos) << t4.key();
  EXPECT_NE(t4.key(), t8.key());  // the batch is part of the cache key
  DslashMultiTunable<double> single(u, 2, 0, 1);
  EXPECT_NE(single.key().find(",nrhs=1,"), std::string::npos);
  EXPECT_NE(t4.key(), single.key());
}

TEST(DslashMultiTunable, CandidatesAtTwelveRhsAreFormatVariantGrain) {
  // The batch is the caller's, not a knob: every candidate applies one
  // dslash_multi of all nrhs fields.  The float operator's sweep at the
  // Fig. 2 workflow's batch of 12 on 4^4, l5 = 4 races 2 formats x 3
  // variants x 3 grains (16, 64 and the whole 128-site parity) = 18
  // candidates on a vector build.
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  auto u = std::make_shared<GaugeField<double>>(g);
  weak_gauge(*u, 203, 0.2);
  auto uf = std::make_shared<GaugeField<float>>(u->convert<float>());
  DslashMultiTunable<float> t(uf, 4, 0, 12, FormatSet::kAll);
  const auto c = t.candidates();
  std::set<std::int64_t> grains, variants;
  for (const auto& p : c) {
    EXPECT_EQ(p.knobs.count("nrhs"), 0u) << p.to_string();
    grains.insert(p.get("grain"));
    variants.insert(p.get("variant"));
  }
  EXPECT_EQ(grains, (std::set<std::int64_t>{16, 64, 128}));
  if (simd::kWidth<float> > 1)
    EXPECT_EQ(variants, (std::set<std::int64_t>{0, 1, 2}));
  else
    EXPECT_EQ(variants, (std::set<std::int64_t>{0}));
  EXPECT_EQ(c.size(), 2 * variants.size() * grains.size());
}

TEST(DslashMultiTunable, TunedMultiRhsFeedsRunReport) {
  // A run tuned at a batch (DwfSolver::autotune_multi, the solve
  // service's path) must report the kernel its operators run, not the
  // registry defaults.
  obs::Registry::global().reset();
  Autotuner::global().clear();
  auto u = make_gauge();
  auto uf = std::make_shared<GaugeField<float>>(u->convert<float>());
  const DslashTuning t =
      tuned_dslash_grain<float>(uf, 2, 0, FormatSet::kFullOnly, 4);
  EXPECT_GT(obs::gauge("dslash.gbytes_f").get(), 0.0);
  const std::string want = std::string("\"dslash_variant_f\":\"") +
                           to_string(t.variant) + "\"";
  const std::string json = obs::report_json();
  EXPECT_NE(json.find(want), std::string::npos) << want << " in " << json;
  Autotuner::global().clear();
}

}  // namespace
}  // namespace femto::tune

// ---------------------------------------------------------------------------
// The gauge storage tier axis (DESIGN.md §16): format is an autotuned
// dimension alongside variant and grain.
// ---------------------------------------------------------------------------

namespace femto::tune {
namespace {

std::shared_ptr<const GaugeField<double>> make_hot_gauge() {
  // hot links: recon12 reconstruction is only exercised on real SU(3)
  // links, and the tuner builds a CompressedGaugeField per sweep.
  auto g = std::make_shared<Geometry>(4, 4, 4, 8);
  auto u = std::make_shared<GaugeField<double>>(g);
  hot_gauge(*u, 211);
  return u;
}

TEST(DslashTunable, DefaultCandidatesStayFullFormat) {
  // Callers that never opt into tiers must see the pre-tier sweep: every
  // candidate reads full18 links.
  auto u = make_hot_gauge();
  DslashMultiTunable<double> t(u, 4, 0, 1);
  for (const auto& p : t.candidates()) EXPECT_EQ(p.get("format", 0), 0);
}

TEST(DslashTunable, CandidatesSweepAllFormats) {
  auto u = make_hot_gauge();
  DslashMultiTunable<double> t(u, 4, 0, 1, FormatSet::kAll);
  const auto c = t.candidates();
  // The reference tier leads the search (front stays full18/scalar).
  EXPECT_EQ(c.front().get("format", 0), 0);
  EXPECT_EQ(c.front().get("variant"), 0);
  std::set<std::int64_t> formats;
  for (const auto& p : c) formats.insert(p.get("format", 0));
  EXPECT_EQ(formats, (std::set<std::int64_t>{0, 1}));
  // Every format gets the full variant x grain sweep.
  EXPECT_EQ(c.size() % formats.size(), 0u);
}

TEST(DslashTunable, KeyEncodesFormatSet) {
  // A cache entry tuned over the full tier sweep must not be served to a
  // caller that only admits full18 (the stored ordinal could name a tier
  // the caller cannot decode).
  auto u = make_hot_gauge();
  DslashMultiTunable<double> full(u, 4, 0, 1);
  DslashMultiTunable<double> all(u, 4, 0, 1, FormatSet::kAll);
  EXPECT_NE(full.key(), all.key());
  EXPECT_NE(all.key().find(",fmt=1"), std::string::npos) << all.key();
}

TEST(DslashTunable, TunedFormatIsRecordedAndValid) {
  Autotuner::global().clear();
  auto u = make_hot_gauge();
  const auto t = tuned_dslash_grain<double>(u, 2, 0, FormatSet::kAll);
  const int f = static_cast<int>(t.format);
  EXPECT_GE(f, 0);
  EXPECT_LT(f, kNumGaugeFormats);
  // The default sweep still pins full18.
  const auto t0 = tuned_dslash_grain<double>(u, 2, 1);
  EXPECT_EQ(t0.format, GaugeFormat::kFull18);
  Autotuner::global().clear();
}

TEST(DslashTunable, VerificationAcceptsEveryCorrectCandidate) {
  // Every variant on either tier is a correct kernel, so a verified sweep
  // rejects nothing in either precision: recon12_tolerance<T>() must
  // cover float reconstruction rounding, and a broken variant (say,
  // scratch that pool workers never see) would show up as a rejection.
  Autotuner tuner;
  tuner.set_reps(1);
  auto u = make_hot_gauge();
  DslashMultiTunable<double> td(u, 3, 0, 1, FormatSet::kAll);
  EXPECT_EQ(tuner.tune(td).rejected, 0);
  auto uf = std::make_shared<GaugeField<float>>(u->convert<float>());
  DslashMultiTunable<float> tf(uf, 3, 0, 1, FormatSet::kAll);
  EXPECT_EQ(tuner.tune(tf).rejected, 0);
  DslashMultiTunable<float> tm(uf, 3, 0, 3, FormatSet::kAll);
  EXPECT_EQ(tuner.tune(tm).rejected, 0);
}

TEST(DslashMultiTunable, FormatAxisComposesWithBatch) {
  auto u = make_hot_gauge();
  DslashMultiTunable<double> t(u, 2, 0, 4, FormatSet::kAll);
  std::set<std::int64_t> formats;
  for (const auto& p : t.candidates()) formats.insert(p.get("format", 0));
  EXPECT_EQ(formats, (std::set<std::int64_t>{0, 1}));
  EXPECT_NE(t.key().find(",nrhs=4,"), std::string::npos) << t.key();
  EXPECT_NE(t.key().find(",fmt=1"), std::string::npos) << t.key();
}

TEST(DslashTunable, OutputMatchIsBitwiseOnFull18) {
  // A full18 candidate must give the reference's bits; a recon12 one may
  // differ by the codec's rounding; a NaN never matches.
  auto g = std::make_shared<Geometry>(4, 4, 4, 4);
  std::vector<SpinorField<float>> ref, got;
  ref.emplace_back(g, 2, Subset::Even);
  ref.back().gaussian(221);
  got = ref;
  using Span = std::span<const SpinorField<float>>;
  EXPECT_TRUE(output_matches<float>(GaugeFormat::kFull18, Span(got),
                                    Span(ref)));
  float& x = got[0].data()[17];
  x = std::nextafter(x, std::numeric_limits<float>::infinity());
  EXPECT_FALSE(output_matches<float>(GaugeFormat::kFull18, Span(got),
                                     Span(ref)));
  EXPECT_TRUE(output_matches<float>(GaugeFormat::kRecon12, Span(got),
                                    Span(ref)));
  // -0 against +0: equal values, different bits.
  got = ref;
  ref[0].data()[5] = 0.0f;
  got[0].data()[5] = -0.0f;
  EXPECT_FALSE(output_matches<float>(GaugeFormat::kFull18, Span(got),
                                     Span(ref)));
  got[0].data()[5] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(output_matches<float>(GaugeFormat::kFull18, Span(got),
                                     Span(ref)));
  EXPECT_FALSE(output_matches<float>(GaugeFormat::kRecon12, Span(got),
                                     Span(ref)));
  // A NaN in both is still no match.
  ref[0].data()[5] = got[0].data()[5];
  EXPECT_FALSE(output_matches<float>(GaugeFormat::kFull18, Span(got),
                                     Span(ref)));
}

}  // namespace
}  // namespace femto::tune
