#include "autotune/autotune.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/log.hpp"
#include "obs/metrics.hpp"

namespace femto::tune {
namespace {

/// A tunable whose "kernel" sleeps longer for worse knob values, so the
/// brute-force search has a known optimum.
class FakeKernel : public Tunable {
 public:
  explicit FakeKernel(std::string key) : key_(std::move(key)) {}

  std::string key() const override { return key_; }

  std::vector<TuneParam> candidates() const override {
    std::vector<TuneParam> c;
    for (std::int64_t block : {1, 2, 4, 8}) {
      TuneParam p;
      p.knobs["block"] = block;
      c.push_back(p);
    }
    return c;
  }

  void apply(const TuneParam& p) override {
    ++applies;
    last_block = p.get("block");
    // block == 4 is fastest.  Busy-wait (sleep granularity on loaded
    // machines can invert sub-millisecond orderings).
    const auto us = last_block == 4 ? 100 : 1500;
    const auto t0 = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - t0 <
           std::chrono::microseconds(us)) {
    }
  }

  void backup() override { ++backups; }
  void restore() override { ++restores; }
  std::int64_t flops_per_call() const override { return 1000000; }
  std::int64_t bytes_per_call() const override { return 500000; }

  int applies = 0;
  int backups = 0;
  int restores = 0;
  std::int64_t last_block = 0;

 private:
  std::string key_;
};

TEST(Autotuner, FindsFastestCandidate) {
  Autotuner tuner;
  FakeKernel k("kern-a");
  const auto& e = tuner.tune(k);
  EXPECT_EQ(e.param.get("block"), 4);
  EXPECT_EQ(e.candidates_tried, 4);
  EXPECT_GT(e.gflops, 0.0);
  EXPECT_GT(e.gbytes, 0.0);
}

TEST(Autotuner, SecondCallIsCacheHit) {
  Autotuner tuner;
  FakeKernel k("kern-b");
  tuner.tune(k);
  const int applies_after_search = k.applies;
  tuner.tune(k);
  EXPECT_EQ(k.applies, applies_after_search);  // no re-search
  EXPECT_EQ(tuner.cache_hits(), 1);
  EXPECT_EQ(tuner.cache_misses(), 1);
}

TEST(Autotuner, DistinctKeysTunedSeparately) {
  Autotuner tuner;
  FakeKernel a("kern-c1"), b("kern-c2");
  tuner.tune(a);
  tuner.tune(b);
  EXPECT_EQ(tuner.size(), 2u);
  EXPECT_TRUE(tuner.contains("kern-c1"));
  EXPECT_TRUE(tuner.contains("kern-c2"));
  EXPECT_FALSE(tuner.contains("kern-c3"));
}

std::vector<std::string>& warnings() {
  static std::vector<std::string> lines;
  return lines;
}

void capture_warning(obs::LogLevel level, const char*,
                     const std::string& line) {
  if (level >= obs::LogLevel::Warn) warnings().push_back(line);
}

TEST(Autotuner, SecondKeyOfOneKernelLogsNoWarning) {
  // Two keys of one kernel name (the double and float entries of one
  // dslash geometry, say) are two live entries: tuning the second
  // invalidates nothing, so it warns of nothing.
  Autotuner tuner;
  FakeKernel d("kern-w,prec=8"), f("kern-w,prec=4");
  const obs::LogLevel saved = obs::log_level();
  obs::set_log_level(obs::LogLevel::Warn);
  obs::set_log_sink(&capture_warning);
  warnings().clear();
  tuner.tune(d);
  tuner.tune(f);
  obs::set_log_sink(nullptr);
  obs::set_log_level(saved);
  EXPECT_TRUE(warnings().empty()) << warnings().front();
  EXPECT_TRUE(tuner.contains("kern-w,prec=8"));
  EXPECT_TRUE(tuner.contains("kern-w,prec=4"));
}

TEST(Autotuner, BackupRestoreBracketTheSearch) {
  // Data-destructive kernels rely on backup() before and restore() after.
  Autotuner tuner;
  FakeKernel k("kern-d");
  tuner.tune(k);
  EXPECT_EQ(k.backups, 1);
  EXPECT_EQ(k.restores, 1);
}

TEST(Autotuner, SaveLoadRoundTrip) {
  Autotuner tuner;
  FakeKernel k("kern-e");
  const auto& e = tuner.tune(k);
  const std::string path = "/tmp/femtotune_test.cache";
  tuner.save(path);

  Autotuner fresh;
  EXPECT_EQ(fresh.load(path), 1);
  EXPECT_TRUE(fresh.contains("kern-e"));
  // Tuning the same key in the fresh tuner is now a pure lookup.
  FakeKernel k2("kern-e");
  const auto& e2 = fresh.tune(k2);
  EXPECT_EQ(k2.applies, 0);
  EXPECT_EQ(e2.param.get("block"), e.param.get("block"));
  std::remove(path.c_str());
}

TEST(Autotuner, LoadRejectsUnknownFile) {
  const std::string path = "/tmp/femtotune_bad.cache";
  {
    FILE* f = fopen(path.c_str(), "w");
    fputs("not a tune cache\n", f);
    fclose(f);
  }
  Autotuner tuner;
  EXPECT_EQ(tuner.load(path), 0);
  EXPECT_EQ(tuner.load("/tmp/definitely_missing_file.cache"), 0);
  std::remove(path.c_str());
}

/// A FakeKernel whose fastest candidate (block == 4) writes the wrong
/// answer: a timing-only tuner would cache it.
class WrongFastKernel : public FakeKernel {
 public:
  using FakeKernel::FakeKernel;

  void apply(const TuneParam& p) override {
    FakeKernel::apply(p);
    out = p.get("block") == 4 ? -1.0 : 42.0;
  }
  void save_reference() override { ref = out; }
  bool matches_reference() const override { return out == ref; }

  double out = 0.0;
  double ref = 0.0;
};

TEST(Autotuner, RejectsCandidateWhoseOutputDisagrees) {
  Autotuner tuner;
  WrongFastKernel k("kern-wrong");
  const std::int64_t before = obs::counter("autotune.rejected").get();
  const auto& e = tuner.tune(k);
  EXPECT_NE(e.param.get("block"), 4);
  EXPECT_EQ(e.rejected, 1);
  EXPECT_EQ(e.candidates_tried, 4);
  EXPECT_EQ(obs::counter("autotune.rejected").get() - before, 1);
}

TEST(Autotuner, InsertAndClear) {
  Autotuner tuner;
  TuneEntry e;
  e.param.knobs["grain"] = 128;
  tuner.insert("manual", e);
  EXPECT_TRUE(tuner.contains("manual"));
  tuner.clear();
  EXPECT_EQ(tuner.size(), 0u);
}

TEST(TuneParamTest, ToStringStable) {
  TuneParam p;
  p.knobs["b"] = 2;
  p.knobs["a"] = 1;
  EXPECT_EQ(p.to_string(), "a=1,b=2");  // map order: deterministic
}

}  // namespace
}  // namespace femto::tune
