// Crash flight recorder: dump schema/content, provider quarantine, and a
// death test proving a failed check in a checked build leaves a valid
// femtoscope-blackbox-v1 file behind before the abort.

#include "obs/blackbox.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/check.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace femto::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

TEST(BlackboxJson, ValidatesAndCarriesTheFailingCheck) {
  counter("blackbox_test.touched").add(3);
  const std::string body =
      blackbox_json("check_failure", "foo.cpp", 42, "x > 0", "boom");
  std::string err;
  ASSERT_TRUE(json_validate(body, &err)) << err;
  EXPECT_NE(body.find(kBlackboxSchema), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"check_failure\""), std::string::npos);
  EXPECT_NE(body.find("foo.cpp"), std::string::npos);
  EXPECT_NE(body.find("\"line\":42"), std::string::npos);
  EXPECT_NE(body.find("x > 0"), std::string::npos);
  EXPECT_NE(body.find("\"message\":\"boom\""), std::string::npos);
  EXPECT_NE(body.find("\"span_stack\""), std::string::npos);
  EXPECT_NE(body.find("\"recent_spans\""), std::string::npos);
  EXPECT_NE(body.find("blackbox_test.touched"), std::string::npos);
}

TEST(BlackboxJson, CapturesTheFailingThreadsSpanStack) {
  // Installing the recorder is what arms the span stack.
  blackbox_install(::testing::TempDir() + "femto_blackbox_stack.json");
  {
    FEMTO_TRACE_SCOPE("test", "doomed_phase");
    FEMTO_TRACE_SCOPE("test", "doomed_step");
    const std::string body = blackbox_json("test", "", 0, "", "");
    EXPECT_NE(body.find("doomed_phase"), std::string::npos);
    EXPECT_NE(body.find("doomed_step"), std::string::npos);
    // Outermost first.
    EXPECT_LT(body.find("doomed_phase"), body.find("doomed_step"));
  }
  blackbox_uninstall();
}

TEST(BlackboxProviders, GoodBadAndThrowingAreQuarantined) {
  const int good = blackbox_register_provider(
      "good", [] { return std::string("{\"depth\":7}"); });
  const int bad = blackbox_register_provider(
      "bad", [] { return std::string("not json {"); });
  const int thrower = blackbox_register_provider(
      "thrower", []() -> std::string { throw std::runtime_error("no"); });

  const std::string body = blackbox_json("test", "", 0, "", "");
  std::string err;
  ASSERT_TRUE(json_validate(body, &err)) << err;
  EXPECT_NE(body.find("\"good\":{\"depth\":7}"), std::string::npos);
  EXPECT_NE(body.find("\"bad\":{\"_invalid\":true}"), std::string::npos);
  EXPECT_NE(body.find("\"thrower\":{\"_invalid\":true}"),
            std::string::npos);

  blackbox_unregister_provider(good);
  blackbox_unregister_provider(bad);
  blackbox_unregister_provider(thrower);
  const std::string after = blackbox_json("test", "", 0, "", "");
  EXPECT_EQ(after.find("\"good\""), std::string::npos);
}

TEST(BlackboxInstall, WriteNowProducesAValidDumpFile) {
  const std::string path = ::testing::TempDir() + "femto_blackbox_now.json";
  std::remove(path.c_str());
  EXPECT_FALSE(blackbox_installed());
  blackbox_install(path);
  EXPECT_TRUE(blackbox_installed());
  EXPECT_EQ(blackbox_path(), path);

  ASSERT_TRUE(blackbox_write_now("manual"));
  const std::string body = slurp(path);
  std::string err;
  EXPECT_TRUE(json_validate(body, &err)) << err;
  EXPECT_NE(body.find(kBlackboxSchema), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"manual\""), std::string::npos);

  blackbox_uninstall();
  EXPECT_FALSE(blackbox_installed());
  // With no recorder armed there is nowhere to write.
  EXPECT_FALSE(blackbox_write_now("after_uninstall"));
  std::remove(path.c_str());
}

using BlackboxDeathTest = ::testing::Test;

TEST(BlackboxDeathTest, FailedCheckWritesTheDumpBeforeAborting) {
  const std::string path =
      ::testing::TempDir() + "femto_blackbox_death.json";
  std::remove(path.c_str());
  // The death test forks: the child installs, arms a span, and dies on a
  // failed check; the parent then reads the dump the child left behind.
  EXPECT_DEATH(
      {
        blackbox_install(path);
        FEMTO_TRACE_SCOPE("test", "fatal_section");
        femto::check::fail(__FILE__, __LINE__, "invariant_holds",
                           " blackbox death test");
      },
      "invariant_holds");
  const std::string body = slurp(path);
  ASSERT_FALSE(body.empty()) << "child wrote no dump at " << path;
  std::string err;
  EXPECT_TRUE(json_validate(body, &err)) << err;
  EXPECT_NE(body.find(kBlackboxSchema), std::string::npos);
  EXPECT_NE(body.find("\"reason\":\"check_failure\""), std::string::npos);
  EXPECT_NE(body.find("invariant_holds"), std::string::npos);
  EXPECT_NE(body.find("fatal_section"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace femto::obs
