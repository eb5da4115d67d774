#pragma once
// A scratch path of the running test's own: ::testing::TempDir() followed
// by "<stem>_<Suite>_<Test>_<pid>".  Every test is its own ctest entry,
// and the thread sweeps register one test once per pool size, so under
// `ctest -j` a fixed name would let one entry delete or truncate a file
// that another is loading.

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace femto {

inline std::string test_temp_path(const std::string& stem) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + stem + "_" + info->test_suite_name() + "_" +
         info->name() + "_" + std::to_string(::getpid());
}

}  // namespace femto
