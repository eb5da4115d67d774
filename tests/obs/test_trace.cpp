// Femtoscope tracer: ring wrap-around semantics, thread-interleave
// determinism of the merged export (same sweep discipline as
// tests/parallel/test_reduce_sweep.cpp), the Chrome JSON emitter, the
// collapsed-stack flamegraph export, the flight recorder's span stack,
// and the per-thread rank tag that log lines carry.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/log.hpp"

namespace femto::obs {
namespace {

TEST(TraceRing, WrapAroundKeepsNewestAndCountsDrops) {
  TraceRing ring(4, /*tid=*/7);
  for (std::int64_t i = 0; i < 6; ++i)
    ring.push("cat", "name", /*t0_ns=*/i * 100, /*dur_ns=*/i, /*rank=*/-1);

  EXPECT_EQ(ring.pushed(), 6u);
  EXPECT_EQ(ring.dropped(), 2u);  // spans 0 and 1 overwritten

  const auto evs = ring.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest surviving span first: 2, 3, 4, 5.
  for (std::size_t k = 0; k < evs.size(); ++k) {
    EXPECT_EQ(evs[k].t0_ns, static_cast<std::int64_t>((k + 2) * 100));
    EXPECT_EQ(evs[k].tid, 7u);
  }

  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_TRUE(ring.events().empty());
}

TEST(TraceRing, NoDropsBeforeCapacity) {
  TraceRing ring(8, 0);
  for (std::int64_t i = 0; i < 8; ++i) ring.push("c", "n", i, 1, -1);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.events().size(), 8u);
}

TEST(TraceScope, DisabledRecordsNothing) {
  set_trace_enabled(false);
  trace_clear();
  const auto before = trace_snapshot().events.size();
  {
    FEMTO_TRACE_SCOPE("test", "disabled_scope");
  }
  EXPECT_EQ(trace_snapshot().events.size(), before);
  set_trace_enabled(true);
}

TEST(TraceScope, EnabledRecordsCategoryNameAndDuration) {
  set_trace_enabled(true);
  trace_clear();
  {
    FEMTO_TRACE_SCOPE("test", "enabled_scope");
  }
  const auto snap = trace_snapshot();
  const auto it = std::find_if(
      snap.events.begin(), snap.events.end(), [](const TraceEvent& e) {
        return std::string(e.name) == "enabled_scope";
      });
  ASSERT_NE(it, snap.events.end());
  EXPECT_EQ(std::string(it->category), "test");
  EXPECT_GE(it->dur_ns, 0);
}

// Interleave determinism: N threads push spans with SYNTHETIC timestamps
// concurrently; the merged snapshot must come back in the same (t0, tid)
// order every repetition regardless of how the threads interleaved.  Same
// sweep-and-repeat harness as the parallel reduction tests.
TEST(TraceSweep, SnapshotOrderStableUnderThreadInterleave) {
  set_trace_enabled(true);
  const std::size_t kSweep[] = {1, 2, 7};
  constexpr int kRepeats = 5;
  constexpr std::int64_t kSpansPerThread = 50;

  for (std::size_t nt : kSweep) {
    std::vector<std::int64_t> first;
    for (int rep = 0; rep < kRepeats; ++rep) {
      trace_clear();
      std::vector<std::thread> threads;
      for (std::size_t j = 0; j < nt; ++j) {
        threads.emplace_back([j] {
          for (std::int64_t i = 0; i < kSpansPerThread; ++i)
            trace_push("sweep", "span",
                       static_cast<std::int64_t>(j) * 1'000'000 + i * 10,
                       i + 1);
        });
      }
      for (auto& t : threads) t.join();

      const auto snap = trace_snapshot();
      // trace_clear() emptied every ring and the main thread pushed no
      // spans of its own, so the count is exact.
      ASSERT_EQ(snap.events.size(),
                static_cast<std::size_t>(nt) * kSpansPerThread)
          << "threads=" << nt << " rep=" << rep;
      std::vector<std::int64_t> order;
      order.reserve(snap.events.size());
      for (const auto& e : snap.events) order.push_back(e.t0_ns);
      EXPECT_TRUE(std::is_sorted(order.begin(), order.end()))
          << "threads=" << nt << " rep=" << rep;
      if (rep == 0)
        first = order;
      else
        EXPECT_EQ(order, first) << "threads=" << nt << " rep=" << rep;
    }
  }
}

TEST(TraceExport, ChromeJsonParses) {
  set_trace_enabled(true);
  trace_clear();
  {
    FEMTO_TRACE_SCOPE("test", "json_span");
  }
  const std::string json = chrome_trace_json();
  std::string err;
  EXPECT_TRUE(json_validate(json, &err)) << err;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("json_span"), std::string::npos);
}

TEST(SpanStack, TracksNestedScopesWhenArmed) {
  detail::set_span_stack_enabled(true);
  {
    FEMTO_TRACE_SCOPE("test", "outer");
    {
      FEMTO_TRACE_SCOPE("test", "inner");
      detail::SpanFrame frames[8];
      const int depth = detail::current_span_stack(frames, 8);
      ASSERT_GE(depth, 2);
      EXPECT_STREQ(frames[depth - 2].name, "outer");
      EXPECT_STREQ(frames[depth - 1].name, "inner");
    }
    detail::SpanFrame frames[8];
    const int depth = detail::current_span_stack(frames, 8);
    ASSERT_GE(depth, 1);
    EXPECT_STREQ(frames[depth - 1].name, "outer");
  }
  detail::SpanFrame frames[8];
  EXPECT_EQ(detail::current_span_stack(frames, 8), 0);
  detail::set_span_stack_enabled(false);
}

TEST(SpanStack, DisarmedScopesCostNoStack) {
  // Stack upkeep not armed: scopes must leave the stack untouched.
  FEMTO_TRACE_SCOPE("test", "unarmed");
  detail::SpanFrame frames[8];
  EXPECT_EQ(detail::current_span_stack(frames, 8), 0);
}

// Sum of the weights of a collapsed-stack body.
std::int64_t collapsed_weight(const std::string& body) {
  std::int64_t sum = 0;
  std::istringstream in(body);
  std::string line;
  while (std::getline(in, line))
    sum += std::stoll(line.substr(line.rfind(' ') + 1));
  return sum;
}

// Exact timestamps, so the expected text is fixed: nesting, siblings that
// share a key, self time, rank roots, flow spans left out, the longer
// span first on a start-time tie, the later record first on a full tie,
// a zero weight dropped, and a child that outlives its parent clipped.
TEST(CollapsedStacks, HandBuiltSnapshotGivesExactText) {
  TraceSnapshot snap;
  snap.events = {
      // thread 0, unranked.
      {"wf", "outer", 0, 100, 0, -1},
      {"solver", "cg", 10, 30, 0, -1},
      {"blas", "axpy", 15, 5, 0, -1},
      {"solver", "cg", 40, 20, 0, -1},  // starts at the first cg's end
      {"service", "queue_wait", 50, 80, 0, -1, 9, FlowDir::In},
      {"wf", "tail", 100, 10, 0, -1},   // starts at outer's end
      {"x", "short", 200, 20, 0, -1},   // recorded first, nests second
      {"x", "long", 200, 50, 0, -1},
      {"x", "inner", 300, 10, 0, -1},   // full tie: recorded first
      {"x", "wrap", 300, 10, 0, -1},
      {"x", "parent", 400, 10, 0, -1},
      {"x", "overhang", 405, 20, 0, -1},
      // thread 1, rank 2.
      {"comm", "halo", 5, 40, 1, 2},
      {"comm", "send", 10, 10, 1, 2, 9, FlowDir::Out},
      {"comm", "send", 10, 10, 1, 2},
      {"comm", "send", 25, 10, 1, 2},
  };
  EXPECT_EQ(collapsed_stacks(snap),
            "rank2;comm:halo 20\n"
            "rank2;comm:halo;comm:send 20\n"
            "thread0;wf:outer 50\n"
            "thread0;wf:outer;solver:cg 45\n"
            "thread0;wf:outer;solver:cg;blas:axpy 5\n"
            "thread0;wf:tail 10\n"
            "thread0;x:long 30\n"
            "thread0;x:long;x:short 20\n"
            "thread0;x:parent 5\n"
            "thread0;x:parent;x:overhang 5\n"
            "thread0;x:wrap;x:inner 10\n");
  EXPECT_EQ(top_level_span_ns(snap), 220);
}

void busy_for(std::chrono::microseconds d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(CollapsedStacks, WeightsSumToTopLevelSpanTimeOnALiveRun) {
  set_trace_enabled(true);
  trace_clear();
  const auto work = [] {
    FEMTO_TRACE_SCOPE("test", "live_outer");
    busy_for(std::chrono::microseconds(200));
    for (int i = 0; i < 3; ++i) {
      FEMTO_TRACE_SCOPE("test", "live_inner");
      busy_for(std::chrono::microseconds(100));
    }
    trace_flow_in("test", "live_wait", uptime_ns() - 1000, 42);
  };
  work();
  std::thread ranked([&] {
    set_trace_rank(1);
    work();
    set_trace_rank(-1);
  });
  ranked.join();

  const TraceSnapshot snap = trace_snapshot();
  const std::string body = collapsed_stacks(snap);
  std::int64_t outer_ns = 0;
  for (const TraceEvent& e : snap.events)
    if (std::string(e.name) == "live_outer") outer_ns += e.dur_ns;
  EXPECT_GT(outer_ns, 0);
  EXPECT_EQ(top_level_span_ns(snap), outer_ns);
  EXPECT_EQ(collapsed_weight(body), outer_ns) << body;
  EXPECT_NE(body.find(";test:live_outer;test:live_inner "),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("rank1;test:live_outer "), std::string::npos) << body;
  EXPECT_EQ(body.find("live_wait"), std::string::npos) << body;
}

TEST(CollapsedStacks, WriteReadsBackVerbatim) {
  set_trace_enabled(true);
  trace_clear();
  {
    FEMTO_TRACE_SCOPE("test", "written");
    busy_for(std::chrono::microseconds(50));
  }
  const std::string body = collapsed_stacks();
  ASSERT_NE(body.find(";test:written "), std::string::npos) << body;

  const std::string path = ::testing::TempDir() + "femto_test_collapsed.txt";
  ASSERT_TRUE(write_collapsed_stacks(path));
  std::ifstream f(path);
  std::stringstream read_back;
  read_back << f.rdbuf();
  EXPECT_EQ(read_back.str(), body);
  std::remove(path.c_str());
}

std::vector<std::string>& captured_lines() {
  static std::vector<std::string> lines;
  return lines;
}

void capture_line(LogLevel, const char*, const std::string& line) {
  captured_lines().push_back(line);
}

TEST(LogLine, RankFieldFollowsTheThreadsTraceRank) {
  const LogLevel saved = log_level();
  set_log_level(LogLevel::Info);
  set_log_sink(&capture_line);
  captured_lines().clear();
  set_trace_rank(3);
  FEMTO_LOG_INFO("test", "ranked");
  set_trace_rank(-1);
  FEMTO_LOG_INFO("test", "unranked");
  set_log_sink(nullptr);
  set_log_level(saved);

  ASSERT_EQ(captured_lines().size(), 2u);
  EXPECT_NE(captured_lines()[0].find("[rank 3][test] ranked"),
            std::string::npos)
      << captured_lines()[0];
  EXPECT_EQ(captured_lines()[1].find("[rank"), std::string::npos)
      << captured_lines()[1];
  EXPECT_NE(captured_lines()[1].find("[test] unranked"), std::string::npos)
      << captured_lines()[1];
}

}  // namespace
}  // namespace femto::obs
