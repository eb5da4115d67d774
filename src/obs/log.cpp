#include "obs/log.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "core/check.hpp"
#include "obs/trace.hpp"

namespace femto::obs {

namespace {

std::int64_t clock_base_ns() {
  FEMTO_NONDET_OK(
      "process timebase for log/trace timestamps: the value only offsets "
      "telemetry output and never reaches numerics or control flow");
  // First call pins the process timebase; steady_clock so spans and log
  // timestamps never go backwards.
  static const std::int64_t base =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return base;
}

LogLevel level_from_env() {
  const char* e = std::getenv("FEMTO_LOG");
  if (e == nullptr) return LogLevel::Warn;
  if (std::strcmp(e, "trace") == 0) return LogLevel::Trace;
  if (std::strcmp(e, "debug") == 0) return LogLevel::Debug;
  if (std::strcmp(e, "info") == 0) return LogLevel::Info;
  if (std::strcmp(e, "warn") == 0) return LogLevel::Warn;
  if (std::strcmp(e, "error") == 0) return LogLevel::Error;
  if (std::strcmp(e, "off") == 0) return LogLevel::Off;
  return LogLevel::Warn;
}

std::atomic<int>& level_state() {
  static std::atomic<int> level{static_cast<int>(level_from_env())};
  return level;
}

std::atomic<LogSink>& sink_state() {
  static std::atomic<LogSink> sink{nullptr};
  return sink;
}

std::mutex& stderr_mutex() {
  static std::mutex mu;
  return mu;
}

void stderr_sink(LogLevel /*level*/, const char* /*category*/,
                 const std::string& line) {
  // One lock per line keeps concurrent ranks/threads from interleaving
  // mid-line; stderr itself is unbuffered enough for crash visibility.
  std::lock_guard<std::mutex> lk(stderr_mutex());
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fputc('\n', stderr);
}

}  // namespace

std::int64_t uptime_ns() {
  FEMTO_NONDET_OK(
      "monotone span clock for FEMTO_LOG_* timestamps and trace spans: "
      "consumed only by femtoscope output, never by numerics");
  // Pin the base BEFORE reading the clock: on the very first call the
  // other order would produce a (slightly) negative uptime, which
  // TraceScope interprets as "tracing was disabled at construction".
  const std::int64_t base = clock_base_ns();
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return now - base;
}

void set_log_level(LogLevel level) {
  level_state().store(static_cast<int>(level), std::memory_order_relaxed);
}

LogLevel log_level() {
  return static_cast<LogLevel>(
      level_state().load(std::memory_order_relaxed));
}

bool log_enabled(LogLevel level) {
  return static_cast<int>(level) >=
         level_state().load(std::memory_order_relaxed);
}

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Trace: return "TRACE";
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO";
    case LogLevel::Warn: return "WARN";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF";
  }
  return "?";
}

void set_log_sink(LogSink sink) {
  sink_state().store(sink, std::memory_order_relaxed);
}

void log_line(LogLevel level, const char* category,
              const std::string& message) {
  if (!log_enabled(level)) return;
  const double elapsed_s = static_cast<double>(uptime_ns()) * 1e-9;
  char prefix[96];
  const int rank = trace_rank();
  if (rank >= 0) {
    std::snprintf(prefix, sizeof(prefix), "[%10.6f][%-5s][rank %d][%s] ",
                  elapsed_s, log_level_name(level), rank, category);
  } else {
    std::snprintf(prefix, sizeof(prefix), "[%10.6f][%-5s][%s] ", elapsed_s,
                  log_level_name(level), category);
  }
  std::string line = prefix;
  line += message;
  LogSink sink = sink_state().load(std::memory_order_relaxed);
  if (sink == nullptr) sink = &stderr_sink;
  sink(level, category, line);
}

}  // namespace femto::obs
