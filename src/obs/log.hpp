#pragma once
// Leveled structured logger for the femtoscope observability layer.
//
// Replaces the ad-hoc ostream prints that used to live in the solvers and
// job managers: every line carries [elapsed][LEVEL][rank][category] and is
// filtered by a global level, so quiet runs are actually quiet and MPI-style
// multi-rank output stays attributable.  The FEMTO_LOG macros build their
// message only when the level is enabled -- a disabled log line costs one
// relaxed atomic load and a branch.
//
// Level resolution order: set_log_level() > FEMTO_LOG env var
// (trace|debug|info|warn|error|off) > default Warn.

#include <cstdint>
#include <sstream>
#include <string>

namespace femto::obs {

enum class LogLevel : int {
  Trace = 0,
  Debug = 1,
  Info = 2,
  Warn = 3,
  Error = 4,
  Off = 5,
};

// Monotonic nanoseconds since the first femtoscope use in this process.
// Shared timebase for log timestamps and trace spans.
std::int64_t uptime_ns();

void set_log_level(LogLevel level);
LogLevel log_level();
bool log_enabled(LogLevel level);
const char* log_level_name(LogLevel level);

// Redirect formatted lines (tests capture output this way); nullptr
// restores the default stderr sink.  The sink receives the fully
// formatted line without a trailing newline.
using LogSink = void (*)(LogLevel level, const char* category,
                         const std::string& line);
void set_log_sink(LogSink sink);

// Format and emit one line (already level-checked by the macros; calling
// directly also re-checks, so it is safe on its own).  A thread running
// under a rank (set_trace_rank, which comm::World::run sets for each rank
// thread) gets a `[rank N]` field; rank -1 omits it.
void log_line(LogLevel level, const char* category,
              const std::string& message);

}  // namespace femto::obs

// Streaming log macros: FEMTO_LOG(level, "category", "x = " << x).
// The ostringstream is only constructed when the level is enabled.
#define FEMTO_LOG(lvl, category, expr)                       \
  do {                                                       \
    if (::femto::obs::log_enabled(lvl)) {                    \
      std::ostringstream femto_log_os_;                      \
      femto_log_os_ << expr;                                 \
      ::femto::obs::log_line(lvl, category,                  \
                             femto_log_os_.str());           \
    }                                                        \
  } while (0)

#define FEMTO_LOG_TRACE(category, expr) \
  FEMTO_LOG(::femto::obs::LogLevel::Trace, category, expr)
#define FEMTO_LOG_DEBUG(category, expr) \
  FEMTO_LOG(::femto::obs::LogLevel::Debug, category, expr)
#define FEMTO_LOG_INFO(category, expr) \
  FEMTO_LOG(::femto::obs::LogLevel::Info, category, expr)
#define FEMTO_LOG_WARN(category, expr) \
  FEMTO_LOG(::femto::obs::LogLevel::Warn, category, expr)
#define FEMTO_LOG_ERROR(category, expr) \
  FEMTO_LOG(::femto::obs::LogLevel::Error, category, expr)
