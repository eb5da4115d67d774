#pragma once
// Femtoscope crash flight recorder (DESIGN.md §15).
//
// blackbox_install(path) arms a FEMTO_CHECK fail hook plus fatal-signal
// handlers (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT).  When the process is
// about to die, the recorder dumps one `femtoscope-blackbox-v1` JSON
// document to the configured path: the failing check, the failing
// thread's live TraceScope stack, the last-N recorded spans across all
// threads, a metrics snapshot, and every registered subsystem provider's
// state (SolveService registers its in-flight queue) -- then lets the
// abort proceed.  Installing also arms the tracer's per-thread span stack
// (kStackBit), which exists for the recorder alone, so the failing
// thread's stack is known.
//
// The dump path is best-effort by design: a fatal-signal context is not
// async-signal-safe and a check can fire with arbitrary locks held, so
// providers must be written crash-tolerant (try_lock, degrade to a
// "locked" marker) and the recorder itself touches no femtoscope lock it
// cannot skip.  A lost dump loses telemetry; the abort and the stderr
// diagnostic always survive.

#include <functional>
#include <string>

namespace femto::obs {

// Bumped whenever a field is renamed/removed; additions are compatible.
inline constexpr const char* kBlackboxSchema = "femtoscope-blackbox-v1";

// Arm the recorder, writing dumps to @p path.  Idempotent; re-installing
// with a new path just redirects the dump.
void blackbox_install(const std::string& path);

// Disarm: restores the default fail behaviour and signal handlers.
void blackbox_uninstall();

bool blackbox_installed();
std::string blackbox_path();

// Subsystem state providers: fn() must return one JSON VALUE (object,
// array, or scalar) describing the subsystem's in-flight state, and must
// be crash-tolerant (no unconditional lock acquisition).  Returns a
// handle for blackbox_unregister_provider.
int blackbox_register_provider(const std::string& key,
                               std::function<std::string()> fn);
void blackbox_unregister_provider(int handle);

// The dump body (exposed so tests can check the schema without dying).
std::string blackbox_json(const char* reason, const char* file, int line,
                          const char* expr, const char* msg);

// Write blackbox_json(reason, ...) to the installed path now; false when
// not installed or on I/O failure.  Used by the hook/handlers and by
// operators wanting a mid-run state dump.
bool blackbox_write_now(const char* reason);

}  // namespace femto::obs
