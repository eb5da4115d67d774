#pragma once
// Femtoscope span tracer: FEMTO_TRACE_SCOPE("category", "name") records a
// complete span into a per-thread lock-free ring buffer; a quiescent-point
// export emits Chrome trace_event JSON loadable in Perfetto or
// chrome://tracing, or collapsed span stacks for flamegraph tools.
//
// v2 adds the cross-rank causal layer (DESIGN.md §15): every span carries
// the recording thread's RANK (set_trace_rank, stamped by femtocomm's
// World::run) and an optional FLOW ID linking a producer span (send,
// submit, METAQ drop-off) to the consumer span that waited on it (recv,
// batch claim).  The Chrome export's merge mode lays every rank out as its
// own process row and draws the links as `s`/`f` flow arrows, so a halo
// exchange or a batched solve renders as one causal arc across rank
// timelines.  src/obs/flow.hpp reduces the same pairs to a critical path.
//
// Cost model (the reason hot kernels can afford a scope):
//   disabled  -- one relaxed atomic load + branch in the constructor; the
//                destructor sees t0 < 0 and does nothing.  No clock reads.
//                The load covers tracing AND the flight recorder's span
//                stack: both enable bits live in one fused state word.
//   enabled   -- two steady_clock reads plus one single-writer ring store;
//                no locks, no allocation after a thread's first span.  With
//                the crash flight recorder armed, also two plain stores
//                maintaining the per-thread span stack.
//
// Buffers are bounded: when a thread outruns its ring the OLDEST spans are
// overwritten and the export reports the drop count -- tracing never
// stalls the traced code.  Export (trace_snapshot / chrome_trace_json /
// collapsed_stacks) is meant for quiescent points (end of run, between
// phases); it reads rings that other threads may still append to, and
// concurrently appended spans may or may not be included.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/log.hpp"

namespace femto::obs {

// Which side of a causal link a span is, if any.
enum class FlowDir : std::uint8_t {
  None = 0,
  Out = 1,  ///< producer: send / submit / drop-off
  In = 2,   ///< consumer: recv / claim; dur_ns is the time spent waiting
};

// One completed span.  Category/name must be string literals (or otherwise
// outlive the export) -- the ring stores pointers, not copies, which is
// what keeps the record path allocation-free.
struct TraceEvent {
  const char* category = nullptr;
  const char* name = nullptr;
  std::int64_t t0_ns = 0;
  std::int64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::int32_t rank = -1;      ///< -1 = thread never ran under a rank
  std::uint64_t flow_id = 0;   ///< 0 = not part of a flow
  FlowDir flow = FlowDir::None;
};

// Fixed-capacity single-writer ring.  The owning thread pushes; any thread
// may snapshot.  head_ is the count of spans EVER pushed (monotonic), so
// readers derive both the live window and the overwrite count from it.
class TraceRing {
 public:
  TraceRing(std::size_t capacity, std::uint32_t tid);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  // Owner thread only.
  void push(const char* category, const char* name, std::int64_t t0_ns,
            std::int64_t dur_ns, std::int32_t rank,
            std::uint64_t flow_id = 0, FlowDir flow = FlowDir::None);

  std::size_t capacity() const { return slots_.size(); }
  std::uint32_t tid() const { return tid_; }

  // Total spans ever pushed (>= capacity means the ring has wrapped).
  std::uint64_t pushed() const {
    return head_.load(std::memory_order_acquire);
  }

  // Spans overwritten so far.
  std::uint64_t dropped() const {
    const std::uint64_t h = pushed();
    return h > slots_.size() ? h - slots_.size() : 0;
  }

  // Copy out the surviving window, oldest first.  Exact at quiescent
  // points; best-effort if the owner is still pushing.
  std::vector<TraceEvent> events() const;

  // Forget all recorded spans (owner quiescent only).
  void clear() { head_.store(0, std::memory_order_release); }

 private:
  std::vector<TraceEvent> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::uint32_t tid_;
};

namespace detail {
// Fused enable word: -1 = not yet initialised (consult FEMTO_TRACE env);
// otherwise a bitmask.  One relaxed load of this word is the whole cost of
// a disabled TraceScope, whatever combination of subsystems is off.
inline constexpr int kTraceBit = 1;  ///< span recording into the rings
inline constexpr int kStackBit = 2;  ///< span-stack upkeep (flight recorder)
extern std::atomic<int> g_span_mode;
// Slow path: resolves the FEMTO_TRACE env var once, then returns the
// settled mode word.
int span_mode_slow();

// Set or clear kStackBit; blackbox_install / blackbox_uninstall own it.
void set_span_stack_enabled(bool on);

// The calling thread's live TraceScope stack.  push returns the prior
// depth, which pop restores (overflow-tolerant).
int span_stack_push(const char* category, const char* name);
void span_stack_pop(int prev_depth);

struct SpanFrame {
  const char* category = nullptr;
  const char* name = nullptr;
};
// Copy of the CALLING thread's live span stack (outermost first); the
// crash flight recorder dumps it from the failing thread.  Returns the
// number of frames written (<= max_frames).
int current_span_stack(SpanFrame* out, int max_frames);
}  // namespace detail

// Settled enable mask (kTraceBit | kStackBit).
inline int span_mode() {
  const int m = detail::g_span_mode.load(std::memory_order_relaxed);
  if (m >= 0) return m;
  return detail::span_mode_slow();
}

// Fast global switch read by every scope constructor.
inline bool trace_enabled() {
  return (span_mode() & detail::kTraceBit) != 0;
}

void set_trace_enabled(bool on);

// Rank tag for every span the CALLING thread records from now on; -1
// clears it.  femtocomm's World::run brackets each rank function with
// this, so multi-rank traces merge into per-rank Chrome process rows.
void set_trace_rank(int rank);
int trace_rank();

// A fresh process-unique flow id for the calling thread (never 0; encodes
// the thread's trace tid, so no cross-thread coordination is needed).
std::uint64_t next_flow_id();

// Append one completed span to the calling thread's ring (registering the
// thread on first use).  Normally reached via FEMTO_TRACE_SCOPE.
void trace_push(const char* category, const char* name, std::int64_t t0_ns,
                std::int64_t dur_ns);

// Producer side of a causal link: record the completed span [t0_ns, now]
// that handed work off (send / submit).  Callers take t0_ns = uptime_ns()
// before the handoff and pass the id they stamped on the message.
void trace_flow_out(const char* category, const char* name,
                    std::int64_t t0_ns, std::uint64_t flow_id);

// Consumer side: record the completed span [t0_ns, now] spent WAITING for
// the handoff (recv / claim).  dur_ns of the recorded span is the wait the
// critical-path reducer charges to this edge.
void trace_flow_in(const char* category, const char* name,
                   std::int64_t t0_ns, std::uint64_t flow_id);

struct TraceSnapshot {
  std::vector<TraceEvent> events;  // merged, sorted by (t0_ns, tid)
  std::uint64_t dropped = 0;       // spans lost to ring wrap, all threads
  int threads = 0;                 // rings registered
};

// Merge every thread's ring, sorted by start time then tid -- the order is
// deterministic for a fixed set of recorded spans regardless of which
// thread exports.
TraceSnapshot trace_snapshot();

// Reset all rings (quiescent points only: no concurrent FEMTO_TRACE_SCOPE
// may be live while clearing).
void trace_clear();

// Chrome trace_event JSON: "X" complete events (ts/dur in microseconds)
// laid out as pid = rank, one process row per rank named "rank N"
// (unranked spans on pid 0), plus "s"/"f" flow events for matched
// trace_flow_out/in pairs.
std::string chrome_trace_json();
bool write_chrome_trace(const std::string& path);

// Flamegraph export: one `root;cat:name;...;cat:name weight` line per
// distinct span stack, keys sorted, for flamegraph.pl / speedscope.  Per
// thread, the non-flow spans nest by start time (the longer span first on
// ties); a span starting at or after the end of the innermost open span
// closes it.  A span's weight is its self time in integer nanoseconds:
// its duration minus its direct children's (a child that outlives its
// parent is clipped to the parent's end).  The root frame is `rank<r>`
// for a rank-tagged span, else `thread<tid>`.  Zero weights are left out;
// the weights add up to top_level_span_ns(snap).  Flow spans are wait
// edges, not frames: obs/flow.hpp reduces them to the critical path.
std::string collapsed_stacks(const TraceSnapshot& snap);
std::string collapsed_stacks();  // over trace_snapshot()
bool write_collapsed_stacks(const std::string& path);

// Total duration of each thread's top-level non-flow spans: the time the
// flamegraph accounts for.
std::int64_t top_level_span_ns(const TraceSnapshot& snap);

// RAII span: start time is taken at construction iff tracing is enabled;
// the destructor records the span.  When the flight recorder is armed,
// construction/destruction also maintain the thread's span stack.
class TraceScope {
 public:
  TraceScope(const char* category, const char* name)
      : category_(category), name_(name) {
    const int m = span_mode();
    t0_ns_ = (m & detail::kTraceBit) != 0 ? uptime_ns() : -1;
    depth_ = (m & detail::kStackBit) != 0
                 ? detail::span_stack_push(category, name)
                 : -1;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    if (depth_ >= 0) detail::span_stack_pop(depth_);
    if (t0_ns_ >= 0)
      trace_push(category_, name_, t0_ns_, uptime_ns() - t0_ns_);
  }

 private:
  const char* category_;
  const char* name_;
  std::int64_t t0_ns_;
  int depth_;
};

}  // namespace femto::obs

#define FEMTO_TRACE_CONCAT2(a, b) a##b
#define FEMTO_TRACE_CONCAT(a, b) FEMTO_TRACE_CONCAT2(a, b)
// The scope's lifetime is the enclosing block; __LINE__ keeps two scopes
// in one block from colliding.
#define FEMTO_TRACE_SCOPE(category, name)                             \
  ::femto::obs::TraceScope FEMTO_TRACE_CONCAT(femto_trace_scope_,     \
                                              __LINE__)(category, name)
