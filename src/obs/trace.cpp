#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>

#include "core/check.hpp"
#include "obs/json.hpp"

namespace femto::obs {

TraceRing::TraceRing(std::size_t capacity, std::uint32_t tid)
    : slots_(capacity == 0 ? 1 : capacity), tid_(tid) {}

void TraceRing::push(const char* category, const char* name,
                     std::int64_t t0_ns, std::int64_t dur_ns,
                     std::int32_t rank, std::uint64_t flow_id,
                     FlowDir flow) {
  const std::uint64_t h = head_.load(std::memory_order_relaxed);
  TraceEvent& slot = slots_[static_cast<std::size_t>(h % slots_.size())];
  slot.category = category;
  slot.name = name;
  slot.t0_ns = t0_ns;
  slot.dur_ns = dur_ns;
  slot.tid = tid_;
  slot.rank = rank;
  slot.flow_id = flow_id;
  slot.flow = flow;
  // Release so a reader that acquires head_ sees the slot contents.
  head_.store(h + 1, std::memory_order_release);
}

std::vector<TraceEvent> TraceRing::events() const {
  const std::uint64_t h = head_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t n = h < cap ? h : cap;
  std::vector<TraceEvent> out;
  out.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(slots_[static_cast<std::size_t>((h - n + i) % cap)]);
  return out;
}

namespace detail {
std::atomic<int> g_span_mode{-1};

namespace {
void apply_bit(int bit, bool on) {
  int cur = g_span_mode.load(std::memory_order_relaxed);
  for (;;) {
    // Resolve the env first so the -1 sentinel never survives a toggle.
    if (cur < 0) {
      span_mode_slow();
      cur = g_span_mode.load(std::memory_order_relaxed);
      continue;
    }
    const int next = on ? (cur | bit) : (cur & ~bit);
    if (g_span_mode.compare_exchange_weak(cur, next,
                                          std::memory_order_relaxed))
      return;
  }
}

// The calling thread's live TraceScope stack.  Only its own thread reads
// it (the flight recorder dumps from the failing thread), but a fatal
// signal can land in the middle of a push, so the frame is written
// BEFORE the depth that publishes it.  Constant-initialised, so a push is
// a plain TLS access.
constexpr int kMaxSpanDepth = 64;
struct SpanStack {
  SpanFrame frames[kMaxSpanDepth];
  int depth = 0;
};
thread_local SpanStack t_span_stack;
}  // namespace

int span_mode_slow() {
  FEMTO_NONDET_OK(
      "one-shot FEMTO_TRACE toggle: decides only whether trace spans are "
      "recorded; kernels compute identical results either way");
  int expected = -1;
  const char* e = std::getenv("FEMTO_TRACE");
  const int from_env =
      (e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0)
          ? kTraceBit
          : 0;
  // First thread to get here settles the state; losers read the winner's.
  g_span_mode.compare_exchange_strong(expected, from_env,
                                      std::memory_order_relaxed);
  return g_span_mode.load(std::memory_order_relaxed);
}

void set_span_stack_enabled(bool on) { apply_bit(kStackBit, on); }

int span_stack_push(const char* category, const char* name) {
  SpanStack& s = t_span_stack;
  const int d = s.depth;
  if (d < kMaxSpanDepth) s.frames[d] = SpanFrame{category, name};
  std::atomic_signal_fence(std::memory_order_release);
  s.depth = d + 1;
  return d;
}

void span_stack_pop(int prev_depth) { t_span_stack.depth = prev_depth; }

int current_span_stack(SpanFrame* out, int max_frames) {
  const SpanStack& s = t_span_stack;
  const int d = std::min({s.depth, kMaxSpanDepth, max_frames});
  std::atomic_signal_fence(std::memory_order_acquire);
  for (int i = 0; i < d; ++i) out[i] = s.frames[i];
  return d > 0 ? d : 0;
}
}  // namespace detail

namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

// Owns every thread's ring (shared_ptr so rings outlive their threads and
// exports see spans from joined workers).
class TraceRegistry {
 public:
  static TraceRegistry& instance() {
    static TraceRegistry reg;
    return reg;
  }

  std::shared_ptr<TraceRing> register_thread() {
    std::lock_guard<std::mutex> lk(mu_);
    auto ring = std::make_shared<TraceRing>(
        capacity_.load(std::memory_order_relaxed), next_tid_);
    ++next_tid_;
    rings_.push_back(ring);
    return ring;
  }

  std::vector<std::shared_ptr<TraceRing>> rings() const {
    std::lock_guard<std::mutex> lk(mu_);
    return rings_;
  }

  void set_capacity(std::size_t spans) {
    capacity_.store(spans == 0 ? 1 : spans, std::memory_order_relaxed);
  }

  std::size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::shared_ptr<TraceRing>> rings_ FEMTO_GUARDED_BY(mu_);
  std::uint32_t next_tid_ FEMTO_GUARDED_BY(mu_) = 0;
  std::atomic<std::size_t> capacity_{kDefaultCapacity};
};

TraceRing* thread_ring() {
  // The shared_ptr keeps the ring alive in the registry after thread exit;
  // the raw cached pointer keeps the hot path to one thread_local read.
  thread_local std::shared_ptr<TraceRing> ring =
      TraceRegistry::instance().register_thread();
  return ring.get();
}

// Per-thread causal-tracing context: the rank stamped on every span this
// thread records, and the sequence half of its flow ids.
struct TraceContext {
  int rank = -1;
  std::uint64_t next_seq = 0;
};

TraceContext& thread_context() {
  thread_local TraceContext ctx;
  return ctx;
}

}  // namespace

void set_trace_enabled(bool on) {
  detail::apply_bit(detail::kTraceBit, on);
}

void set_trace_rank(int rank) { thread_context().rank = rank; }

int trace_rank() { return thread_context().rank; }

std::uint64_t next_flow_id() {
  TraceContext& ctx = thread_context();
  const std::uint64_t tid = thread_ring()->tid();
  return ((tid + 1) << 32) | (++ctx.next_seq & 0xffffffffu);
}

void set_trace_capacity(std::size_t spans) {
  TraceRegistry::instance().set_capacity(spans);
}

std::size_t trace_capacity() {
  return TraceRegistry::instance().capacity();
}

void trace_push(const char* category, const char* name, std::int64_t t0_ns,
                std::int64_t dur_ns) {
  thread_ring()->push(category, name, t0_ns, dur_ns,
                      thread_context().rank);
}

void trace_flow_out(const char* category, const char* name,
                    std::int64_t t0_ns, std::uint64_t flow_id) {
  thread_ring()->push(category, name, t0_ns, uptime_ns() - t0_ns,
                      thread_context().rank, flow_id, FlowDir::Out);
}

void trace_flow_in(const char* category, const char* name,
                   std::int64_t t0_ns, std::uint64_t flow_id) {
  thread_ring()->push(category, name, t0_ns, uptime_ns() - t0_ns,
                      thread_context().rank, flow_id, FlowDir::In);
}

TraceSnapshot trace_snapshot() {
  TraceSnapshot snap;
  const auto rings = TraceRegistry::instance().rings();
  snap.threads = static_cast<int>(rings.size());
  for (const auto& ring : rings) {
    snap.dropped += ring->dropped();
    auto evs = ring->events();
    snap.events.insert(snap.events.end(), evs.begin(), evs.end());
  }
  std::stable_sort(snap.events.begin(), snap.events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.t0_ns != b.t0_ns) return a.t0_ns < b.t0_ns;
                     return a.tid < b.tid;
                   });
  return snap;
}

void trace_clear() {
  for (const auto& ring : TraceRegistry::instance().rings()) ring->clear();
}

std::string chrome_trace_json(const ChromeTraceOptions& opt) {
  const TraceSnapshot snap = trace_snapshot();
  std::string out;
  out.reserve(snap.events.size() * 128 + 256);
  out += "{\"traceEvents\":[";
  char buf[192];
  bool first = true;

  // Name the per-rank process rows so the merged view reads as a rank
  // timeline, not anonymous pids.
  if (opt.merge_ranks) {
    std::set<int> ranks;
    for (const TraceEvent& e : snap.events)
      if (e.rank >= 0) ranks.insert(e.rank);
    for (int r : ranks) {
      if (!first) out += ',';
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                    "\"args\":{\"name\":\"rank %d\"}}",
                    r, r);
      out += buf;
    }
  }

  for (const TraceEvent& e : snap.events) {
    const int pid = (opt.merge_ranks && e.rank >= 0) ? e.rank : 0;
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    out += json_escape(e.name != nullptr ? e.name : "?");
    out += "\",\"cat\":\"";
    out += json_escape(e.category != nullptr ? e.category : "?");
    // ts/dur are microseconds; %.3f keeps exact nanosecond resolution.
    std::snprintf(buf, sizeof(buf),
                  "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,"
                  "\"tid\":%u",
                  static_cast<double>(e.t0_ns) * 1e-3,
                  static_cast<double>(e.dur_ns) * 1e-3, pid, e.tid);
    out += buf;
    if (e.flow_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"flow\":%llu}",
                    static_cast<unsigned long long>(e.flow_id));
      out += buf;
    }
    out += '}';
    if (opt.flow_events && e.flow_id != 0 && e.flow != FlowDir::None) {
      // The arrow leaves the producer span (s) at its end and lands on the
      // consumer's wait span (f) at the moment the wait resolved; both
      // timestamps sit inside their X span so viewers bind the arc to it.
      const char* ph = e.flow == FlowDir::Out ? "s" : "f";
      const char* bind = e.flow == FlowDir::Out ? "" : ",\"bp\":\"e\"";
      std::snprintf(buf, sizeof(buf),
                    ",{\"name\":\"flow\",\"cat\":\"%s\",\"ph\":\"%s\","
                    "\"id\":%llu,\"ts\":%.3f,\"pid\":%d,\"tid\":%u%s}",
                    e.category != nullptr ? e.category : "?", ph,
                    static_cast<unsigned long long>(e.flow_id),
                    static_cast<double>(e.t0_ns + e.dur_ns) * 1e-3, pid,
                    e.tid, bind);
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "],\"displayTimeUnit\":\"ns\",\"otherData\":{"
                "\"dropped\":%llu,\"threads\":%d}}",
                static_cast<unsigned long long>(snap.dropped),
                snap.threads);
  out += buf;
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const ChromeTraceOptions& opt) {
  return write_file(path, chrome_trace_json(opt));
}

namespace {

// Each thread's non-flow spans in nesting order: by start time, the
// longer span first on ties, and on a full tie the later record first (a
// span is recorded when it closes, after the spans it encloses).
std::map<std::uint32_t, std::vector<const TraceEvent*>> nested_spans(
    const TraceSnapshot& snap) {
  std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
  for (const TraceEvent& e : snap.events)
    if (e.flow == FlowDir::None) by_tid[e.tid].push_back(&e);
  for (auto& [tid, spans] : by_tid)
    std::sort(spans.begin(), spans.end(),
              [](const TraceEvent* a, const TraceEvent* b) {
                if (a->t0_ns != b->t0_ns) return a->t0_ns < b->t0_ns;
                if (a->dur_ns != b->dur_ns) return a->dur_ns > b->dur_ns;
                return a > b;
              });
  return by_tid;
}

}  // namespace

std::string collapsed_stacks(const TraceSnapshot& snap) {
  std::map<std::string, std::int64_t> weights;
  for (const auto& [tid, spans] : nested_spans(snap)) {
    struct Open {
      const TraceEvent* e;
      std::int64_t end;         // clipped to the parent's end
      std::int64_t self;        // end - t0 minus the children's time
      std::size_t frames_len;   // `frames` before this span's frame
    };
    std::vector<Open> open;
    std::string frames;  // ";cat:name" per open span, outermost first
    const auto close_innermost = [&] {
      const Open& o = open.back();
      char root[32];
      if (o.e->rank >= 0)
        std::snprintf(root, sizeof(root), "rank%d", o.e->rank);
      else
        std::snprintf(root, sizeof(root), "thread%u", o.e->tid);
      weights[root + frames] += o.self;
      frames.resize(o.frames_len);
      open.pop_back();
    };
    for (const TraceEvent* e : spans) {
      while (!open.empty() && e->t0_ns >= open.back().end) close_innermost();
      std::int64_t end = e->t0_ns + e->dur_ns;
      if (!open.empty()) {
        end = std::min(end, open.back().end);
        open.back().self -= end - e->t0_ns;
      }
      open.push_back(Open{e, end, end - e->t0_ns, frames.size()});
      frames += ';';
      frames += e->category != nullptr ? e->category : "?";
      frames += ':';
      frames += e->name != nullptr ? e->name : "?";
    }
    while (!open.empty()) close_innermost();
  }

  std::string out;
  char buf[32];
  for (const auto& [key, ns] : weights) {
    if (ns == 0) continue;
    std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(ns));
    out += key;
    out += buf;
  }
  return out;
}

std::string collapsed_stacks() { return collapsed_stacks(trace_snapshot()); }

bool write_collapsed_stacks(const std::string& path) {
  return write_file(path, collapsed_stacks());
}

std::int64_t top_level_span_ns(const TraceSnapshot& snap) {
  std::int64_t total = 0;
  for (const auto& [tid, spans] : nested_spans(snap)) {
    std::int64_t end = std::numeric_limits<std::int64_t>::min();
    for (const TraceEvent* e : spans) {
      if (e->t0_ns < end) continue;  // nested in the current top-level span
      total += e->dur_ns;
      end = e->t0_ns + e->dur_ns;
    }
  }
  return total;
}

}  // namespace femto::obs
