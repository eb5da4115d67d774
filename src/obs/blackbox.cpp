#include "obs/blackbox.hpp"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <mutex>
#include <utility>
#include <vector>

#include "core/check.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace femto::obs {

namespace {

constexpr std::size_t kRecentSpans = 128;

struct Provider {
  int handle = 0;
  std::string key;
  std::function<std::string()> fn;
};

constexpr int kSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};

// Dump destination, readable LOCK-FREE from the crash path (a mutex-read
// here could deadlock the abort of a thread that died holding it).  The
// string is leaked on re-install; installs are rare control-plane events.
std::atomic<const std::string*> g_path{nullptr};

bool write_dump(const char* reason, const char* file, int line,
                const char* expr, const char* msg) {
  const std::string* path = g_path.load(std::memory_order_acquire);
  if (path == nullptr) return false;
  return write_file(*path, blackbox_json(reason, file, line, expr, msg));
}

// Control-plane state: install/uninstall/register run under mu_; the dump
// path itself only try_locks it, because a crash can strike while any
// thread holds it.
class Recorder {
 public:
  static Recorder& instance() {
    static Recorder r;
    return r;
  }

  void install(const std::string& path);
  void uninstall();

  bool installed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return installed_;
  }

  std::string path() const {
    const std::string* p = g_path.load(std::memory_order_acquire);
    return p != nullptr ? *p : std::string();
  }

  int register_provider(const std::string& key,
                        std::function<std::string()> fn) {
    std::lock_guard<std::mutex> lk(mu_);
    const int handle = next_handle_++;
    providers_.push_back(Provider{handle, key, std::move(fn)});
    return handle;
  }

  void unregister_provider(int handle) {
    std::lock_guard<std::mutex> lk(mu_);
    for (auto it = providers_.begin(); it != providers_.end(); ++it) {
      if (it->handle == handle) {
        providers_.erase(it);
        return;
      }
    }
  }

  // Append the providers object to @p out; crash-tolerant (try_lock).
  // The provider list is COPIED out under the try_lock and the callbacks
  // run lock-free: a provider that itself takes locks (SolveService's
  // queue_state_json does) must never nest inside the recorder's mutex.
  void append_providers(std::string* out) {
    std::vector<Provider> providers;
    bool have = false;
    {
      std::unique_lock<std::mutex> lk(mu_, std::try_to_lock);
      if (lk.owns_lock()) {
        providers = providers_;
        have = true;
      }
    }
    *out += "\"providers\":{";
    if (!have) {
      *out += "\"_unavailable\":true}";
      return;
    }
    bool first = true;
    for (const Provider& p : providers) {
      if (!first) *out += ',';
      first = false;
      *out += '"';
      *out += json_escape(p.key);
      *out += "\":";
      std::string body;
      try {
        body = p.fn();
      } catch (...) {
        body.clear();
      }
      // A provider returning malformed JSON would poison the whole dump;
      // quarantine anything that does not validate.
      if (body.empty() || !json_validate(body))
        *out += "{\"_invalid\":true}";
      else
        *out += body;
    }
    *out += '}';
  }

 private:
  mutable std::mutex mu_;
  bool installed_ FEMTO_GUARDED_BY(mu_) = false;
  std::vector<Provider> providers_ FEMTO_GUARDED_BY(mu_);
  int next_handle_ FEMTO_GUARDED_BY(mu_) = 1;
  using SignalHandler = void (*)(int);
  SignalHandler previous_[std::size(kSignals)] FEMTO_GUARDED_BY(mu_) = {};
};

// One dump per process: the first failing thread wins; a crash inside the
// dump (or a second thread failing concurrently) must not recurse.
std::atomic_flag g_dumping = ATOMIC_FLAG_INIT;

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    default: return "signal";
  }
}

void check_fail_hook(const char* file, int line, const char* expr,
                     const char* msg) {
  if (g_dumping.test_and_set()) return;
  write_dump("check_failure", file, line, expr, msg);
}

void fatal_signal_handler(int sig) {
  // NOT async-signal-safe (allocation, locks) -- deliberately best-effort:
  // the alternative is no post-mortem at all, and the re-raise below runs
  // whatever happens to the dump.
  if (!g_dumping.test_and_set()) write_dump(signal_name(sig), "", 0, "", "");
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

void Recorder::install(const std::string& path) {
  std::lock_guard<std::mutex> lk(mu_);
  // femtolint: allow(no-naked-new): deliberately leaked — the crash path
  // reads g_path lock-free and a freed-on-reinstall string could be read
  // mid-teardown; installs are rare control-plane events.
  g_path.store(new std::string(path), std::memory_order_release);
  if (installed_) return;
  installed_ = true;
  detail::set_span_stack_enabled(true);
  check::set_fail_hook(&check_fail_hook);
  for (std::size_t i = 0; i < std::size(kSignals); ++i)
    previous_[i] = std::signal(kSignals[i], &fatal_signal_handler);
}

void Recorder::uninstall() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!installed_) return;
  installed_ = false;
  g_path.store(nullptr, std::memory_order_release);
  check::set_fail_hook(nullptr);
  for (std::size_t i = 0; i < std::size(kSignals); ++i)
    std::signal(kSignals[i],
                previous_[i] != SIG_ERR ? previous_[i] : SIG_DFL);
  detail::set_span_stack_enabled(false);
}

}  // namespace

std::string blackbox_json(const char* reason, const char* file, int line,
                          const char* expr, const char* msg) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\"schema\":\"";
  out += kBlackboxSchema;
  out += "\",\"reason\":\"";
  out += json_escape(reason != nullptr ? reason : "?");
  out += "\",\"uptime_ns\":";
  out += json_number(uptime_ns());

  // The failing check (empty strings for signal dumps).
  out += ",\"check\":{\"file\":\"";
  out += json_escape(file != nullptr ? file : "");
  out += "\",\"line\":";
  out += json_number(static_cast<std::int64_t>(line));
  out += ",\"expr\":\"";
  out += json_escape(expr != nullptr ? expr : "");
  out += "\",\"message\":\"";
  out += json_escape(msg != nullptr ? msg : "");
  out += "\"}";

  // The failing thread: rank + live TraceScope stack, outermost first.
  out += ",\"thread\":{\"rank\":";
  out += json_number(static_cast<std::int64_t>(trace_rank()));
  out += ",\"span_stack\":[";
  detail::SpanFrame frames[64];
  const int depth = detail::current_span_stack(frames, 64);
  for (int i = 0; i < depth; ++i) {
    if (i > 0) out += ',';
    out += "{\"category\":\"";
    out += json_escape(frames[i].category != nullptr ? frames[i].category
                                                     : "?");
    out += "\",\"name\":\"";
    out += json_escape(frames[i].name != nullptr ? frames[i].name : "?");
    out += "\"}";
  }
  out += "]}";

  // Last-N completed spans across all threads (the "what was everyone
  // doing" window).
  const TraceSnapshot snap = trace_snapshot();
  const std::size_t n = snap.events.size();
  const std::size_t from = n > kRecentSpans ? n - kRecentSpans : 0;
  out += ",\"recent_spans\":[";
  for (std::size_t i = from; i < n; ++i) {
    const TraceEvent& e = snap.events[i];
    if (i > from) out += ',';
    out += "{\"category\":\"";
    out += json_escape(e.category != nullptr ? e.category : "?");
    out += "\",\"name\":\"";
    out += json_escape(e.name != nullptr ? e.name : "?");
    out += "\",\"t0_ns\":";
    out += json_number(e.t0_ns);
    out += ",\"dur_ns\":";
    out += json_number(e.dur_ns);
    out += ",\"tid\":";
    out += json_number(static_cast<std::int64_t>(e.tid));
    out += ",\"rank\":";
    out += json_number(static_cast<std::int64_t>(e.rank));
    if (e.flow_id != 0) {
      out += ",\"flow\":";
      out += json_number(static_cast<std::int64_t>(e.flow_id));
      out += ",\"flow_dir\":\"";
      out += e.flow == FlowDir::Out ? "out" : "in";
      out += '"';
    }
    out += '}';
  }
  out += "],\"spans_dropped\":";
  out += json_number(static_cast<std::int64_t>(snap.dropped));

  // Metrics (crash-tolerant snapshot).
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  const bool metrics_ok =
      Registry::global().try_crash_snapshot(&counters, &gauges);
  out += ",\"metrics_complete\":";
  out += metrics_ok ? "true" : "false";
  out += ",\"counters\":{";
  bool first = true;
  for (const auto& [name, v] : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += json_number(v);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, v] : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += json_escape(name);
    out += "\":";
    out += json_number(v);
  }
  out += "},";

  Recorder::instance().append_providers(&out);
  out += '}';
  return out;
}

bool blackbox_write_now(const char* reason) {
  return write_dump(reason, "", 0, "", "");
}

void blackbox_install(const std::string& path) {
  Recorder::instance().install(path);
}

void blackbox_uninstall() { Recorder::instance().uninstall(); }

bool blackbox_installed() { return Recorder::instance().installed(); }

std::string blackbox_path() { return Recorder::instance().path(); }

int blackbox_register_provider(const std::string& key,
                               std::function<std::string()> fn) {
  return Recorder::instance().register_provider(key, std::move(fn));
}

void blackbox_unregister_provider(int handle) {
  Recorder::instance().unregister_provider(handle);
}

}  // namespace femto::obs
