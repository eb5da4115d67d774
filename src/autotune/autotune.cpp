#include "autotune/autotune.hpp"

#include <fstream>
#include <limits>
#include <sstream>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/wallclock.hpp"

namespace femto::tune {

std::string TuneParam::to_string() const {
  std::ostringstream os;
  bool first = true;
  for (const auto& [name, value] : knobs) {
    if (!first) os << ",";
    os << name << "=" << value;
    first = false;
  }
  return os.str();
}

Autotuner& Autotuner::global() {
  static Autotuner tuner;
  return tuner;
}

const TuneEntry& Autotuner::tune(Tunable& t) {
  const std::string key = t.key();
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      ++it->second.hits;
      obs::counter("autotune.cache_hits").add();
      return it->second;
    }
  }
  // Miss: brute-force outside the lock (searches can be slow; concurrent
  // misses on the same key just race to insert the same answer).
  const obs::Stopwatch sw;
  TuneEntry entry = search(t);
  entry.search_seconds = sw.seconds();
  obs::counter("autotune.cache_misses").add();
  obs::counter("autotune.rejected").add(entry.rejected);
  obs::histogram("autotune.search_us")
      .observe(static_cast<std::int64_t>(entry.search_seconds * 1e6));
  FEMTO_LOG_DEBUG("autotune",
                  "tuned '" << key << "' in " << entry.search_seconds
                            << " s (" << entry.candidates_tried
                            << " candidates): " << entry.param.to_string()
                            << ", " << entry.gflops << " GFLOP/s");
  std::lock_guard<std::mutex> lk(mu_);
  ++misses_;
  auto [it, inserted] = cache_.emplace(key, std::move(entry));
  (void)inserted;
  return it->second;
}

TuneEntry Autotuner::search(Tunable& t) const {
  FEMTO_TRACE_SCOPE("autotune", "search");
  t.backup();
  TuneEntry best;
  best.seconds = std::numeric_limits<double>::infinity();
  const auto cands = t.candidates();
  if (!cands.empty()) {
    t.apply(cands.front());
    t.save_reference();
  }
  for (const auto& p : cands) {
    // Warm-up call, whose output must match the reference; then take the
    // min over reps_ timed calls.
    t.apply(p);
    if (!t.matches_reference()) {
      ++best.rejected;
      FEMTO_LOG_WARN("autotune", "rejected candidate " << p.to_string()
                                     << " of '" << t.key()
                                     << "': output disagrees with "
                                     << cands.front().to_string());
      continue;
    }
    double best_time = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps_; ++r) {
      const obs::Stopwatch sw;
      t.apply(p);
      const double dt = sw.seconds();
      best_time = std::min(best_time, dt);
    }
    if (best_time < best.seconds) {
      best.seconds = best_time;
      best.param = p;
    }
  }
  t.restore();
  best.candidates_tried = static_cast<int>(cands.size());
  if (best.seconds > 0 && best.seconds < 1e30) {
    best.gflops = static_cast<double>(t.flops_per_call()) / best.seconds / 1e9;
    best.gbytes = static_cast<double>(t.bytes_per_call()) / best.seconds / 1e9;
  }
  return best;
}

bool Autotuner::contains(const std::string& key) const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.count(key) > 0;
}

void Autotuner::insert(const std::string& key, TuneEntry entry) {
  std::lock_guard<std::mutex> lk(mu_);
  cache_[key] = std::move(entry);
}

std::size_t Autotuner::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return cache_.size();
}

std::int64_t Autotuner::cache_hits() const {
  std::lock_guard<std::mutex> lk(mu_);
  return hits_;
}

std::int64_t Autotuner::cache_misses() const {
  std::lock_guard<std::mutex> lk(mu_);
  return misses_;
}

void Autotuner::clear() {
  std::lock_guard<std::mutex> lk(mu_);
  cache_.clear();
  hits_ = misses_ = 0;
}

namespace {
// v2 appends per-entry hit counts and brute-force search wall time to the
// persisted metadata; v1 files (no such columns) still load.
constexpr char kMagicV1[] = "femtotune-v1";
constexpr char kMagicV2[] = "femtotune-v2";
}

void Autotuner::save(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path);
  out << kMagicV2 << "\n";
  for (const auto& [key, e] : cache_) {
    out << key << "\t" << e.seconds << "\t" << e.gflops << "\t" << e.gbytes
        << "\t" << e.candidates_tried << "\t" << e.hits << "\t"
        << e.search_seconds << "\t" << e.param.knobs.size();
    for (const auto& [name, value] : e.param.knobs)
      out << "\t" << name << "\t" << value;
    out << "\n";
  }
}

int Autotuner::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return 0;
  std::string magic;
  std::getline(in, magic);
  const bool v2 = magic == kMagicV2;
  if (!v2 && magic != kMagicV1) return 0;
  int loaded = 0;
  std::string line;
  std::lock_guard<std::mutex> lk(mu_);
  while (std::getline(in, line)) {
    std::istringstream is(line);
    std::string key;
    if (!std::getline(is, key, '\t')) continue;
    TuneEntry e;
    std::size_t n_knobs = 0;
    is >> e.seconds >> e.gflops >> e.gbytes >> e.candidates_tried;
    if (v2) is >> e.hits >> e.search_seconds;
    is >> n_knobs;
    for (std::size_t k = 0; k < n_knobs; ++k) {
      std::string name;
      std::int64_t value;
      is >> name >> value;
      e.param.knobs[name] = value;
    }
    if (!is.fail()) {
      cache_[key] = std::move(e);
      ++loaded;
    }
  }
  FEMTO_LOG_INFO("autotune",
                 "loaded " << loaded << " tune-cache entries from '" << path
                           << "' (" << magic << ")");
  return loaded;
}

}  // namespace femto::tune
