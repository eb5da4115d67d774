// benchdiff: the BENCH regression sentinel and the only judge of bench
// gates.
//
// The microbenches (bench/harness.hpp) and scripts/bench_lint.sh leave
// BENCH_*.json files in the repo root.  A bench that makes a claim writes
// it as a `<claim>_gate_ok` 0/1 row, computed next to the claim's named
// threshold in its source (micro_compress's recon12_gate_ok, ...).  A
// committed baseline (bench/baseline.json) annotates each metric with a
// direction and a noise band, and CI fails when a gated metric regresses
// past its band.
//
// Baseline schema ("femtobench-baseline-v1"):
//
//   {
//     "schema": "femtobench-baseline-v1",
//     "metrics": {
//       "BENCH_obs.json:overhead_enabled_pct": {
//         "value": -3.2,          // the accepted reading
//         "direction": "lower",   // lower | higher | info
//         "noise_pct": 100.0,     // relative band around value
//         "abs_tol": 2.0,         // additive band (for near-zero values)
//         "gate": true            // false = tracked, never fails
//       }, ...
//     }
//   }
//
// A metric regresses when it moves in the bad direction past BOTH bands:
// |change| > noise_pct% of the baseline AND |change| > abs_tol.  Absolute
// wall-clock numbers are machine-bound and should stay direction "info";
// bench/baseline.json gates only the benches' `*_gate_ok` booleans
// (direction "higher", value 1, no band), so a 0 reading regresses.
//
// Metric names are "<file-basename>:<dotted.json.path>"; arrays index as
// "[i]".  Numbers and booleans (as 0/1) are metrics; strings are ignored.
//
// Usage:
//   benchdiff --baseline FILE BENCH_a.json [BENCH_b.json ...]
//   benchdiff --baseline FILE --write-baseline BENCH_a.json [...]
//
// --write-baseline first judges the given files like a plain run, and
// refuses (exit 1, baseline untouched) when a gated metric regressed.
// Otherwise it refreshes the accepted values of the given files while
// PRESERVING the human-edited direction/noise/gate annotations; rows of
// files not given are kept as they are, and new metrics enter as ungated
// "info" rows for a human to promote.  The baseline must exist in both
// modes.  Exit: 0 clean, 1 regression, 2 usage or I/O error.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON DOM.  benchdiff consumes only machine-written files, so the
// parser is strict: any malformed input is a hard error (exit 2), never a
// silent partial read that could mask a missing gate.
// ---------------------------------------------------------------------------

struct JValue {
  enum Kind { Null, Bool, Num, Str, Arr, Obj };
  Kind kind = Null;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;  // insertion order

  const JValue* find(const std::string& key) const {
    for (const auto& kv : obj)
      if (kv.first == key) return &kv.second;
    return nullptr;
  }
};

class Parser {
 public:
  Parser(const std::string& s, std::string& err) : s_(s), err_(err) {}

  bool run(JValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (i_ != s_.size()) return fail("trailing bytes after document");
    return true;
  }

 private:
  const std::string& s_;
  std::string& err_;
  std::size_t i_ = 0;

  bool fail(const std::string& what) {
    err_ = "byte " + std::to_string(i_) + ": " + what;
    return false;
  }
  char cur() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  void skip_ws() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_])) != 0)
      ++i_;
  }
  bool lit(const char* word, JValue& out, JValue::Kind k, bool bv) {
    const std::size_t n = std::string::traits_type::length(word);
    if (s_.compare(i_, n, word) != 0) return fail("bad literal");
    i_ += n;
    out.kind = k;
    out.b = bv;
    out.num = bv ? 1.0 : 0.0;
    return true;
  }

  bool value(JValue& out) {
    switch (cur()) {
      case '{': return object(out);
      case '[': return array(out);
      case '"': out.kind = JValue::Str; return string(out.str);
      case 't': return lit("true", out, JValue::Bool, true);
      case 'f': return lit("false", out, JValue::Bool, false);
      case 'n': return lit("null", out, JValue::Null, false);
      default: return number(out);
    }
  }

  bool object(JValue& out) {
    out.kind = JValue::Obj;
    ++i_;  // '{'
    skip_ws();
    if (cur() == '}') { ++i_; return true; }
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      if (out.find(key) != nullptr) return fail("duplicate key " + key);
      skip_ws();
      if (cur() != ':') return fail("expected ':'");
      ++i_;
      skip_ws();
      JValue v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (cur() == ',') { ++i_; continue; }
      if (cur() == '}') { ++i_; return true; }
      return fail("expected ',' or '}'");
    }
  }

  bool array(JValue& out) {
    out.kind = JValue::Arr;
    ++i_;  // '['
    skip_ws();
    if (cur() == ']') { ++i_; return true; }
    while (true) {
      JValue v;
      skip_ws();
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (cur() == ',') { ++i_; continue; }
      if (cur() == ']') { ++i_; return true; }
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    if (cur() != '"') return fail("expected string");
    ++i_;
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_];
      if (c == '"') { ++i_; return true; }
      if (c == '\\') {
        ++i_;
        const char e = cur();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            // Metric names are ASCII; keep the escape verbatim.
            out += "\\u";
            break;
          default: return fail("bad escape");
        }
        ++i_;
        continue;
      }
      out += c;
      ++i_;
    }
    return fail("unterminated string");
  }

  bool number(JValue& out) {
    const std::size_t start = i_;
    if (cur() == '-') ++i_;
    while (std::isdigit(static_cast<unsigned char>(cur())) != 0) ++i_;
    if (cur() == '.') {
      ++i_;
      while (std::isdigit(static_cast<unsigned char>(cur())) != 0) ++i_;
    }
    if (cur() == 'e' || cur() == 'E') {
      ++i_;
      if (cur() == '+' || cur() == '-') ++i_;
      while (std::isdigit(static_cast<unsigned char>(cur())) != 0) ++i_;
    }
    if (i_ == start) return fail("expected value");
    out.kind = JValue::Num;
    out.num = std::stod(s_.substr(start, i_ - start));
    return true;
  }
};

bool parse_file(const std::string& path, JValue& out, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open " + path;
    return false;
  }
  std::ostringstream body;
  body << in.rdbuf();
  const std::string text = body.str();
  if (!Parser(text, err).run(out)) {
    err = path + ": " + err;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Flattening: numeric leaves of a BENCH file become "<basename>:<path>".
// ---------------------------------------------------------------------------

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

void flatten(const JValue& v, const std::string& prefix,
             std::map<std::string, double>& out) {
  switch (v.kind) {
    case JValue::Num: out[prefix] = v.num; break;
    case JValue::Bool: out[prefix] = v.b ? 1.0 : 0.0; break;
    case JValue::Obj:
      for (const auto& kv : v.obj)
        flatten(kv.second, prefix + "." + kv.first, out);
      break;
    case JValue::Arr:
      for (std::size_t i = 0; i < v.arr.size(); ++i)
        flatten(v.arr[i], prefix + "[" + std::to_string(i) + "]", out);
      break;
    default: break;  // strings and nulls are not metrics
  }
}

// ---------------------------------------------------------------------------
// Baseline model.
// ---------------------------------------------------------------------------

constexpr const char* kSchema = "femtobench-baseline-v1";

struct Metric {
  double value = 0.0;
  std::string direction = "info";  // higher | lower | info
  double noise_pct = 10.0;
  double abs_tol = 0.0;
  bool gate = false;
};

using Baseline = std::map<std::string, Metric>;

bool load_baseline(const std::string& path, Baseline& out,
                   std::string& err) {
  JValue doc;
  if (!parse_file(path, doc, err)) return false;
  const JValue* schema = doc.find("schema");
  if (schema == nullptr || schema->kind != JValue::Str ||
      schema->str != kSchema) {
    err = path + ": schema is not " + std::string(kSchema);
    return false;
  }
  const JValue* metrics = doc.find("metrics");
  if (metrics == nullptr || metrics->kind != JValue::Obj) {
    err = path + ": no metrics object";
    return false;
  }
  for (const auto& kv : metrics->obj) {
    const JValue& m = kv.second;
    Metric b;
    const JValue* f = m.find("value");
    if (f == nullptr || f->kind != JValue::Num) {
      err = path + ": metric " + kv.first + " has no numeric value";
      return false;
    }
    b.value = f->num;
    if ((f = m.find("direction")) != nullptr) b.direction = f->str;
    if (b.direction != "higher" && b.direction != "lower" &&
        b.direction != "info") {
      err = path + ": metric " + kv.first + " has bad direction '" +
            b.direction + "'";
      return false;
    }
    if ((f = m.find("noise_pct")) != nullptr) b.noise_pct = f->num;
    if ((f = m.find("abs_tol")) != nullptr) b.abs_tol = f->num;
    if ((f = m.find("gate")) != nullptr) b.gate = f->b;
    out[kv.first] = b;
  }
  return true;
}

std::string fmt_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

bool write_baseline(const std::string& path, const Baseline& b) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n  \"schema\": \"" << kSchema << "\",\n  \"metrics\": {";
  bool first = true;
  for (const auto& kv : b) {
    const Metric& m = kv.second;
    out << (first ? "" : ",") << "\n    \"" << kv.first << "\": "
        << "{\"value\": " << fmt_num(m.value) << ", \"direction\": \""
        << m.direction << "\", \"noise_pct\": " << fmt_num(m.noise_pct)
        << ", \"abs_tol\": " << fmt_num(m.abs_tol) << ", \"gate\": "
        << (m.gate ? "true" : "false") << "}";
    first = false;
  }
  out << "\n  }\n}\n";
  return static_cast<bool>(out);
}

// Bad-direction delta: positive means "worse" by the metric's direction,
// zero/negative means equal or improved.  "info" never has a bad side.
double worseness(const Metric& m, double cur) {
  if (m.direction == "higher") return m.value - cur;
  if (m.direction == "lower") return cur - m.value;
  return 0.0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: benchdiff --baseline FILE [--write-baseline] "
      "BENCH.json...\n"
      "  compares flattened numeric metrics of each BENCH file against\n"
      "  the baseline; exits 1 when a gated metric regresses past its\n"
      "  noise band, 2 on bad input.  --write-baseline then refreshes\n"
      "  the given files' values, keeping annotations and other files'\n"
      "  rows; it writes nothing when a gated metric regressed.\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  bool do_write = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--baseline") {
      if (i + 1 >= argc) return usage();
      baseline_path = argv[++i];
    } else if (a == "--write-baseline") {
      do_write = true;
    } else if (!a.empty() && a[0] == '-') {
      return usage();
    } else {
      files.push_back(a);
    }
  }
  if (baseline_path.empty() || files.empty()) return usage();

  std::string err;
  std::map<std::string, double> current;
  for (const std::string& f : files) {
    JValue doc;
    if (!parse_file(f, doc, err)) {
      std::fprintf(stderr, "benchdiff: %s\n", err.c_str());
      return 2;
    }
    std::map<std::string, double> flat;
    flatten(doc, "", flat);
    const std::string base = basename_of(f);
    for (const auto& kv : flat)
      current[base + ":" + kv.first.substr(1)] = kv.second;  // drop lead '.'
  }

  Baseline baseline;
  if (!load_baseline(baseline_path, baseline, err)) {
    std::fprintf(stderr, "benchdiff: %s\n", err.c_str());
    return 2;
  }

  // Only judge baseline entries whose file was actually passed in: a run
  // that benches one subsystem must not fail on the files it skipped.
  std::map<std::string, bool> given;
  for (const std::string& f : files) given[basename_of(f)] = true;
  const auto is_given = [&given](const std::string& name) {
    const std::size_t colon = name.find(':');
    return colon != std::string::npos &&
           given.find(name.substr(0, colon)) != given.end();
  };

  int regressions = 0;
  int checked = 0;
  for (const auto& kv : baseline) {
    const std::string& name = kv.first;
    const Metric& m = kv.second;
    if (!is_given(name)) continue;
    const auto cur = current.find(name);
    if (cur == current.end()) {
      if (m.gate) {
        std::printf("REGRESSED %-58s gated metric missing from input\n",
                    name.c_str());
        ++regressions;
      }
      continue;
    }
    ++checked;
    if (!m.gate || m.direction == "info") continue;
    const double bad = worseness(m, cur->second);
    const double band = std::fabs(m.value) * m.noise_pct / 100.0;
    if (bad > band && bad > m.abs_tol) {
      std::printf("REGRESSED %-58s %s -> %s (%s worse; band %s, tol %s)\n",
                  name.c_str(), fmt_num(m.value).c_str(),
                  fmt_num(cur->second).c_str(), fmt_num(bad).c_str(),
                  fmt_num(band).c_str(), fmt_num(m.abs_tol).c_str());
      ++regressions;
    }
  }
  std::printf("benchdiff: %d metric(s) checked, %d regression(s)\n", checked,
              regressions);

  if (do_write) {
    // A refresh never accepts a regression: the run's readings would
    // become the new baseline and move or disarm the gate.
    if (regressions > 0) {
      std::printf("benchdiff: not writing %s: gated metric(s) regressed\n",
                  baseline_path.c_str());
      return 1;
    }
    // Rows of files not given stay as they are.  Rows of given files take
    // the new readings and keep their annotations; rows those files no
    // longer report are dropped, and new ones enter as ungated info rows.
    Baseline next;
    for (const auto& kv : baseline)
      if (!is_given(kv.first)) next.insert(kv);
    for (const auto& kv : current) {
      Metric m;
      const auto old = baseline.find(kv.first);
      if (old != baseline.end()) m = old->second;
      m.value = kv.second;
      next[kv.first] = m;
    }
    if (!write_baseline(baseline_path, next)) {
      std::fprintf(stderr, "benchdiff: cannot write %s\n",
                   baseline_path.c_str());
      return 2;
    }
    std::printf("benchdiff: wrote %zu metric(s) to %s\n", next.size(),
                baseline_path.c_str());
    return 0;
  }

  int unbaselined = 0;
  for (const auto& kv : current)
    if (baseline.find(kv.first) == baseline.end()) ++unbaselined;
  if (unbaselined > 0)
    std::printf(
        "benchdiff: %d new metric(s) not in the baseline "
        "(refresh with --write-baseline, then annotate gates)\n",
        unbaselined);
  return regressions == 0 ? 0 : 1;
}
