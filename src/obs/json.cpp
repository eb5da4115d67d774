#include "obs/json.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <set>

namespace femto::obs {

std::string json_escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (unsigned char c : raw) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %g may print "1e+05"-style exponents, which are valid JSON, but it
  // never prints a bare trailing '.'; the only invalid-JSON risk would be
  // nan/inf, handled above.
  return buf;
}

std::string json_number(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && wrote;
}

namespace {

// Recursive-descent validator.  Depth-limited so a hostile/corrupt file
// cannot overflow the stack.
class Validator {
 public:
  Validator(const std::string& text, std::string* err)
      : s_(text.data()), n_(text.size()), err_(err) {}

  bool run() {
    skip_ws();
    if (!value(0)) return false;
    skip_ws();
    if (pos_ != n_) return fail("trailing bytes after JSON value");
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  bool fail(const char* msg) {
    if (err_) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "json error at byte %zu: %s", pos_,
                    msg);
      *err_ = buf;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < n_ && (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                         s_[pos_] == '\n' || s_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* word) {
    const std::size_t len = std::strlen(word);
    if (pos_ + len > n_ || std::memcmp(s_ + pos_, word, len) != 0)
      return fail("bad literal");
    pos_ += len;
    return true;
  }

  // When @p out is non-null the raw (still-escaped) bytes between the
  // quotes are captured -- enough for object() to compare keys, since two
  // byte-identical keys are duplicates whatever they decode to.
  bool string(std::string* out = nullptr) {
    if (pos_ >= n_ || s_[pos_] != '"') return fail("expected '\"'");
    ++pos_;
    const std::size_t body = pos_;
    while (pos_ < n_) {
      const unsigned char c = static_cast<unsigned char>(s_[pos_]);
      if (c == '"') {
        if (out != nullptr) out->assign(s_ + body, pos_ - body);
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= n_) return fail("truncated escape");
        const char e = s_[pos_];
        if (e == 'u') {
          if (pos_ + 4 >= n_) return fail("truncated \\u escape");
          for (int i = 1; i <= 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            const bool hex = (h >= '0' && h <= '9') ||
                             (h >= 'a' && h <= 'f') || (h >= 'A' && h <= 'F');
            if (!hex) return fail("bad \\u escape");
          }
          pos_ += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return fail("bad escape character");
        }
        ++pos_;
      } else if (c < 0x20) {
        return fail("raw control character in string");
      } else {
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool number() {
    const std::size_t start = pos_;
    if (pos_ < n_ && s_[pos_] == '-') ++pos_;
    if (pos_ >= n_) return fail("truncated number");
    if (s_[pos_] == '0') {
      ++pos_;
    } else if (s_[pos_] >= '1' && s_[pos_] <= '9') {
      while (pos_ < n_ && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    } else {
      return fail("bad number");
    }
    if (pos_ < n_ && s_[pos_] == '.') {
      ++pos_;
      if (pos_ >= n_ || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("bad fraction");
      while (pos_ < n_ && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    if (pos_ < n_ && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < n_ && (s_[pos_] == '+' || s_[pos_] == '-')) ++pos_;
      if (pos_ >= n_ || s_[pos_] < '0' || s_[pos_] > '9')
        return fail("bad exponent");
      while (pos_ < n_ && s_[pos_] >= '0' && s_[pos_] <= '9') ++pos_;
    }
    return pos_ > start;
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    if (pos_ >= n_) return fail("unexpected end of input");
    switch (s_[pos_]) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object(int depth) {
    ++pos_;  // consume '{'
    skip_ws();
    if (pos_ < n_ && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    std::set<std::string> keys;
    std::string key;
    for (;;) {
      skip_ws();
      if (!string(&key)) return false;
      // A report/baseline writer emitting one key twice is a bug upstream
      // (last-wins parsing would silently mask half the data) -- reject.
      if (!keys.insert(key).second) return fail("duplicate object key");
      skip_ws();
      if (pos_ >= n_ || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < n_ && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < n_ && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool array(int depth) {
    ++pos_;  // consume '['
    skip_ws();
    if (pos_ < n_ && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      if (pos_ < n_ && s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < n_ && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  const char* s_;
  std::size_t n_;
  std::size_t pos_ = 0;
  std::string* err_;
};

}  // namespace

bool json_validate(const std::string& text, std::string* err) {
  return Validator(text, err).run();
}

}  // namespace femto::obs
