#include "lexer.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>

namespace femtolint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)) != 0; }

// Multi-character punctuators, longest first (maximal munch).
const char* kPuncts[] = {
    "<<=", ">>=", "->*", "...", "::", "->", "++", "--", "+=", "-=",
    "*=",  "/=",  "%=",  "&=",  "|=", "^=", "<<", ">>", "<=", ">=",
    "==",  "!=",  "&&",  "||",
};

class Lexer {
 public:
  explicit Lexer(const std::string& src) : s_(src) {}

  LexResult run() {
    while (i_ < s_.size()) step();
    return std::move(out_);
  }

 private:
  const std::string& s_;
  std::size_t i_ = 0;
  int line_ = 1;
  LexResult out_;

  char cur() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  char at(std::size_t k) const { return k < s_.size() ? s_[k] : '\0'; }

  void advance() {
    if (s_[i_] == '\n') ++line_;
    ++i_;
  }

  void emit(Tok kind, std::string text, int line) {
    out_.tokens.push_back({kind, std::move(text), line});
  }

  void step() {
    const char c = cur();
    if (c == '\n' || std::isspace(static_cast<unsigned char>(c)) != 0) {
      advance();
      return;
    }
    if (c == '/' && at(i_ + 1) == '/') return line_comment();
    if (c == '/' && at(i_ + 1) == '*') return block_comment();
    if (c == '#' && at_line_start()) return pp_directive();
    if (c == '"') return string_lit(i_);
    if (c == '\'') return char_lit();
    if (ident_start(c)) return ident();
    if (digit(c) || (c == '.' && digit(at(i_ + 1)))) return number();
    punct();
  }

  // '#' only starts a directive at the beginning of a (whitespace-led)
  // line; in practice that is every '#' outside a literal.
  bool at_line_start() const {
    std::size_t k = i_;
    while (k > 0) {
      const char p = s_[k - 1];
      if (p == '\n') return true;
      if (p != ' ' && p != '\t') return false;
      --k;
    }
    return true;
  }

  void line_comment() {
    const int start = line_;
    advance();  // '/'
    advance();  // '/'
    std::string text;
    while (i_ < s_.size() && cur() != '\n') {
      text += cur();
      advance();
    }
    out_.comments.push_back({start, start, std::move(text)});
  }

  void block_comment() {
    const int start = line_;
    advance();  // '/'
    advance();  // '*'
    std::string text;
    while (i_ < s_.size() && !(cur() == '*' && at(i_ + 1) == '/')) {
      text += cur();
      advance();
    }
    if (i_ < s_.size()) {
      advance();  // '*'
      advance();  // '/'
    }
    out_.comments.push_back({start, line_, std::move(text)});
  }

  // One token for the whole directive; backslash continuations joined.  A
  // trailing // comment on the directive line still lands in comments so
  // suppressions next to an #include keep working.
  void pp_directive() {
    const int start = line_;
    std::string text;
    while (i_ < s_.size()) {
      const char c = cur();
      if (c == '\n') break;
      if (c == '\\' && at(i_ + 1) == '\n') {
        text += ' ';
        advance();
        advance();
        continue;
      }
      if (c == '/' && at(i_ + 1) == '/') {
        line_comment();
        break;
      }
      if (c == '/' && at(i_ + 1) == '*') {
        block_comment();
        text += ' ';
        continue;
      }
      text += c;
      advance();
    }
    emit(Tok::Pp, std::move(text), start);
  }

  // @p begin points at the opening quote.  Handles an already-consumed
  // raw-string prefix via raw_delim (see ident()).  The token keeps the
  // literal's raw text (quotes included); no rule reads inside a Str
  // token, and a token that looks like a name is always of kind Ident.
  void string_lit(std::size_t begin) {
    const int start = line_;
    advance();  // '"'
    while (i_ < s_.size()) {
      const char c = cur();
      if (c == '\\' && i_ + 1 < s_.size()) {
        advance();
        advance();
        continue;
      }
      advance();
      if (c == '"') break;
    }
    emit(Tok::Str, s_.substr(begin, i_ - begin), start);
  }

  void raw_string_lit() {
    const int start = line_;
    const std::size_t begin = i_;
    advance();  // '"'
    std::string delim;
    while (i_ < s_.size() && cur() != '(' && cur() != '\n') {
      delim += cur();
      advance();
    }
    if (i_ < s_.size()) advance();  // '('
    const std::string closer = ")" + delim + "\"";
    const std::size_t end = s_.find(closer, i_);
    while (i_ < s_.size() && i_ < (end == std::string::npos
                                       ? s_.size()
                                       : end + closer.size()))
      advance();
    emit(Tok::Str, s_.substr(begin, i_ - begin), start);
  }

  void char_lit() {
    const int start = line_;
    advance();  // '\''
    while (i_ < s_.size()) {
      const char c = cur();
      if (c == '\\' && i_ + 1 < s_.size()) {
        advance();
        advance();
        continue;
      }
      advance();
      if (c == '\'' || c == '\n') break;
    }
    emit(Tok::Chr, "''", start);
  }

  void ident() {
    const int start = line_;
    std::string text;
    while (i_ < s_.size() && ident_char(cur())) {
      text += cur();
      advance();
    }
    // Raw / encoded string prefixes glue to the literal: R"(..)", u8R"(..)".
    if (cur() == '"') {
      const bool raw = !text.empty() && text.back() == 'R' &&
                       (text == "R" || text == "LR" || text == "uR" ||
                        text == "UR" || text == "u8R");
      if (raw) return raw_string_lit();
      if (text == "L" || text == "u" || text == "U" || text == "u8")
        return string_lit(i_);
    }
    if (cur() == '\'' &&
        (text == "L" || text == "u" || text == "U" || text == "u8"))
      return char_lit();
    emit(Tok::Ident, std::move(text), start);
  }

  // pp-number: digits, idents, '.', digit separators, exponent signs.
  void number() {
    const int start = line_;
    std::string text;
    while (i_ < s_.size()) {
      const char c = cur();
      if (ident_char(c) || c == '.' || c == '\'') {
        text += c;
        advance();
        if ((c == 'e' || c == 'E' || c == 'p' || c == 'P') &&
            (cur() == '+' || cur() == '-') && !text.empty() &&
            text.find_first_of("xX") == std::string::npos) {
          text += cur();
          advance();
        }
        continue;
      }
      break;
    }
    emit(Tok::Number, std::move(text), start);
  }

  void punct() {
    const int start = line_;
    for (const char* p : kPuncts) {
      const std::size_t n = std::string::traits_type::length(p);
      if (s_.compare(i_, n, p) == 0) {
        for (std::size_t k = 0; k < n; ++k) advance();
        emit(Tok::Punct, p, start);
        return;
      }
    }
    std::string one(1, cur());
    advance();
    emit(Tok::Punct, std::move(one), start);
  }
};

}  // namespace

LexResult lex(const std::string& src) { return Lexer(src).run(); }

std::size_t match_fwd(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const char* c = o == "(" ? ")" : (o == "[" ? "]" : "}");
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::Punct) continue;
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return t.size();
}

std::size_t skip_angles(const std::vector<Token>& t, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].kind != Tok::Punct) continue;
    const std::string& p = t[i].text;
    if (p == "<")
      ++depth;
    else if (p == ">")
      --depth;
    else if (p == ">>")
      depth -= 2;
    else if (p == "<<")
      depth += 2;
    else if (p == ";")
      return i;
    if (depth <= 0) return i + 1;
  }
  return t.size();
}

std::size_t call_paren(const std::vector<Token>& t, std::size_t k) {
  const std::size_t n = t.size();
  if (k + 1 < n && is_punct(t[k + 1], "(")) return k + 1;
  if (k + 1 >= n || !is_punct(t[k + 1], "<")) return n;
  int depth = 0;
  const std::size_t limit = std::min(n, k + 1 + 32);
  for (std::size_t i = k + 1; i < limit; ++i) {
    const Token& tk = t[i];
    if (tk.kind == Tok::Ident || tk.kind == Tok::Number) continue;
    if (tk.kind != Tok::Punct) return n;
    if (tk.text == "<") {
      ++depth;
    } else if (tk.text == ">" || tk.text == ">>") {
      depth -= tk.text == ">" ? 1 : 2;
      if (depth == 0) return i + 1 < n && is_punct(t[i + 1], "(") ? i + 1 : n;
      if (depth < 0) return n;
    } else if (tk.text != "::" && tk.text != "," && tk.text != "*" &&
               tk.text != "&") {
      return n;
    }
  }
  return n;
}

}  // namespace femtolint
