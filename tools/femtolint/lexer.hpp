#pragma once
// femtolint v2 lexer: turns C++ source text into a token stream.
//
// The v1 scanner worked on comment-stripped *text* and paid for it: rules
// fired on commented-out code that the stripper missed (nested quotes,
// raw strings), and every rule re-derived structure with ad-hoc character
// scans.  The lexer gives every downstream pass the same, correct view:
//
//   * line and block comments are removed from the token stream but kept
//     in a side list (suppression comments and fixture directives live
//     there);
//   * string, char, and raw-string literals become single opaque tokens,
//     so nothing inside a literal can ever match a rule;
//   * a preprocessor directive (with backslash continuations joined) is
//     one token, so the raw-intrinsics rule reads `#include` lines whole
//     and nothing inside a directive can look like code;
//   * punctuation is maximal-munch (`::`, `+=`, `->`, ...), which the
//     race-accum and guarded-by passes rely on.
//
// The lexer does not run the preprocessor: femtolint lints what the
// developer wrote, not what the compiler saw.

#include <cstddef>
#include <string>
#include <vector>

namespace femtolint {

enum class Tok {
  Ident,    // identifiers AND keywords (rules match on text)
  Number,   // pp-number: 0x1f, 1e-5, 3.14f, ...
  Str,      // "..." or R"delim(...)delim"; text is the raw literal
            // (quotes included) -- rules must check kind before matching
  Chr,      // '...'
  Punct,    // maximal-munch operator / punctuator
  Pp,       // one whole preprocessor directive, continuations joined
};

struct Token {
  Tok kind = Tok::Punct;
  std::string text;
  int line = 0;  // 1-based line of the token's first character
};

struct Comment {
  int line = 0;       // line the comment starts on
  int end_line = 0;   // last line it covers (== line for `//` comments)
  std::string text;   // without the // or /* */ markers
};

struct LexResult {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Lex @p src.  Never fails: unterminated literals/comments are closed at
/// end of input (linting must degrade gracefully on torn files).
LexResult lex(const std::string& src);

inline bool is_ident(const Token& t, const char* text) {
  return t.kind == Tok::Ident && t.text == text;
}
inline bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::Punct && t.text == text;
}

/// Index of the `)`, `]` or `}` closing the bracket at @p open; t.size()
/// if it is unbalanced.
std::size_t match_fwd(const std::vector<Token>& t, std::size_t open);

/// Index just past the template argument list opening at @p open (a `<`);
/// stops at a `;` (a torn list).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t open);

/// Index of the `(` opening a call of the identifier at @p k, or t.size()
/// if it is not called.  Accepts an explicit template-argument list between
/// the name and the paren (`norm2_multi<T>(..)`) when every token in it is
/// type-ish (identifier, number, `::`, `,`, `*`, `&`, nested angles) and it
/// is short; anything else means the `<` was a comparison.
std::size_t call_paren(const std::vector<Token>& t, std::size_t k);

}  // namespace femtolint
