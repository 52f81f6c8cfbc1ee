#pragma once
// tcu_analyze lexer — pass 0 of the static analyzer behind the `tcu_lint`
// CLI. Splits a translation unit into per-line code/comment channels
// (string and character literal contents blanked so `"submit("`
// in a log message never matches a rule) and tokenizes the code channel
// into a flat stream the model pass consumes.
//
// Handles the full lexical surface the repo actually uses plus the two
// constructs the PR 6 line-lexer got wrong:
//   * raw string literals `R"delim(...)delim"` (any encoding prefix):
//     contents are blanked verbatim — no escape processing, embedded
//     quotes do not terminate the literal, and embedded newlines keep
//     the line count aligned;
//   * backslash line continuations: a `\` at end of line splices the
//     next physical line in phase 2, so a `//` comment (or a string)
//     continues across it. Lines are still emitted one per physical
//     line so every downstream line number stays 1-based and exact.

#include <cstddef>
#include <string>
#include <vector>

namespace tcu_analyze {

struct SourceLine {
  std::string code;     ///< comments and literal contents blanked
  std::string comment;  ///< comment text (annotations live here)
  bool directive = false;  ///< preprocessor line (incl. spliced tails)
};

/// Split a translation unit into per-line code/comment parts, preserving
/// column positions within each physical line.
std::vector<SourceLine> lex(const std::string& text);

/// One code token. Literals are collapsed: a string becomes the single
/// token `""` and a char literal `''` — rules never need their contents,
/// only their presence.
struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind = Kind::kPunct;
  std::string text;
  std::size_t line = 0;  ///< 0-based physical line
};

/// Tokenize the code channel of lexed lines. Identifiers and numbers are
/// max-munched; multi-character operators that matter to the model
/// (`->`, `::`, `==`, `!=`, `<=`, `>=`, `+=`, `-=`, `*=`, `/=`, `&&`,
/// `||`, `<<`, `>>`, `++`, `--`) stay single tokens. Preprocessor
/// directive lines are skipped — they are not statements.
std::vector<Token> tokenize(const std::vector<SourceLine>& lines);

bool ident_char(char c);
bool has_code(const std::string& code);

}  // namespace tcu_analyze
