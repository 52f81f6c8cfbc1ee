#pragma once
// tcu_analyze model — pass 1 of the analyzer. Consumes the token stream
// and builds, per translation unit, a statement-ordered model with
// function scoping: which statements belong to which function and which
// sit in a loop body, plus every tcu-lint annotation resolved to the
// *statement* it blesses. Statement anchoring makes an annotation above
// (or inside) a multi-line call bless the whole statement, so findings
// anchored to the call's first line match annotations written near its
// closing paren.

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.hpp"

namespace tcu_analyze {

inline constexpr std::size_t npos = static_cast<std::size_t>(-1);

/// A well-formed tcu-lint annotation — the `kind(reason)` suppression
/// comment whose grammar annotation_kinds() enumerates.
struct Annotation {
  std::string kind;
  std::size_t target_line = 0;  ///< code line it resolves to (legacy rule)
  std::size_t stmt = npos;      ///< statement it blesses (npos if none)
};

/// One statement: a maximal run of tokens ended by `;` at paren depth 0,
/// or by a block brace. Headers (`if (...)`, function signatures) are
/// emitted as their own statements just before their block opens.
struct Statement {
  std::vector<Token> toks;
  std::size_t first_line = 0;  ///< 0-based
  std::size_t last_line = 0;   ///< 0-based
  std::size_t func = npos;     ///< enclosing function, npos at file scope
  bool looped = false;   ///< under a for/while body (or inline for/while)
  bool func_header = false;  ///< a function signature (parameter list)
};

struct Function {
  std::vector<std::size_t> stmts;  ///< indices into FileModel::statements
};

struct FileModel {
  std::string path;
  std::vector<SourceLine> lines;
  std::vector<Statement> statements;  ///< textual order
  std::vector<Function> functions;
  std::vector<Annotation> annotations;
  std::vector<std::size_t> malformed;  ///< 0-based lines of bad annotations

  /// True if an annotation of `kind` blesses the statement covering the
  /// 0-based `line` (or, as a fallback for code outside any statement,
  /// resolves to exactly that line).
  bool blessed(std::size_t line, const std::string& kind) const;
};

/// All annotation kinds the grammar accepts.
const std::vector<std::string>& annotation_kinds();

FileModel build_model(std::string path, const std::string& text);

}  // namespace tcu_analyze
