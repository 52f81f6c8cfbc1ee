#include "model.hpp"

#include <cctype>

namespace tcu_analyze {

const std::vector<std::string>& annotation_kinds() {
  static const std::vector<std::string> kinds = {
      "untagged-ok",     "anchored-ok", "backend-ok",
      "chain-thrash-ok", "uncharged-ok"};
  return kinds;
}

namespace {

bool is_punct(const Token& t, const char* text) {
  return t.kind == Token::Kind::kPunct && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return t.kind == Token::Kind::kIdent && t.text == text;
}

bool contains_ident(const std::vector<Token>& toks, const char* text) {
  for (const Token& t : toks) {
    if (is_ident(t, text)) return true;
  }
  return false;
}

bool contains_punct(const std::vector<Token>& toks, const char* text) {
  for (const Token& t : toks) {
    if (is_punct(t, text)) return true;
  }
  return false;
}

/// Identifier immediately before the first depth-0 `(` of a header —
/// the function (or control keyword) the parenthesis belongs to.
std::string callee_of(const std::vector<Token>& toks) {
  int depth = 0;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (is_punct(toks[i], "(")) {
      if (depth == 0 && i > 0 && toks[i - 1].kind == Token::Kind::kIdent) {
        return toks[i - 1].text;
      }
      ++depth;
    } else if (is_punct(toks[i], ")")) {
      --depth;
    }
  }
  return std::string();
}

/// Scope stack entry: a namespace, type, function or block.
struct Scope {
  bool loop = false;  ///< for/while/do block
  std::size_t func = npos;
};

struct Builder {
  FileModel model;
  std::vector<Scope> stack{Scope{}};
  std::vector<Token> pending;
  int paren = 0;       ///< () and [] depth inside the pending statement
  int expr_brace = 0;  ///< {} opened inside the pending statement

  std::size_t cur_func() const { return stack.back().func; }

  bool in_loop() const {
    for (const Scope& s : stack) {
      if (s.loop) return true;
    }
    return false;
  }

  void flush(std::size_t end_line) {
    if (pending.empty()) return;
    Statement stmt;
    stmt.first_line = pending.front().line;
    stmt.last_line = end_line;
    stmt.func = cur_func();
    stmt.looped = in_loop() || contains_ident(pending, "for") ||
                  contains_ident(pending, "while") ||
                  contains_ident(pending, "do");
    stmt.toks = std::move(pending);
    pending.clear();
    if (stmt.func != npos) {
      model.functions[stmt.func].stmts.push_back(model.statements.size());
    }
    model.statements.push_back(std::move(stmt));
  }

  /// Classify and open the scope a depth-0 `{` introduces. The pending
  /// header is flushed as a statement of the *enclosing* scope first, so
  /// function signatures never leak parameters into the function body.
  void open_block(const Token& brace) {
    const std::string prev = pending.empty() ? "" : pending.back().text;
    const bool type_header = (contains_ident(pending, "struct") ||
                              contains_ident(pending, "class") ||
                              contains_ident(pending, "union") ||
                              contains_ident(pending, "enum")) &&
                             !contains_punct(pending, "(");
    if (type_header || contains_ident(pending, "namespace")) {
      flush(brace.line);
      stack.push_back({false, npos});
      return;
    }
    const bool control =
        contains_ident(pending, "if") || contains_ident(pending, "else") ||
        contains_ident(pending, "for") || contains_ident(pending, "while") ||
        contains_ident(pending, "switch") ||
        contains_ident(pending, "catch") || contains_ident(pending, "do") ||
        contains_ident(pending, "try");
    if (control) {
      const bool loop = contains_ident(pending, "for") ||
                        contains_ident(pending, "while") ||
                        contains_ident(pending, "do");
      flush(brace.line);
      stack.push_back({loop, cur_func()});
      return;
    }
    // Not a control/type/namespace header. An expression brace (braced
    // init) follows an identifier, `=`, `,`, `{`, `return`, `>` or `]`;
    // a block follows `)` (function/lambda header) or a boundary.
    const bool blockish =
        pending.empty() || prev == ")" || prev == ";" || prev == "}";
    if (!blockish) {
      ++expr_brace;
      pending.push_back(brace);
      return;
    }
    const std::string name = callee_of(pending);
    // `[` in the header means a lambda (or array declarator) — those open
    // plain blocks of the enclosing scope, not new named functions.
    if (cur_func() == npos && !name.empty() &&
        !contains_punct(pending, "[")) {
      // Free/member function definition at namespace or type scope. Its
      // signature must not feed the file-scope statements.
      flush(brace.line);
      model.statements.back().func_header = true;
      stack.push_back({false, model.functions.size()});
      model.functions.emplace_back();
      return;
    }
    flush(brace.line);
    stack.push_back({false, cur_func()});
  }

  void close_block(const Token& brace) {
    flush(brace.line);
    if (stack.size() > 1) stack.pop_back();
  }

  void feed(const Token& tok) {
    if (is_punct(tok, "(") || is_punct(tok, "[")) {
      ++paren;
      pending.push_back(tok);
    } else if (is_punct(tok, ")") || is_punct(tok, "]")) {
      if (paren > 0) --paren;
      pending.push_back(tok);
    } else if (is_punct(tok, ";") && paren == 0 && expr_brace == 0) {
      flush(tok.line);
    } else if (is_punct(tok, "{")) {
      if (paren > 0 || expr_brace > 0) {
        ++expr_brace;
        pending.push_back(tok);
      } else {
        open_block(tok);
      }
    } else if (is_punct(tok, "}")) {
      if (expr_brace > 0) {
        --expr_brace;
        pending.push_back(tok);
      } else {
        close_block(tok);
      }
    } else {
      pending.push_back(tok);
    }
  }
};

}  // namespace

bool FileModel::blessed(std::size_t line, const std::string& kind) const {
  for (const Annotation& a : annotations) {
    if (a.kind != kind) continue;
    if (a.stmt != npos) {
      const Statement& s = statements[a.stmt];
      if (s.first_line <= line && line <= s.last_line) return true;
    }
    if (a.target_line == line) return true;
  }
  return false;
}

FileModel build_model(std::string path, const std::string& text) {
  Builder b;
  b.model.path = std::move(path);
  b.model.lines = lex(text);

  const std::vector<Token> toks = tokenize(b.model.lines);
  for (const Token& tok : toks) b.feed(tok);
  b.flush(b.model.lines.empty() ? 0 : b.model.lines.size() - 1);
  FileModel model = std::move(b.model);

  // ---- annotations, resolved to statements -----------------------------
  const std::vector<SourceLine>& lines = model.lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& comment = lines[i].comment;
    std::size_t pos = 0;
    while ((pos = comment.find("tcu-lint:", pos)) != std::string::npos) {
      std::size_t p = pos + std::string("tcu-lint:").size();
      while (p < comment.size() && comment[p] == ' ') ++p;
      std::size_t kind_end = p;
      while (kind_end < comment.size() &&
             (std::isalnum(static_cast<unsigned char>(comment[kind_end])) ||
              comment[kind_end] == '-')) {
        ++kind_end;
      }
      const std::string kind = comment.substr(p, kind_end - p);
      const std::size_t open = kind_end;
      const std::size_t close = comment.find(')', open);
      bool known = false;
      for (const std::string& k : annotation_kinds()) known |= (kind == k);
      const bool shaped = known && open < comment.size() &&
                          comment[open] == '(' && close != std::string::npos;
      const std::string reason =
          shaped ? comment.substr(open + 1, close - open - 1) : "";
      if (!shaped || !has_code(reason)) {
        model.malformed.push_back(i);
        pos = p;
        continue;
      }
      Annotation ann;
      ann.kind = kind;
      // Resolve to a code line: this one if it has code, else the next.
      std::size_t target = i;
      if (!has_code(lines[i].code)) {
        target = i + 1;
        while (target < lines.size() && !has_code(lines[target].code)) {
          ++target;
        }
      }
      ann.target_line = target;
      for (std::size_t si = 0; si < model.statements.size(); ++si) {
        const Statement& s = model.statements[si];
        if (s.first_line <= target && target <= s.last_line) {
          ann.stmt = si;
          break;
        }
      }
      model.annotations.push_back(std::move(ann));
      pos = close + 1;
    }
  }
  return model;
}

}  // namespace tcu_analyze
