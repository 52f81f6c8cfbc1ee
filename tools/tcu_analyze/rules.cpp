#include "rules.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace tcu_analyze {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> catalog = {
      {"annotation", "malformed tcu-lint annotation"},
      {"untagged-gemm",
       "raw untagged gemm call clobbers the resident set"},
      {"missing-anchor",
       "derived-key tagged call in a file that never re-anchors"},
      {"raw-backend",
       "backend-> dereference bypasses Device::issue() accounting"},
      {"chain-thrash",
       "declared chain longer than the static resident_tiles capacity"},
      {"uncharged-compute",
       "arithmetic loop over tile data the cost model never charges"},
  };
  return catalog;
}

namespace {

// ------------------------------------------------------- line-rule helpers
// Ported from the PR 6 single-file tool; these scan the blanked code
// channel, so strings and comments never match.

std::vector<std::size_t> find_calls(const std::string& code,
                                    const std::string& name) {
  std::vector<std::size_t> opens;
  std::size_t pos = 0;
  while ((pos = code.find(name, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(code[pos - 1]);
    std::size_t after = pos + name.size();
    const bool right_ident = after < code.size() && ident_char(code[after]);
    while (after < code.size() && code[after] == ' ') ++after;
    if (left_ok && !right_ident && after < code.size() &&
        code[after] == '(') {
      opens.push_back(after);
    }
    pos += name.size();
  }
  return opens;
}

std::string call_args(const std::vector<SourceLine>& lines, std::size_t start,
                      std::size_t open, std::size_t max_lines = 40) {
  std::string args;
  int depth = 0;
  for (std::size_t li = start; li < lines.size() && li < start + max_lines;
       ++li) {
    const std::string& code = lines[li].code;
    for (std::size_t ci = li == start ? open : 0; ci < code.size(); ++ci) {
      const char c = code[ci];
      if (c == '(') {
        ++depth;
        if (depth == 1) continue;
      } else if (c == ')') {
        --depth;
        if (depth == 0) return args;
      }
      if (depth >= 1) args += c;
    }
    args += ' ';
  }
  return std::string();
}

std::string strip_spaces(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (!std::isspace(static_cast<unsigned char>(c))) out += c;
  }
  return out;
}

/// The TaskSpec argument at the head of a `submit(` call's argument text,
/// whitespace stripped, when it is a brace literal (`{.cost=c,.chain={k}}`)
/// — the only spelling the rules can read. Empty otherwise.
std::string spec_literal(const std::string& args) {
  const std::string text = strip_spaces(args);
  if (text.empty() || text[0] != '{') return std::string();
  int depth = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (c == '(' || c == '{' || c == '[') {
      ++depth;
    } else if ((c == ')' || c == '}' || c == ']') && --depth == 0) {
      return text.substr(0, i + 1);
    }
  }
  return std::string();
}

/// Whether the stripped spec literal designates `.field`; if so, `init`
/// receives its initializer text.
bool spec_field(const std::string& spec, const std::string& field,
                std::string& init) {
  const std::string tag = "." + field + "=";
  const std::size_t at = spec.find(tag);
  if (at == std::string::npos) return false;
  const std::size_t begin = at + tag.size();
  std::size_t end = begin;
  for (int depth = 0; end < spec.size(); ++end) {
    const char c = spec[end];
    if (c == '(' || c == '{' || c == '[') {
      ++depth;
    } else if (c == ')' || c == '}' || c == ']') {
      if (depth-- == 0) break;
    } else if (c == ',' && depth == 0) {
      break;
    }
  }
  init = spec.substr(begin, end - begin);
  return true;
}

bool derives_key(const std::string& args) {
  std::size_t pos = 0;
  while ((pos = args.find("_key", pos)) != std::string::npos) {
    std::size_t begin = pos;
    while (begin > 0 && ident_char(args[begin - 1])) --begin;
    std::size_t after = pos + 4;
    const bool right_ident = after < args.size() && ident_char(args[after]);
    std::size_t paren = after;
    while (paren < args.size() && args[paren] == ' ') ++paren;
    if (!right_ident && paren < args.size() && args[paren] == '(' &&
        args.substr(begin, after - begin) != "make_tile_key") {
      return true;
    }
    pos = after;
  }
  return false;
}

std::vector<std::size_t> find_backend_derefs(const std::string& code) {
  std::vector<std::size_t> hits;
  std::size_t pos = 0;
  while ((pos = code.find("backend", pos)) != std::string::npos) {
    std::size_t end = pos + std::string("backend").size();
    if (end < code.size() && code[end] == '_') ++end;
    std::size_t arrow = end;
    while (arrow < code.size() && code[arrow] == ' ') ++arrow;
    if ((end >= code.size() || !ident_char(code[end])) &&
        arrow + 1 < code.size() && code[arrow] == '-' &&
        code[arrow + 1] == '>') {
      hits.push_back(pos);
    }
    pos = end;
  }
  return hits;
}

/// Files allowed to dereference the backend pointer: the accounting choke
/// point (Device::issue) and the backend implementations themselves.
bool backend_seam_file(const std::string& path) {
  return path.find("core/device.hpp") != std::string::npos ||
         path.find("core/backend") != std::string::npos;
}

/// Files whose whole purpose is elementwise tile access: the storage
/// layer and the backend kernels. Compute there is the charged seam.
bool uncharged_exempt_file(const std::string& path) {
  return backend_seam_file(path) ||
         path.find("core/matrix.hpp") != std::string::npos;
}

// --------------------------------------------------------- token helpers

bool tok_is(const Token& t, Token::Kind kind, const char* text) {
  return t.kind == kind && t.text == text;
}

bool is_ident(const Token& t, const char* text) {
  return tok_is(t, Token::Kind::kIdent, text);
}

bool is_punct(const Token& t, const char* text) {
  return tok_is(t, Token::Kind::kPunct, text);
}

bool stmt_has_ident(const Statement& s, const char* text) {
  for (const Token& t : s.toks) {
    if (is_ident(t, text)) return true;
  }
  return false;
}

bool stmt_has_punct(const Statement& s, const char* text) {
  for (const Token& t : s.toks) {
    if (is_punct(t, text)) return true;
  }
  return false;
}

/// True if the statement calls `name(` — identifier token followed by an
/// opening parenthesis.
bool stmt_calls(const Statement& s, const char* name) {
  for (std::size_t i = 0; i + 1 < s.toks.size(); ++i) {
    if (is_ident(s.toks[i], name) && is_punct(s.toks[i + 1], "(")) {
      return true;
    }
  }
  return false;
}

bool stmt_has_submit(const Statement& s) {
  for (const Token& t : s.toks) {
    if (t.kind == Token::Kind::kIdent &&
        t.text.rfind("submit", 0) == 0) {
      return true;
    }
  }
  return false;
}

// ------------------------------------------------- per-function rules

/// Element count of the brace-literal chain a `submit(` call's TaskSpec
/// designates (`submit({.cost = c, .chain = {k0, k1}}, task)`), or npos
/// when the statement has none.
std::size_t static_chain_length(const Statement& s) {
  std::string text;
  for (const Token& t : s.toks) text += t.text;
  for (const std::size_t open : find_calls(text, "submit")) {
    std::string chain;
    if (!spec_field(spec_literal(text.substr(open + 1)), "chain", chain) ||
        chain.empty() || chain[0] != '{') {
      continue;
    }
    if (chain == "{}") return 0;
    std::size_t elems = 1;
    int depth = 0;
    for (const char c : chain) {
      if (c == '(' || c == '{' || c == '[') {
        ++depth;
      } else if (c == ')' || c == '}' || c == ']') {
        --depth;
      } else if (c == ',' && depth == 1) {
        ++elems;
      }
    }
    return elems;
  }
  return npos;
}

/// Statically-known Config::resident_tiles in this function: the number
/// literal assigned to a `resident_tiles` field, or npos.
std::size_t static_resident_tiles(
    const std::vector<const Statement*>& stmts) {
  for (const Statement* s : stmts) {
    for (std::size_t i = 0; i + 2 < s->toks.size(); ++i) {
      if (is_ident(s->toks[i], "resident_tiles") &&
          is_punct(s->toks[i + 1], "=") &&
          s->toks[i + 2].kind == Token::Kind::kNumber) {
        return static_cast<std::size_t>(
            std::strtoull(s->toks[i + 2].text.c_str(), nullptr, 10));
      }
    }
  }
  return npos;
}

bool stmt_arithmetic(const Statement& s) {
  if (stmt_has_punct(s, "+=") || stmt_has_punct(s, "-=") ||
      stmt_has_punct(s, "*=") || stmt_has_punct(s, "/=")) {
    return true;
  }
  return stmt_has_punct(s, "=") &&
         (stmt_has_punct(s, "*") || stmt_has_punct(s, "+"));
}

/// Run the per-function rules over one function's statements.
void function_rules(const FileModel& model,
                    const std::vector<const Statement*>& stmts,
                    std::vector<Finding>& out) {
  bool has_split_chains = false;
  bool charges = false;
  for (const Statement* s : stmts) {
    has_split_chains |= stmt_has_ident(*s, "split_chains");
    charges |= stmt_calls(*s, "charge_cpu") || stmt_calls(*s, "charge");
  }

  // [chain-thrash]
  const std::size_t capacity = static_resident_tiles(stmts);
  if (capacity != npos && !has_split_chains) {
    for (const Statement* s : stmts) {
      const std::size_t len = static_chain_length(*s);
      if (len == npos || len <= capacity) continue;
      const std::size_t line = s->first_line;
      if (model.blessed(line, "chain-thrash-ok")) continue;
      out.push_back(
          {model.path, line + 1, "chain-thrash",
           "declared chain has " + std::to_string(len) +
               " tiles but resident_tiles is " + std::to_string(capacity) +
               " at this call site; every pass over the chain reloads "
               "every tile (use split_chains or raise the capacity; "
               "annotate with // tcu-lint: chain-thrash-ok(<reason>) if "
               "thrash is the point)"});
    }
  }

  // [uncharged-compute]
  if (!uncharged_exempt_file(model.path) && !charges) {
    for (const Statement* s : stmts) {
      if (!s->looped || !stmt_arithmetic(*s)) continue;
      if (!stmt_calls(*s, "tile_view") && !stmt_calls(*s, "strip_view") &&
          !stmt_calls(*s, "tile_data")) {
        continue;
      }
      if (stmt_has_submit(*s) || stmt_has_ident(*s, "gemm") ||
          stmt_has_ident(*s, "gemm_resident") ||
          stmt_has_ident(*s, "pack") || stmt_has_ident(*s, "unpack")) {
        continue;
      }
      const std::size_t line = s->first_line;
      if (model.blessed(line, "uncharged-ok")) continue;
      out.push_back(
          {model.path, line + 1, "uncharged-compute",
           "arithmetic loop over tile_view/strip_view data outside a "
           "submitted task and the backend seam; this work never reaches "
           "the cost model — move it into a .cpu = true submit (or "
           "charge_cpu the flops) or annotate with // tcu-lint: "
           "uncharged-ok(<reason>)"});
    }
  }
}

}  // namespace

std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& text) {
  const FileModel model = build_model(path, text);
  const std::vector<SourceLine>& lines = model.lines;
  std::vector<Finding> findings;

  // ---- malformed annotations (kept first within a line) ----------------
  std::string kinds;
  for (const std::string& kind : annotation_kinds()) {
    kinds += (kinds.empty() ? "" : ", ") + kind;
  }
  for (const std::size_t line : model.malformed) {
    findings.push_back(
        {path, line + 1, "annotation",
         "malformed tcu-lint annotation; expected 'tcu-lint: "
         "<kind>(<reason>)' with a non-empty reason, where <kind> is one "
         "of: " + kinds});
  }

  // ---- line rules (PR 6 behavior, statement-anchored annotations) ------
  bool file_has_evict_all = false;
  for (const SourceLine& line : lines) {
    if (!find_calls(line.code, "evict_all").empty()) {
      file_has_evict_all = true;
      break;
    }
  }

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& code = lines[i].code;

    // [untagged-gemm]: member calls `.gemm(` / `->gemm(` only — the
    // checker's own definitions and free helpers don't clobber anything.
    for (const std::size_t open : find_calls(code, "gemm")) {
      std::size_t name_pos = code.rfind("gemm", open);
      const bool member =
          name_pos > 0 && (code[name_pos - 1] == '.' ||
                           (code[name_pos - 1] == '>' && name_pos > 1 &&
                            code[name_pos - 2] == '-'));
      if (!member) continue;
      if (model.blessed(i, "untagged-ok")) continue;
      findings.push_back(
          {path, i + 1, "untagged-gemm",
           "raw untagged gemm call clobbers the resident set; use "
           "gemm_resident or annotate with // tcu-lint: "
           "untagged-ok(<reason>)"});
    }

    // [raw-backend]: the seam is charged inside Device::issue() only.
    if (!backend_seam_file(path)) {
      for (std::size_t hit = 0; hit < find_backend_derefs(code).size();
           ++hit) {
        if (model.blessed(i, "backend-ok")) continue;
        findings.push_back(
            {path, i + 1, "raw-backend",
             "raw backend-> dereference bypasses the Device::issue() "
             "accounting (model cost and wall clock); route the call "
             "through the device or annotate with // tcu-lint: "
             "backend-ok(<reason>)"});
      }
    }

    // [missing-anchor]: the key expression of a gemm_resident call, or
    // the chain of a submit's TaskSpec.
    for (const char* callee : {"gemm_resident", "submit"}) {
      for (const std::size_t open : find_calls(code, callee)) {
        std::string keys = call_args(lines, i, open);
        if (callee == std::string("submit") &&
            !spec_field(spec_literal(keys), "chain", keys)) {
          continue;
        }
        if (!derives_key(keys)) continue;
        if (file_has_evict_all) continue;
        if (model.blessed(i, "anchored-ok")) continue;
        findings.push_back(
            {path, i + 1, "missing-anchor",
             std::string(callee) +
                 " derives a generation-dependent key at the call site "
                 "but this file never re-anchors with evict_all; stale "
                 "keys would alias fresh content (annotate with // "
                 "tcu-lint: anchored-ok(<reason>) if anchoring happens "
                 "elsewhere)"});
      }
    }
  }

  // ---- per-function rules ---------------------------------------------
  std::vector<Finding> flow;
  for (const Function& fn : model.functions) {
    std::vector<const Statement*> stmts;
    stmts.reserve(fn.stmts.size());
    for (const std::size_t si : fn.stmts) {
      stmts.push_back(&model.statements[si]);
    }
    function_rules(model, stmts, flow);
  }
  // Statements outside any function (fixture snippets, file-scope code)
  // form an implicit function so self-test sources need no wrappers.
  {
    std::vector<const Statement*> stmts;
    for (const Statement& s : model.statements) {
      if (s.func == npos && !s.func_header) stmts.push_back(&s);
    }
    if (!stmts.empty()) function_rules(model, stmts, flow);
  }
  std::sort(flow.begin(), flow.end(), [](const Finding& a, const Finding& b) {
    return a.line < b.line;
  });
  findings.insert(findings.end(), flow.begin(), flow.end());

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
  for (Finding& f : findings) {
    if (f.line >= 1 && f.line <= lines.size()) {
      f.context = strip_spaces(lines[f.line - 1].code);
    }
  }
  return findings;
}

}  // namespace tcu_analyze
