#include "selftest.hpp"

#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"

namespace tcu_analyze {

namespace {

struct Fixture {
  const char* name;
  const char* source;
  std::vector<std::string> expected_rules;  // in line order
  std::vector<std::size_t> expected_lines;  // 1-based; empty = unchecked
};

const std::vector<Fixture>& fixtures() {
  static const std::vector<Fixture> all = {
      // ---- PR 6 line rules (ported verbatim) ---------------------------
      {"clean-tagged",
       "void f(Dev& d) {\n"
       "  d.gemm_resident(key, a, b, c);\n"
       "  d.evict_all();\n"
       "}\n",
       {},
       {}},
      {"raw-gemm-flagged",
       "void f(Dev& d) { d.gemm(a, b, c); }\n",
       {"untagged-gemm"},
       {}},
      {"raw-gemm-arrow-flagged",
       "void f(Dev* d) { d->gemm(a, b, c); }\n",
       {"untagged-gemm"},
       {}},
      {"raw-gemm-annotated-same-line",
       "d.gemm(a, b, c);  // tcu-lint: untagged-ok(cold-stream baseline)\n",
       {},
       {}},
      {"raw-gemm-annotated-line-above",
       "// tcu-lint: untagged-ok(operand changes every call)\n"
       "d.gemm(a, b, c);\n",
       {},
       {}},
      {"annotation-needs-reason",
       "d.gemm(a, b, c);  // tcu-lint: untagged-ok()\n",
       {"annotation", "untagged-gemm"},
       {}},
      {"annotation-unknown-kind",
       "d.gemm(a, b, c);  // tcu-lint: whatever-ok(reason)\n",
       {"annotation", "untagged-gemm"},
       {}},
      {"annotation-retired-kind",  // its rule is enforced by submit now
       "// tcu-lint: stale-ticket-ok(redundant dep kept for the checker)\n"
       "exec.submit({.cost = 1, .after = {t0}, .cpu = true}, task);\n",
       {"annotation"},
       {1}},
      {"annotation-retired-epoch-kind",  // stages are ordered by tickets now
       "// tcu-lint: epoch-free-ok(fence-ordered: one level per stage)\n"
       "exec.submit({.cost = cost, .chain = {key}}, task);\n",
       {"annotation"},
       {1}},
      {"gemm-in-comment-ignored",
       "// an untagged d.gemm(a, b, c) would clobber\n"
       "int x = 0;\n",
       {},
       {}},
      {"gemm-in-string-ignored",
       "log(\"calling d.gemm(a, b, c)\");\n",
       {},
       {}},
      {"gemm-resident-not-matched",
       "d.gemm_resident(key, a, b, c);\n"
       "d.evict_all();\n",
       {},
       {}},
      {"nonempty-chain-clean",
       "exec.submit({.cost = cost, .chain = {key}}, [](Dev& u) { run(u); });\n"
       "exec.evict_all();\n",
       {},
       {}},
      {"derived-key-without-anchor",
       "d.gemm_resident(panel_key(kb, jb), a, b, c);\n",
       {"missing-anchor"},
       {}},
      {"derived-key-with-anchor",
       "d.evict_all();\n"
       "d.gemm_resident(panel_key(kb, jb), a, b, c);\n",
       {},
       {}},
      {"derived-key-annotated",
       "// tcu-lint: anchored-ok(caller anchors per generation)\n"
       "d.gemm_resident(panel_key(kb, jb), a, b, c);\n",
       {},
       {}},
      {"make-tile-key-exempt",
       "d.gemm_resident(make_tile_key(kTag, id), a, b, c);\n",
       {},
       {}},
      {"derived-key-in-chain",
       "exec.submit({.cost = cost, .chain = {panel_key(kb, jb)}}, task);\n",
       {"missing-anchor"},
       {}},
      {"derived-key-outside-chain-ignored",
       "exec.submit({.cost = cost, .cpu = true},\n"
       "            [](Dev& u) { log(panel_key(kb, jb)); });\n",
       {},
       {}},
      {"raw-backend-flagged",
       "void f() { backend_->run(a, b, c, false, ctr); }\n",
       {"raw-backend"},
       {}},
      {"raw-backend-member-flagged",
       "void f(Unit& u) { u.gemm_backend->run(a, b, c, false, ctr); }\n",
       {"raw-backend"},
       {}},
      {"raw-backend-annotated",
       "// tcu-lint: backend-ok(test drives the raw kernel deliberately)\n"
       "backend_->run(a, b, c, false, ctr);\n",
       {},
       {}},
      {"raw-backend-longer-identifier-clean",
       "void f() { backend_name(); backend_kind = x; }\n",
       {},
       {}},
      {"src/core/device.hpp",  // the accounting choke point is exempt
       "void issue() { backend_->run(A, B, C, accumulate, counters_); }\n",
       {},
       {}},
      {"src/core/backend_micro.cpp",  // as are the implementations
       "void warm() { backend_->run(a, b, c, false, ctr); }\n",
       {},
       {}},

      // ---- lexer regressions: raw strings ------------------------------
      {"raw-string-gemm-ignored",
       "log(R\"(calling d.gemm(a, b, c))\");\n",
       {},
       {}},
      {"raw-string-delimited-ignored",  // `)"` does not end an R"x( string
       "const char* s = "
       "R\"x(log(\")\"); exec.submit({.chain = {panel_key(k, j)}}, t);)x\";\n",
       {},
       {}},
      {"raw-string-terminates-correctly",
       "const char* s = R\"(some \"quoted\" text)\";\n"
       "d.gemm(a, b, c);\n",
       {"untagged-gemm"},
       {2}},
      {"raw-string-multiline-keeps-line-numbers",
       "const char* s = R\"(first\n"
       "second)\";\n"
       "d.gemm(a, b, c);\n",
       {"untagged-gemm"},
       {3}},

      // ---- lexer regressions: backslash line continuations -------------
      {"line-continuation-extends-comment",
       "// this comment continues \\\n"
       "d.gemm(inside_the_comment);\n"
       "d.gemm(a, b, c);\n",
       {"untagged-gemm"},
       {3}},
      {"line-continuation-in-string-keeps-line-numbers",
       "log(\"split \\\n"
       "string\");\n"
       "d.gemm(a, b, c);\n",
       {"untagged-gemm"},
       {3}},

      // ---- statement-anchored annotations ------------------------------
      {"annotation-above-closing-paren",
       "d.gemm(a,\n"
       "       b,\n"
       "       // tcu-lint: untagged-ok(cold stream; operand never "
       "reused)\n"
       "       c);\n",
       {},
       {}},
      {"annotation-inside-multiline-call",
       "exec.submit({.cost = cost, .chain = {panel_key(kb, jb)}},\n"
       "            // tcu-lint: anchored-ok(caller anchors per generation)\n"
       "            task);\n",
       {},
       {}},

      // ---- [chain-thrash] ------------------------------------------------
      {"chain-thrash-static-capacity",
       "Config cfg;\n"
       "cfg.resident_tiles = 1;\n"
       "exec.submit({.cost = cost, .chain = {k0, k1}}, task);\n",
       {"chain-thrash"},
       {3}},
      {"chain-thrash-designated-init",
       "PoolExecutor<double> exec(p, Config{.resident_tiles = 2});\n"
       "exec.submit({.cost = cost, .chain = {a, b, c}}, task);\n",
       {"chain-thrash"},
       {2}},
      {"chain-thrash-clean-fits",
       "Config cfg;\n"
       "cfg.resident_tiles = 2;\n"
       "exec.submit({.cost = cost, .chain = {k0, k1}}, task);\n",
       {},
       {}},
      {"chain-thrash-clean-split-chains",
       "Config cfg;\n"
       "cfg.resident_tiles = 1;\n"
       "const auto parts = split_chains(chain, cfg.resident_tiles);\n"
       "exec.submit({.cost = cost, .chain = {k0, k1}}, task);\n",
       {},
       {}},
      {"chain-thrash-annotated",
       "Config cfg;\n"
       "cfg.resident_tiles = 1;\n"
       "// tcu-lint: chain-thrash-ok(thrash bench: measures the reload "
       "cliff)\n"
       "exec.submit({.cost = cost, .chain = {k0, k1}}, task);\n",
       {},
       {}},

      // ---- [uncharged-compute] -------------------------------------------
      {"uncharged-compute-for-loop",
       "for (std::size_t i = 0; i < n; ++i) {\n"
       "  acc += A.tile_view(ti, tj)[i] * s;\n"
       "}\n",
       {"uncharged-compute"},
       {2}},
      {"uncharged-compute-while-loop",
       "while (i < n) {\n"
       "  out[i] = B.strip_view(tj)[i] + bias;\n"
       "  ++i;\n"
       "}\n",
       {"uncharged-compute"},
       {2}},
      {"uncharged-compute-clean-inside-cpu-task",
       "exec.submit({.cost = cost, .cpu = true}, [&](Device<double>& u) {\n"
       "  for (std::size_t i = 0; i < n; ++i) acc += A.tile_view(ti, "
       "tj)[i] * s;\n"
       "});\n",
       {},
       {}},
      {"uncharged-compute-clean-charged-function",
       "for (std::size_t i = 0; i < n; ++i) acc += A.tile_view(ti, tj)[i] "
       "* s;\n"
       "ctx.charge_cpu(n);\n",
       {},
       {}},
      {"src/core/matrix.hpp",  // the storage layer is the charged seam
       "for (std::size_t i = 0; i < n; ++i) acc += tile_view(ti, tj)[i] * "
       "s;\n",
       {},
       {}},
      {"uncharged-compute-annotated",
       "// tcu-lint: uncharged-ok(diagnostic checksum, not modeled work)\n"
       "for (std::size_t i = 0; i < n; ++i) acc += A.tile_view(ti, tj)[i] "
       "* s;\n",
       {},
       {}},
  };
  return all;
}

int run_fixtures() {
  int failures = 0;
  for (const Fixture& fixture : fixtures()) {
    const std::vector<Finding> findings =
        scan_source(fixture.name, fixture.source);
    std::vector<std::string> rules;
    std::vector<std::size_t> fnd_lines;
    rules.reserve(findings.size());
    for (const Finding& f : findings) {
      rules.push_back(f.rule);
      fnd_lines.push_back(f.line);
    }
    const bool lines_ok = fixture.expected_lines.empty() ||
                          fnd_lines == fixture.expected_lines;
    if (rules != fixture.expected_rules || !lines_ok) {
      ++failures;
      std::ostringstream want, got;
      for (const auto& r : fixture.expected_rules) want << r << " ";
      for (const auto& r : rules) got << r << " ";
      std::cerr << "self-test FAILED: " << fixture.name << "\n  expected: "
                << want.str() << "\n  got:      " << got.str() << "\n";
      for (const Finding& f : findings) {
        std::cerr << "    " << f.path << ":" << f.line << ": [" << f.rule
                  << "] " << f.message << "\n";
      }
    }
  }
  return failures;
}

/// Every catalog rule must fire on at least one fixture. A rule keyed to
/// an API spelling that no longer exists goes silent on real code; this
/// turns that silence into a self-test failure.
int check_rule_coverage() {
  std::set<std::string> fired;
  for (const Fixture& fixture : fixtures()) {
    for (const Finding& f : scan_source(fixture.name, fixture.source)) {
      fired.insert(f.rule);
    }
  }
  int failures = 0;
  for (const RuleInfo& rule : rule_catalog()) {
    if (fired.count(rule.id) == 0) {
      ++failures;
      std::cerr << "self-test FAILED: no fixture fires rule [" << rule.id
                << "]\n";
    }
  }
  return failures;
}

}  // namespace

int self_test() {
  const int failures = run_fixtures() + check_rule_coverage();
  if (failures == 0) {
    std::cout << "tcu_lint self-test: " << fixtures().size()
              << " fixtures + rule coverage check passed\n";
    return 0;
  }
  std::cerr << "tcu_lint self-test: " << failures << " check"
            << (failures == 1 ? "" : "s") << " failed\n";
  return 1;
}

}  // namespace tcu_analyze
