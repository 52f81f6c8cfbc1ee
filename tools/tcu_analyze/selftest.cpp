#include "selftest.hpp"

#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"
#include "sarif.hpp"

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
      {"epoch-file-chain-without-after",
       "exec.submit({.cost = cost, .chain = {key}}, task);\n"
       "exec.join_epoch();\n"
       "exec.evict_all();\n",
       {"epoch-deps"},
       {}},
      {"epoch-file-chain-with-after",
       "exec.submit({.cost = cost, .chain = {key}, .after = {prev.serial}},\n"
       "            task);\n"
       "exec.join_epoch();\n"
       "exec.evict_all();\n",
       {},
       {}},
      {"epoch-file-chain-annotated",
       "// tcu-lint: epoch-free-ok(fence-ordered: one level per epoch)\n"
       "exec.submit({.cost = cost, .chain = {key}}, task);\n"
       "exec.join_epoch();\n"
       "exec.evict_all();\n",
       {},
       {}},
      {"epoch-file-empty-chain-is-untagged",
       "exec.submit({.cost = cost, .chain = {}}, task);\n"
       "exec.submit({.cost = cost, .cpu = true}, task);\n"
       "exec.join_epoch();\n",
       {},
       {}},
      {"barrier-file-chain-exempt",
       "exec.submit({.cost = cost, .chain = {key}}, task);\n"
       "exec.join();\n"
       "exec.evict_all();\n",
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
      {"epoch-free-needs-reason",
       "exec.submit({.cost = cost, .chain = {key}}, task);  "
       "// tcu-lint: epoch-free-ok()\n"
       "exec.join_epoch();\n"
       "exec.evict_all();\n",
       {"annotation", "epoch-deps"},
       {}},

      // ---- lexer regressions: raw strings ------------------------------
      {"raw-string-gemm-ignored",
       "log(R\"(calling d.gemm(a, b, c))\");\n",
       {},
       {}},
      {"raw-string-delimited-ignored",
       "const char* s = R\"x(exec.submit({.chain = {k}}, t);)x\";\n"
       "exec.join_epoch();\n",
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
       "exec.submit({.cost = cost, .chain = {key}},\n"
       "            // tcu-lint: epoch-free-ok(fence covers the level)\n"
       "            task);\n"
       "exec.join_epoch();\n"
       "exec.evict_all();\n",
       {},
       {}},

      // ---- [stale-ticket] ----------------------------------------------
      // Mirrors tests/test_epoch.cpp ForwardDependencyIsRejected: the
      // runtime throws std::invalid_argument on forward deps, and a
      // pre-fence serial used after join_epoch() is the static shadow of
      // that dynamic contract (the fence already ordered the work).
      {"stale-ticket-across-fence",
       "const TaskTicket t0 = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.join_epoch();\n"
       "exec.submit({.cost = 1, .after = {t0.serial}, .cpu = true}, task);\n",
       {"stale-ticket"},
       {3}},
      {"stale-ticket-via-push-back",
       "TaskTicket prev;\n"
       "prev = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.join_epoch();\n"
       "TaskSpec spec{.cost = 1, .cpu = true};\n"
       "spec.after.push_back(prev.serial);\n"
       "exec.submit(std::move(spec), task);\n",
       {"stale-ticket"},
       {5}},
      {"stale-ticket-clean-use-before-fence",
       "const TaskTicket t0 = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.submit({.cost = 1, .after = {t0.serial}, .cpu = true}, task);\n"
       "exec.join_epoch();\n",
       {},
       {}},
      {"stale-ticket-clean-reassigned-after-fence",
       "TaskTicket t;\n"
       "t = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.join_epoch();\n"
       "t = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.submit({.cost = 1, .after = {t.serial}, .cpu = true}, task);\n",
       {},
       {}},
      {"stale-ticket-annotated",
       "const TaskTicket t0 = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.join_epoch();\n"
       "// tcu-lint: stale-ticket-ok(redundant dep kept for the checker)\n"
       "exec.submit({.cost = 1, .after = {t0.serial}, .cpu = true}, task);\n",
       {},
       {}},

      // ---- [dead-ticket] -----------------------------------------------
      {"dead-ticket-scalar",
       "const TaskTicket t = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.join();\n",
       {"dead-ticket"},
       {1}},
      {"dead-ticket-vector",
       "std::vector<TaskTicket> tickets;\n"
       "tickets.push_back(exec.submit({.cost = cost, .chain = {key}}, "
       "task));\n"
       "exec.join();\n",
       {"dead-ticket"},
       {2}},
      {"dead-ticket-clean-consumed",
       "const TaskTicket t = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.submit({.cost = 1, .after = {t.serial}, .cpu = true}, task);\n",
       {},
       {}},
      {"dead-ticket-clean-returned",
       "std::vector<TaskTicket> tickets;\n"
       "tickets.reserve(4);\n"
       "tickets.push_back(exec.submit({.cost = 1, .cpu = true}, task));\n"
       "return tickets;\n",
       {},
       {}},
      {"dead-ticket-annotated",
       "// tcu-lint: dead-ticket-ok(fire-and-forget warmup; join fences "
       "it)\n"
       "const TaskTicket t = exec.submit({.cost = 1, .cpu = true}, task);\n",
       {},
       {}},

      // ---- [ticket-before-def] -------------------------------------------
      {"ticket-before-def-scalar",
       "TaskTicket t;\n"
       "exec.submit({.cost = 1, .after = {t.serial}, .cpu = true}, task);\n"
       "t = exec.submit({.cost = 1, .cpu = true}, task);\n",
       {"ticket-before-def"},
       {2}},
      {"ticket-before-def-vector",
       "std::vector<TaskTicket> prev(n);\n"
       "spec.after.push_back(prev[0].serial);\n"
       "prev[0] = exec.submit(spec, task);\n",
       {"ticket-before-def"},
       {2}},
      {"ticket-before-def-clean-guarded",
       "std::vector<TaskTicket> prev(n);\n"
       "for (std::size_t k = 0; k < n; ++k) {\n"
       "  if (k > 0) spec.after.push_back(prev[k - 1].serial);\n"
       "  prev[k] = exec.submit(spec, task);\n"
       "}\n",
       {},
       {}},
      {"ticket-before-def-clean-assigned-at-decl",
       "const TaskTicket t = exec.submit({.cost = 1, .cpu = true}, task);\n"
       "exec.submit({.cost = 1, .after = {t.serial}, .cpu = true}, task);\n",
       {},
       {}},
      {"ticket-before-def-annotated",
       "TaskTicket t;\n"
       "// tcu-lint: ticket-before-def-ok(serial 0 is the always-ready "
       "sentinel)\n"
       "exec.submit({.cost = 1, .after = {t.serial}, .cpu = true}, task);\n",
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

/// The generated SARIF must parse back as JSON with the 2.1.0 shape:
/// one run, the full rule table, one result per finding.
int check_sarif() {
  const Fixture& seeded = fixtures()[1];  // raw-gemm-flagged
  const std::vector<Finding> findings =
      scan_source(seeded.name, seeded.source);
  const std::string sarif = to_sarif(findings, {});
  Json doc;
  if (!json_parse(sarif, doc)) {
    std::cerr << "self-test FAILED: SARIF output is not valid JSON\n";
    return 1;
  }
  const Json* version = doc.find("version");
  const Json* runs = doc.find("runs");
  if (version == nullptr || version->str != "2.1.0" || runs == nullptr ||
      runs->type != Json::Type::kArray || runs->array.size() != 1) {
    std::cerr << "self-test FAILED: SARIF version/runs shape\n";
    return 1;
  }
  const Json& run = runs->array[0];
  const Json* tool = run.find("tool");
  const Json* driver = tool != nullptr ? tool->find("driver") : nullptr;
  const Json* rules = driver != nullptr ? driver->find("rules") : nullptr;
  if (rules == nullptr || rules->array.size() != rule_catalog().size()) {
    std::cerr << "self-test FAILED: SARIF rule table incomplete\n";
    return 1;
  }
  const Json* results = run.find("results");
  if (results == nullptr || results->array.size() != findings.size()) {
    std::cerr << "self-test FAILED: SARIF results do not match findings\n";
    return 1;
  }
  const Json* rule_id = results->array[0].find("ruleId");
  if (rule_id == nullptr || rule_id->str != "untagged-gemm") {
    std::cerr << "self-test FAILED: SARIF ruleId mismatch\n";
    return 1;
  }
  return 0;
}

/// The baseline must round-trip, suppress known findings, and flag a
/// seeded regression as new — the contract the CI gate relies on.
int check_baseline_gate() {
  const std::string base_src = "void f(Dev& d) { d.gemm(a, b, c); }\n";
  const std::vector<Finding> before =
      scan_source("src/linalg/fixture.hpp", base_src);
  if (before.size() != 1) {
    std::cerr << "self-test FAILED: baseline fixture expected 1 finding\n";
    return 1;
  }
  std::vector<BaselineEntry> entries;
  for (const Finding& f : before) entries.push_back(baseline_identity(f));
  const std::string text = write_baseline(entries);
  std::vector<BaselineEntry> parsed;
  if (!parse_baseline(text, parsed) || parsed.size() != entries.size()) {
    std::cerr << "self-test FAILED: baseline does not round-trip\n";
    return 1;
  }
  const std::vector<bool> unchanged = match_baseline(before, parsed);
  for (const bool is_new : unchanged) {
    if (is_new) {
      std::cerr << "self-test FAILED: baselined finding reported as new\n";
      return 1;
    }
  }
  // Seed a regression: a second raw gemm the baseline has never seen.
  const std::string regressed =
      base_src + "void g(Dev& d) { d.gemm(x, y, z); }\n";
  const std::vector<Finding> after =
      scan_source("src/linalg/fixture.hpp", regressed);
  const std::vector<bool> flags = match_baseline(after, parsed);
  std::size_t fresh = 0;
  for (const bool is_new : flags) fresh += is_new ? 1 : 0;
  if (after.size() != 2 || fresh != 1) {
    std::cerr << "self-test FAILED: seeded regression not gated "
              << "(findings=" << after.size() << ", new=" << fresh << ")\n";
    return 1;
  }
  // An empty baseline must report everything as new.
  const std::vector<bool> no_base = match_baseline(after, {});
  for (const bool is_new : no_base) {
    if (!is_new) {
      std::cerr << "self-test FAILED: empty baseline suppressed a "
                << "finding\n";
      return 1;
    }
  }
  return 0;
}

}  // namespace

int self_test() {
  int failures = run_fixtures();
  failures += check_rule_coverage();
  failures += check_sarif();
  failures += check_baseline_gate();
  if (failures == 0) {
    std::cout << "tcu_lint self-test: " << fixtures().size()
              << " fixtures + rule coverage/sarif/baseline checks passed\n";
    return 0;
  }
  std::cerr << "tcu_lint self-test: " << failures << " check"
            << (failures == 1 ? "" : "s") << " failed\n";
  return 1;
}

}  // namespace tcu_analyze
