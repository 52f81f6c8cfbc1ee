#pragma once
// tcu_analyze self-test — embedded fixtures for every rule (seeded
// violations and clean counterparts), the lexer regression fixtures
// (raw strings, line continuations), statement-anchored annotation
// adjacency, and a rule-coverage check. Run with `tcu_lint --self-test`.

namespace tcu_analyze {

/// Returns 0 when every fixture and programmatic check passes.
int self_test();

}  // namespace tcu_analyze
