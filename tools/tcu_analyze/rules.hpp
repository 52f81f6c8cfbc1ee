#pragma once
// tcu_analyze rules — pass 2 of the analyzer. Runs the line rules
// (untagged-gemm, missing-anchor, raw-backend, epoch-deps) plus the
// dataflow rules the line lexer could not express:
//
//   [stale-ticket]      a ticket assigned before a join_epoch() fence and
//                       passed as a dependency after it — the fence
//                       already orders the work, so the dep is at best
//                       redundant and at worst a stale serial that hides
//                       the real predecessor.
//   [dead-ticket]       a ticket captured from submit but never consumed
//                       before the enclosing strict join() — the overlap
//                       the ticket could declare is silently lost.
//   [ticket-before-def] an unguarded use of a ticket variable before any
//                       submit assigns it (a default ticket's serial 0 is
//                       "always ready" — almost never what was meant).
//   [chain-thrash]      a declared chain statically longer than the
//                       statically-known Config::resident_tiles at the
//                       same call site, without split_chains.
//   [uncharged-compute] an arithmetic loop over tile_view/strip_view/
//                       tile_data outside a submitted task and the
//                       backend-seam files — work the cost model never
//                       charges.

#include <cstddef>
#include <string>
#include <vector>

#include "model.hpp"

namespace tcu_analyze {

struct Finding {
  Finding() = default;
  Finding(std::string p, std::size_t l, std::string r, std::string m)
      : path(std::move(p)),
        line(l),
        rule(std::move(r)),
        message(std::move(m)) {}

  std::string path;
  std::size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
  /// Whitespace-stripped code of the finding line — the baseline matches
  /// on (rule, path, context), so findings survive line-number drift.
  std::string context;
};

struct RuleInfo {
  const char* id;
  const char* summary;
};

/// Every rule the analyzer can emit, for the SARIF rule table.
const std::vector<RuleInfo>& rule_catalog();

/// Lex + model + all rules over one translation unit. Findings are
/// ordered by line; same-line findings keep annotation errors first.
std::vector<Finding> scan_source(const std::string& path,
                                 const std::string& text);

}  // namespace tcu_analyze
