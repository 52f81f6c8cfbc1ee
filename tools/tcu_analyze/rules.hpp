#pragma once
// tcu_analyze rules — pass 2 of the analyzer. Runs the line rules
// (untagged-gemm, missing-anchor, raw-backend) plus the
// per-function rules the line lexer could not express:
//
//   [chain-thrash]      a declared chain statically longer than the
//                       statically-known Config::resident_tiles at the
//                       same call site, without split_chains.
//   [uncharged-compute] an arithmetic loop over tile_view/strip_view/
//                       tile_data outside a submitted task and the
//                       backend-seam files — work the cost model never
//                       charges.
//
// Task-dependency misuse (a null, pre-join or not-yet-issued ticket in
// TaskSpec::after) needs no rule: PoolExecutor::submit rejects it.

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
  /// Whitespace-stripped code of the finding line — the SARIF partial
  /// fingerprint, so code scanning tracks findings across line drift.
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
