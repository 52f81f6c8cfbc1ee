#pragma once
// tcu_analyze SARIF — the CI-facing output layer. Findings are serialized
// as SARIF 2.1.0 for github/codeql-action/upload-sarif PR annotations.
// No third-party JSON dependency: the writer is hand-rolled, and the
// `tcu_lint_sarif` CTest parses its output with CMake's string(JSON).

#include <string>
#include <vector>

#include "rules.hpp"

namespace tcu_analyze {

/// SARIF 2.1.0 document: the full rule table and one result per finding.
std::string to_sarif(const std::vector<Finding>& findings);

}  // namespace tcu_analyze
