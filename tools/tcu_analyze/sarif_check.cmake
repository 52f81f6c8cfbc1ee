# Checks tcu_lint's SARIF output with CMake's own JSON parser: lint a
# seeded source with exactly one raw gemm and require SARIF 2.1.0 with
# one run, a non-empty rule table, and one `untagged-gemm` result.
#
#   cmake -DTCU_LINT=<path/to/tcu_lint> -DWORK_DIR=<scratch dir> \
#         -P tools/tcu_analyze/sarif_check.cmake

file(MAKE_DIRECTORY "${WORK_DIR}")
set(seeded "${WORK_DIR}/seeded.cpp")
set(sarif "${WORK_DIR}/seeded.sarif")
file(WRITE "${seeded}" "void f(Dev& d) { d.gemm(a, b, c); }\n")
execute_process(COMMAND "${TCU_LINT}" --sarif "${sarif}" "${seeded}"
                RESULT_VARIABLE status OUTPUT_QUIET)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "tcu_lint exited ${status}; expected 1 (one finding)")
endif()

file(READ "${sarif}" doc)
string(JSON version GET "${doc}" version)
string(JSON runs LENGTH "${doc}" runs)
string(JSON rules LENGTH "${doc}" runs 0 tool driver rules)
string(JSON results LENGTH "${doc}" runs 0 results)
string(JSON rule_id GET "${doc}" runs 0 results 0 ruleId)
if(NOT version STREQUAL "2.1.0" OR NOT runs EQUAL 1 OR rules EQUAL 0 OR
   NOT results EQUAL 1 OR NOT rule_id STREQUAL "untagged-gemm")
  message(FATAL_ERROR "unexpected SARIF: version=${version} runs=${runs} "
                      "rules=${rules} results=${results} ruleId=${rule_id}")
endif()
