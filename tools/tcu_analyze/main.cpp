// tcu_lint — static analyzer for the (m, l)-TCU runtime contracts. Two
// passes: tools/tcu_analyze/lexer+model build a statement-ordered,
// function-scoped model of each translation unit; tools/tcu_analyze/rules
// runs the line rules (untagged-gemm, missing-anchor, raw-backend) and
// the per-function rules (chain-thrash, uncharged-compute) over it.
// Findings print in the classic text format and optionally as SARIF
// 2.1.0. Any finding fails the run.
//
// Usage:
//   tcu_lint [--sarif <out.sarif>] <file-or-directory>...
//   tcu_lint --self-test
//
// Exit codes: 0 clean, 1 findings, 2 usage/IO.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "rules.hpp"
#include "sarif.hpp"
#include "selftest.hpp"

namespace {

bool lintable(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc" ||
         ext == ".cxx" || ext == ".hxx";
}

int usage() {
  std::cerr << "usage: tcu_lint [--sarif <out>] <file-or-directory>... | "
               "--self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!args.empty() && args[0] == "--self-test") {
    return tcu_analyze::self_test();
  }

  std::string sarif_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--sarif") {
      if (i + 1 >= args.size()) return usage();
      sarif_path = args[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      inputs.push_back(arg);
    }
  }
  if (inputs.empty()) return usage();

  std::vector<std::filesystem::path> files;
  for (const std::string& arg : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(arg, ec)) {
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(arg, ec)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          files.push_back(entry.path());
        }
      }
      if (ec) {
        std::cerr << "tcu_lint: cannot walk " << arg << ": " << ec.message()
                  << "\n";
        return 2;
      }
    } else if (std::filesystem::is_regular_file(arg, ec)) {
      files.push_back(arg);
    } else {
      std::cerr << "tcu_lint: no such file or directory: " << arg << "\n";
      return 2;
    }
  }
  std::sort(files.begin(), files.end());

  std::vector<tcu_analyze::Finding> findings;
  for (const auto& file : files) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "tcu_lint: cannot read " << file << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<tcu_analyze::Finding> file_findings =
        tcu_analyze::scan_source(file.string(), text.str());
    findings.insert(findings.end(), file_findings.begin(),
                    file_findings.end());
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "tcu_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << tcu_analyze::to_sarif(findings);
  }

  for (const tcu_analyze::Finding& f : findings) {
    std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
  }
  std::cout << "tcu_lint: " << files.size() << " files scanned, "
            << findings.size() << " finding"
            << (findings.size() == 1 ? "" : "s") << "\n";
  return findings.empty() ? 0 : 1;
}
