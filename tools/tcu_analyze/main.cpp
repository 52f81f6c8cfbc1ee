// tcu_lint — dataflow-aware static analyzer for the (m, l)-TCU runtime
// contracts. Two passes: tools/tcu_analyze/lexer+model build a
// statement-ordered, function-scoped model of each translation unit;
// tools/tcu_analyze/rules runs the line rules (untagged-gemm,
// missing-anchor, raw-backend, epoch-deps) and the
// dataflow rules (stale-ticket, dead-ticket, ticket-before-def,
// chain-thrash, uncharged-compute) over it. Findings print in the
// classic text format and optionally as SARIF 2.1.0; a checked-in
// baseline makes the exit status gate on *new* findings only.
//
// Usage:
//   tcu_lint [options] <file-or-directory>...
//   tcu_lint --self-test
//
// Options:
//   --sarif <out.sarif>        write all findings as SARIF 2.1.0
//   --baseline <file.json>     suppress findings matched by the baseline;
//                              exit 1 only on new ones
//   --write-baseline <file>    write the current findings as a baseline
//                              and exit 0
//
// Exit codes: 0 clean (or fully baselined), 1 new findings, 2 usage/IO.

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
  std::cerr << "usage: tcu_lint [--sarif <out>] [--baseline <file>] "
               "[--write-baseline <file>] <file-or-directory>... | "
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
  std::string baseline_path;
  std::string write_baseline_path;
  std::vector<std::string> inputs;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--sarif" || arg == "--baseline" ||
        arg == "--write-baseline") {
      if (i + 1 >= args.size()) return usage();
      std::string& slot = arg == "--sarif" ? sarif_path
                          : arg == "--baseline" ? baseline_path
                                                : write_baseline_path;
      slot = args[++i];
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

  if (!write_baseline_path.empty()) {
    std::vector<tcu_analyze::BaselineEntry> entries;
    entries.reserve(findings.size());
    for (const tcu_analyze::Finding& f : findings) {
      entries.push_back(tcu_analyze::baseline_identity(f));
    }
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "tcu_lint: cannot write " << write_baseline_path << "\n";
      return 2;
    }
    out << tcu_analyze::write_baseline(entries);
    std::cout << "tcu_lint: wrote baseline with " << entries.size()
              << " finding" << (entries.size() == 1 ? "" : "s") << " to "
              << write_baseline_path << "\n";
    return 0;
  }

  std::vector<bool> is_new;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "tcu_lint: cannot read baseline " << baseline_path
                << "\n";
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::vector<tcu_analyze::BaselineEntry> baseline;
    if (!tcu_analyze::parse_baseline(text.str(), baseline)) {
      std::cerr << "tcu_lint: malformed baseline " << baseline_path << "\n";
      return 2;
    }
    is_new = tcu_analyze::match_baseline(findings, baseline);
  }

  if (!sarif_path.empty()) {
    std::ofstream out(sarif_path);
    if (!out) {
      std::cerr << "tcu_lint: cannot write " << sarif_path << "\n";
      return 2;
    }
    out << tcu_analyze::to_sarif(findings, is_new);
  }

  std::size_t shown = 0;
  std::size_t suppressed = 0;
  for (std::size_t i = 0; i < findings.size(); ++i) {
    if (!is_new.empty() && !is_new[i]) {
      ++suppressed;
      continue;
    }
    const tcu_analyze::Finding& f = findings[i];
    std::cout << f.path << ":" << f.line << ": [" << f.rule << "] "
              << f.message << "\n";
    ++shown;
  }
  std::cout << "tcu_lint: " << files.size() << " files scanned, " << shown
            << " finding" << (shown == 1 ? "" : "s");
  if (suppressed > 0) {
    std::cout << " (" << suppressed << " baselined)";
  }
  std::cout << "\n";
  return shown == 0 ? 0 : 1;
}
