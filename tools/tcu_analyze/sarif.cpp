#include "sarif.hpp"

#include <cstdio>
#include <sstream>

namespace tcu_analyze {

namespace {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Repo-relative form of a scan path: the suffix starting at the first
/// `src/` / `tools/` / `tests/` path component, else the path as given.
std::string norm_path(const std::string& path) {
  for (const char* root : {"src/", "tools/", "tests/"}) {
    const std::size_t pos = path.find(root);
    if (pos != std::string::npos && (pos == 0 || path[pos - 1] == '/')) {
      return path.substr(pos);
    }
  }
  if (path.rfind("./", 0) == 0) return path.substr(2);
  return path;
}

}  // namespace

std::string to_sarif(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n    {\n      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"tcu_lint\",\n"
      << "          \"informationUri\": "
         "\"https://github.com/tcu/tcu#static-analysis\",\n"
      << "          \"rules\": [";
  const std::vector<RuleInfo>& catalog = rule_catalog();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "            {\"id\": \"" << json_escape(catalog[i].id)
        << "\", \"shortDescription\": {\"text\": \""
        << json_escape(catalog[i].summary) << "\"}}";
  }
  out << "\n          ]\n        }\n      },\n      \"results\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\"ruleId\": \"" << json_escape(f.rule)
        << "\", \"level\": \"error\", \"message\": {\"text\": \""
        << json_escape(f.message) << "\"}, \"locations\": [{"
        << "\"physicalLocation\": {\"artifactLocation\": {\"uri\": \""
        << json_escape(norm_path(f.path))
        << "\"}, \"region\": {\"startLine\": " << f.line << "}}}], "
        << "\"partialFingerprints\": {\"tcuLintContext/v1\": \""
        << json_escape(f.context) << "\"}}";
  }
  out << "\n      ]\n    }\n  ]\n}\n";
  return out.str();
}

}  // namespace tcu_analyze
