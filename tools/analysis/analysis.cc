#include "analysis/analysis.h"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "analysis/lexer.h"
#include "analysis/lexical.h"
#include "analysis/locks.h"
#include "analysis/taint.h"
#include "util/json.h"

namespace dtrec::analysis {
namespace {

struct RuleInfo {
  const char* id;
  const char* description;  // SARIF shortDescription
};

constexpr RuleInfo kRules[] = {
    {"propensity-taint",
     "Unclipped propensity value reaches a division/log/pow sink"},
    {"layering-upward", "Include crosses the module DAG upward"},
    {"layering-cycle", "Module dependency cycle"},
    {"include-cycle", "File-level include cycle"},
    {"lock-discipline", "DTREC_GUARDED_BY field accessed without its mutex"},
    {"banned-rand", "C library RNG; use the seeded dtrec::Rng"},
    {"naked-new", "Raw allocation in non-test code"},
    {"include-guard", "Header lacks the canonical DTREC_<PATH>_H_ guard"},
    {"include-hygiene", "Include path is not src/-relative and quoted"},
    {"float-literal", "Float literal in double-precision code"},
    {"raw-ofstream-write", "std::ofstream bypasses WriteFileAtomic"},
    {"raw-stderr-logging", "Library code writes stderr instead of DTREC_LOG"},
    {"signal-unsafe-in-handler",
     "Allocating, locking or stdio call inside a signal-safe region"},
    {"clang-tidy-config", "Repo-root .clang-tidy missing or incomplete"},
    {"analyze-usage", "Malformed dtrec-analyze suppression comment"},
};

}  // namespace

const std::vector<std::string>& KnownRules() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const RuleInfo& rule : kRules) names.push_back(rule.id);
    return names;
  }();
  return kNames;
}

FileAnalysis AnalyzeFile(const std::string& rel_path,
                         const std::string& content,
                         const std::string& paired_content) {
  FileAnalysis out;
  const StripResult strip = StripSource(content);
  const std::vector<Token> tokens = Lex(strip.code);

  // Includes come from the raw lines (the "path" part is a string literal
  // and is blanked in the stripped code), but the directive must survive
  // stripping — that keeps commented-out includes out of the graph.
  const std::vector<std::string> raw_lines = SplitLines(content);
  const std::vector<std::string> code_lines = SplitLines(strip.code);
  for (size_t ln0 = 0; ln0 < raw_lines.size(); ++ln0) {
    const auto [delim, path] = ParseIncludeLine(raw_lines[ln0]);
    if (delim == '\0' || path.empty()) continue;
    if (ln0 >= code_lines.size() || Trim(code_lines[ln0]).rfind('#', 0) != 0) {
      continue;
    }
    out.includes.push_back({ln0 + 1, path, delim == '"'});
  }

  std::vector<Finding> raw = AnalyzePropensityTaint(rel_path, tokens);

  LockAnnotations annotations = ExtractLockAnnotations(tokens);
  if (!paired_content.empty()) {
    const LockAnnotations paired =
        ExtractLockAnnotations(Lex(StripSource(paired_content).code));
    annotations.guarded.insert(paired.guarded.begin(), paired.guarded.end());
  }
  for (Finding& f : AnalyzeLockDiscipline(rel_path, tokens, annotations)) {
    raw.push_back(std::move(f));
  }

  for (Finding& f : AnalyzeLexical(rel_path, content, strip)) {
    raw.push_back(std::move(f));
  }

  const AllowParse allows = ParseAllowComments(strip.comments, KnownRules());
  for (Finding& f : raw) {
    if (!AllowCovers(allows, f.rule, f.line)) {
      out.findings.push_back(std::move(f));
    }
  }
  for (const auto& [line, rule] : allows.unknown) {
    out.findings.push_back({rel_path, line, "analyze-usage",
                            "allow() names unknown rule '" + rule + "'"});
  }
  std::stable_sort(
      out.findings.begin(), out.findings.end(),
      [](const Finding& a, const Finding& b) { return a.line < b.line; });
  return out;
}

// ------------------------------------------------------------------ baseline

Baseline ParseBaseline(const std::string& content) {
  Baseline out;
  const std::vector<std::string> lines = SplitLines(content);
  for (size_t ln0 = 0; ln0 < lines.size(); ++ln0) {
    const std::string line = Trim(lines[ln0]);
    if (line.empty() || line[0] == '#') continue;
    const std::string where = "baseline line " + std::to_string(ln0 + 1);
    const size_t sep = line.find(" -- ");
    if (sep == std::string::npos || Trim(line.substr(sep + 4)).empty()) {
      out.errors.push_back(where + ": missing ' -- <justification>'");
      continue;
    }
    std::istringstream iss(line.substr(0, sep));
    std::string kind, a, b, extra;
    iss >> kind >> a >> b;
    if (iss >> extra || a.empty() || b.empty()) {
      out.errors.push_back(where + ": expected '" + kind +
                           " <arg> <arg> -- <justification>'");
      continue;
    }
    if (kind == "edge") {
      out.edges.emplace(a, b);
    } else if (kind == "finding") {
      out.findings.emplace(a, b);  // (rule, file)
    } else {
      out.errors.push_back(where + ": unknown entry kind '" + kind + "'");
    }
  }
  return out;
}

std::vector<Finding> ApplyBaseline(const Baseline& baseline,
                                   std::vector<Finding> findings,
                                   size_t* suppressed) {
  std::vector<Finding> kept;
  size_t dropped = 0;
  for (Finding& f : findings) {
    if (baseline.findings.count({f.rule, f.file}) != 0) {
      ++dropped;
      continue;
    }
    kept.push_back(std::move(f));
  }
  if (suppressed != nullptr) *suppressed = dropped;
  return kept;
}

// ------------------------------------------------------------------- reports

std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t suppressed_baseline) {
  std::ostringstream os;
  os << "{\"schema\": \"dtrec-analyze-v1\", \"count\": " << findings.size()
     << ", \"suppressed_baseline\": " << suppressed_baseline
     << ", \"findings\": [";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    if (i) os << ", ";
    os << "{\"file\": \"" << json::Escape(f.file) << "\", \"line\": " << f.line
       << ", \"rule\": \"" << json::Escape(f.rule) << "\", \"message\": \""
       << json::Escape(f.message) << "\"}";
  }
  os << "]}\n";
  return os.str();
}

std::string FindingsToSarif(const std::vector<Finding>& findings) {
  std::ostringstream os;
  os << "{\n"
     << "  \"$schema\": "
        "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
     << "  \"version\": \"2.1.0\",\n"
     << "  \"runs\": [\n"
     << "    {\n"
     << "      \"tool\": {\n"
     << "        \"driver\": {\n"
     << "          \"name\": \"dtrec_analyze\",\n"
     << "          \"informationUri\": "
        "\"https://github.com/dtrec/dtrec\",\n"
     << "          \"version\": \"1.0.0\",\n"
     << "          \"rules\": [\n";
  for (size_t i = 0; i < std::size(kRules); ++i) {
    os << "            {\"id\": \"" << kRules[i].id
       << "\", \"shortDescription\": {\"text\": \""
       << json::Escape(kRules[i].description) << "\"}}"
       << (i + 1 < std::size(kRules) ? "," : "") << "\n";
  }
  os << "          ]\n"
     << "        }\n"
     << "      },\n"
     << "      \"results\": [\n";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << "        {\"ruleId\": \"" << json::Escape(f.rule)
       << "\", \"level\": \"error\", \"message\": {\"text\": \""
       << json::Escape(f.message)
       << "\"}, \"locations\": [{\"physicalLocation\": "
          "{\"artifactLocation\": {\"uri\": \""
       << json::Escape(f.file)
       << "\", \"uriBaseId\": \"%SRCROOT%\"}, \"region\": {\"startLine\": "
       << f.line << "}}}]}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  os << "      ]\n"
     << "    }\n"
     << "  ]\n"
     << "}\n";
  return os.str();
}

std::string ValidateSarif(const std::string& content) {
  json::Cursor cur{content};
  std::string version;
  size_t num_runs = 0;
  std::string error;
  auto fail = [&error](const std::string& msg) {
    if (error.empty()) error = msg;
  };

  cur.ParseObject([&](const std::string& key) {
    if (key == "version") {
      version = cur.ParseString();
      return;
    }
    if (key != "runs") {
      cur.SkipValue();
      return;
    }
    cur.ParseArray([&] {
      ++num_runs;
      std::string driver_name;
      std::set<std::string> declared_rules;
      size_t num_results = 0;
      cur.ParseObject([&](const std::string& rk) {
        if (rk == "tool") {
          cur.ParseObject([&](const std::string& tk) {
            if (tk != "driver") {
              cur.SkipValue();
              return;
            }
            cur.ParseObject([&](const std::string& dk) {
              if (dk == "name") {
                driver_name = cur.ParseString();
              } else if (dk == "rules") {
                cur.ParseArray([&] {
                  cur.ParseObject([&](const std::string& rrk) {
                    if (rrk == "id") {
                      declared_rules.insert(cur.ParseString());
                    } else {
                      cur.SkipValue();
                    }
                  });
                });
              } else {
                cur.SkipValue();
              }
            });
          });
          return;
        }
        if (rk != "results") {
          cur.SkipValue();
          return;
        }
        cur.ParseArray([&] {
          const std::string where =
              "results[" + std::to_string(num_results) + "]";
          ++num_results;
          std::string rule_id, message_text;
          std::string uri;
          double start_line = 0.0;
          bool saw_location = false;
          cur.ParseObject([&](const std::string& fk) {
            if (fk == "ruleId") {
              rule_id = cur.ParseString();
            } else if (fk == "message") {
              cur.ParseObject([&](const std::string& mk) {
                if (mk == "text") {
                  message_text = cur.ParseString();
                } else {
                  cur.SkipValue();
                }
              });
            } else if (fk == "locations") {
              cur.ParseArray([&] {
                saw_location = true;
                cur.ParseObject([&](const std::string& lk) {
                  if (lk != "physicalLocation") {
                    cur.SkipValue();
                    return;
                  }
                  cur.ParseObject([&](const std::string& pk) {
                    if (pk == "artifactLocation") {
                      cur.ParseObject([&](const std::string& ak) {
                        if (ak == "uri") {
                          uri = cur.ParseString();
                        } else {
                          cur.SkipValue();
                        }
                      });
                    } else if (pk == "region") {
                      cur.ParseObject([&](const std::string& gk) {
                        if (gk == "startLine") {
                          start_line = cur.ParseNumber();
                        } else {
                          cur.SkipValue();
                        }
                      });
                    } else {
                      cur.SkipValue();
                    }
                  });
                });
              });
            } else {
              cur.SkipValue();
            }
          });
          if (rule_id.empty()) {
            fail(where + " has no ruleId");
          } else if (declared_rules.count(rule_id) == 0) {
            fail(where + " ruleId '" + rule_id +
                 "' is not declared in tool.driver.rules");
          } else if (message_text.empty()) {
            fail(where + " has no message.text");
          } else if (!saw_location || uri.empty()) {
            fail(where +
                 " needs locations[0].physicalLocation.artifactLocation.uri");
          } else if (start_line < 1.0) {
            fail(where + " needs region.startLine >= 1");
          }
        });
      });
      if (driver_name.empty()) {
        fail("run has no tool.driver.name");
      } else if (driver_name != "dtrec_analyze") {
        fail("tool.driver.name is '" + driver_name +
             "', expected 'dtrec_analyze'");
      }
      if (declared_rules.empty()) fail("run declares no tool.driver.rules");
    });
  });

  if (!cur.ok || !cur.AtEnd()) return "malformed SARIF JSON";
  if (version != "2.1.0") {
    return "version is '" + version + "', expected '2.1.0'";
  }
  if (num_runs == 0) return "SARIF document has no runs";
  return error;
}

uint64_t HashContent(const std::string& content) {
  uint64_t h = 14695981039346656037ULL;  // FNV offset basis
  for (const char c : content) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;  // FNV prime
  }
  return h;
}

}  // namespace dtrec::analysis
