#ifndef DTREC_TOOLS_ANALYSIS_ANALYSIS_H_
#define DTREC_TOOLS_ANALYSIS_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

// dtrec_analyze — the one static-analysis tool for the dtrec tree. Its
// passes share the lexer in analysis/lexer.h:
//
//   propensity-taint   intra-function dataflow: values that look like
//                      propensities (lexicon identifiers, results of
//                      Predict*Propensity-style calls, loads from
//                      *_propensities containers) are tracked through
//                      assignments and aliases into the hazardous sinks
//                      `/`, `/=`, std::log and std::pow; only
//                      ClipPropensity / SafeInverse / SoftClip clear the
//                      taint.
//   layering-upward    cross-file include-graph check of the module DAG
//     layering-cycle   util → tensor → {autograd, data} → {core,
//     include-cycle    propensity, optim, metrics} → {baselines, models,
//                      synth, diagnostics} → {experiments, serve, obs}:
//                      upward edges and cycles (module- or file-level)
//                      are rejected unless recorded in the baseline.
//   lock-discipline    fields annotated DTREC_GUARDED_BY(mu) (see
//                      util/thread_annotations.h) must only be touched
//                      inside a scope that constructs a lock_guard /
//                      unique_lock / scoped_lock on a mutex with that
//                      name, or inside a function annotated
//                      DTREC_REQUIRES(mu). Mutex identity is by name,
//                      not object — the static complement to the TSan
//                      CI leg, not a replacement for it.
//   lexical rules      banned-rand, naked-new, include-guard,
//                      include-hygiene, float-literal, raw-ofstream-write,
//                      raw-stderr-logging, signal-unsafe-in-handler and
//                      clang-tidy-config; see analysis/lexical.h.
//   analyze-usage      an allow-comment naming an unknown rule.
//
// Suppressions: a `dtrec-analyze:` comment whose allow() list names
// rules, or `all`, covers its own line and the line directly below it,
// so both trailing and standalone-comment-above styles work:
//
//   x = a / p_hat;  // dtrec-analyze: allow(propensity-taint)
//
//   // dtrec-analyze: allow(naked-new)
//   auto* raw = new Widget;
//
// Reports: JSON (schema "dtrec-analyze-v1") and SARIF 2.1.0 for GitHub
// code scanning. The checked-in baseline (tools/analysis/
// analyze_baseline.txt) records deliberate layering edges and findings,
// each with a one-line justification.

namespace dtrec::analysis {

struct Finding {
  std::string file;     // repo-relative path, forward slashes
  size_t line = 0;      // 1-based
  std::string rule;     // one of the rule names above
  std::string message;  // human-readable detail
};

/// Names of every rule the analyses can emit.
const std::vector<std::string>& KnownRules();

/// One #include directive: (1-based line, path as written). `quoted` is
/// false for <angle> includes (which never participate in layering).
struct IncludeSite {
  size_t line = 0;
  std::string path;
  bool quoted = false;
};

/// Everything the per-file pass extracts: quoted/angle includes (for the
/// layering graph) and the file-local findings from the taint,
/// lock-discipline and lexical analyses, already filtered through
/// allow-comments.
/// This is the unit the incremental cache stores per content hash.
struct FileAnalysis {
  std::vector<IncludeSite> includes;
  std::vector<Finding> findings;
};

/// Runs the file-local analyses on `content`. `paired_content` is the
/// sibling translation unit sharing the file's stem ("foo.h" for
/// "foo.cc" and vice versa), or empty — DTREC_GUARDED_BY annotations
/// declared in a header govern uses in its .cc.
FileAnalysis AnalyzeFile(const std::string& rel_path,
                         const std::string& content,
                         const std::string& paired_content);

// ---------------------------------------------------------------- baseline

/// Parsed baseline file. Line grammar (one entry per line):
///   edge <from-module> <to-module> -- <justification>
///   finding <rule> <file> -- <justification>
/// '#' starts a comment; blank lines are skipped.
struct Baseline {
  std::set<std::pair<std::string, std::string>> edges;  // module from → to
  std::set<std::pair<std::string, std::string>> findings;  // rule → file
  std::vector<std::string> errors;  // malformed lines (message per line)
};

Baseline ParseBaseline(const std::string& content);

/// Drops findings matched by the baseline (rule + file for `finding`
/// entries; layering edges are excluded earlier, in the graph pass).
/// Returns the survivors; `suppressed`, when non-null, receives the count
/// of dropped findings.
std::vector<Finding> ApplyBaseline(const Baseline& baseline,
                                   std::vector<Finding> findings,
                                   size_t* suppressed = nullptr);

// ---------------------------------------------------------------- reports

/// {"schema": "dtrec-analyze-v1", "count": N, "suppressed_baseline": M,
///  "findings": [{file,line,rule,message}...]} — stable field order.
std::string FindingsToJson(const std::vector<Finding>& findings,
                           size_t suppressed_baseline);

/// SARIF 2.1.0 document for GitHub code scanning: one run, driver
/// "dtrec_analyze", every known rule declared, one result per finding
/// with a physicalLocation region at the finding's line.
std::string FindingsToSarif(const std::vector<Finding>& findings);

/// Structural validator for the SARIF emitter's output (and the `analyze`
/// CTest gate): version 2.1.0, ≥1 run with tool.driver.name and declared
/// rules, every result carrying a known ruleId, a message.text, and a
/// physicalLocation with artifactLocation.uri + region.startLine ≥ 1.
/// Returns "" on success, else a one-line description of the first
/// problem.
std::string ValidateSarif(const std::string& content);

/// FNV-1a 64-bit over `content` — the incremental cache's content hash
/// (hex). Deliberately local so the analysis library stays free of dtrec
/// library dependencies.
uint64_t HashContent(const std::string& content);

}  // namespace dtrec::analysis

#endif  // DTREC_TOOLS_ANALYSIS_ANALYSIS_H_
