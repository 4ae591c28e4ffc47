#ifndef DTREC_TOOLS_ANALYSIS_LEXICAL_H_
#define DTREC_TOOLS_ANALYSIS_LEXICAL_H_

#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/lexer.h"

// Lexical pass of dtrec_analyze: project idioms checked by pattern-
// matching the stripped code (comments and literals blanked by
// analysis/lexer.h), with no dataflow. AnalyzeFile runs it beside the
// taint and lock passes, so its findings share their allow-comments,
// baseline, reports and cache. Division by an unclipped propensity is
// the taint pass's rule (propensity-taint), not a lexical one.
//
// Rules:
//
//   banned-rand          rand(), srand(), rand_r, drand48, lrand48,
//                        random_shuffle — use util/random.h (seeded Rng)
//   naked-new            `new` / `malloc` / `calloc` / `realloc` in
//                        non-test code — dtrec owns memory via value
//                        types and standard containers
//   include-guard        headers must open with the canonical
//                        `#ifndef DTREC_<PATH>_H_` pair; `#pragma once`
//                        is banned for consistency
//   include-hygiene      quoted includes are src/-relative (no leading
//                        `src/`, no `..`, no absolute paths); project
//                        headers must not be included with <angle>
//   float-literal        f-suffixed literals (1.0f) drift against the
//                        all-double numeric stack
//   raw-ofstream-write   `std::ofstream` in non-test code outside
//                        src/util/atomic_file.cc — durable files must go
//                        through WriteFileAtomic or a crash can leave a
//                        torn file; deliberately non-durable writers
//                        carry an allow-comment
//   raw-stderr-logging   `std::cerr` / `fprintf(stderr, ...)` inside src/
//                        (library code) outside src/util/logging.cc — the
//                        library reports through DTREC_LOG so severity,
//                        formatting and fatal handling stay uniform; CLI
//                        mains under tools/ may write stderr directly
//   signal-unsafe-in-handler
//                        inside a region bracketed by the
//                        `dtrec-signal-safe-region-begin` / `-end` marker
//                        comments (the profiler's SIGPROF handler), any
//                        identifier that allocates, locks, or touches
//                        stdio/iostreams is banned: malloc/free/new,
//                        mutex/lock_guard, printf/cout, string/vector
//                        construction, … — a signal handler that takes a
//                        lock the interrupted thread holds deadlocks, and
//                        one that allocates corrupts the heap. An opened
//                        region with no matching end marker is itself a
//                        finding.
//   clang-tidy-config    the repo-root .clang-tidy must exist and define
//                        the `Checks:`, `WarningsAsErrors:` and
//                        `HeaderFilterRegex:` keys (checked once per run,
//                        not per file)
//
// Known hazard with no textual rule (yet): size_t → uint32_t narrowing.
// Serving stores item ids as uint32_t (ScoredItem::item, the sweep
// orders), so a `static_cast<uint32_t>(i)` over a catalogue-sized loop
// silently wraps past 2³² items. A lexical rule cannot tell a narrowing
// cast from a benign one, so the bound is enforced at runtime instead:
// ServingModel::ValidateCatalogueSize rejects oversized catalogues at
// FromFactors time (see serving_model.h). "uint32 id narrowing outside a
// ValidateCatalogueSize-guarded scope" is the dataflow rule to add.

namespace dtrec::analysis {

struct FileKind {
  bool is_header = false;
  bool is_test = false;         // relaxes naked-new and raw-ofstream-write
  std::string expected_guard;   // empty → include-guard rule skipped
};

/// Classifies a repo-relative path ("src/util/math_util.h"). Test files
/// are anything under tests/ or whose stem ends in `_test`.
FileKind ClassifyPath(const std::string& rel_path);

/// Raw findings (not yet allow-filtered) of every lexical rule that
/// applies to the file's kind; `strip` is StripSource(content).
std::vector<Finding> AnalyzeLexical(const std::string& rel_path,
                                    const std::string& content,
                                    const StripResult& strip);

/// Checks a .clang-tidy config body: it must be non-empty and define the
/// `Checks:`, `WarningsAsErrors:` and `HeaderFilterRegex:` keys. Reported
/// under rule `clang-tidy-config`. (The clang-tidy binary itself is not a
/// build dependency; this keeps the config present and well-formed for
/// environments that do run it.)
std::vector<Finding> AnalyzeClangTidyConfig(const std::string& rel_path,
                                            const std::string& content);

}  // namespace dtrec::analysis

#endif  // DTREC_TOOLS_ANALYSIS_LEXICAL_H_
