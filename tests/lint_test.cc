#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/lexical.h"

namespace dtrec::analysis {
namespace {

std::vector<std::string> RulesIn(const std::vector<Finding>& findings) {
  std::vector<std::string> rules;
  rules.reserve(findings.size());
  for (const Finding& f : findings) rules.push_back(f.rule);
  return rules;
}

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  const std::vector<std::string> rules = RulesIn(findings);
  return static_cast<size_t>(std::count(rules.begin(), rules.end(), rule));
}

/// Every per-file pass on one file, as dtrec_analyze runs them; the
/// lexical rules are the subject here, the divisions are taint's.
std::vector<Finding> LintContent(const std::string& rel_path,
                                 const std::string& content) {
  return AnalyzeFile(rel_path, content, "").findings;
}

std::string FindingsToJson(const std::vector<Finding>& findings) {
  return analysis::FindingsToJson(findings, 0);
}

// ------------------------------------------------------- classification

TEST(LintClassifyTest, HeadersGetCanonicalGuardName) {
  const FileKind k = ClassifyPath("src/util/math_util.h");
  EXPECT_TRUE(k.is_header);
  EXPECT_FALSE(k.is_test);
  EXPECT_EQ(k.expected_guard, "DTREC_UTIL_MATH_UTIL_H_");
  // Outside src/ the full path is kept.
  EXPECT_EQ(ClassifyPath("tools/analysis/lexical.h").expected_guard,
            "DTREC_TOOLS_ANALYSIS_LEXICAL_H_");
}

TEST(LintClassifyTest, TestFilesRecognizedByDirAndStem) {
  EXPECT_TRUE(ClassifyPath("tests/util_test.cc").is_test);
  EXPECT_TRUE(ClassifyPath("src/foo/bar_test.cc").is_test);
  EXPECT_FALSE(ClassifyPath("src/foo/bar.cc").is_test);
}

// ------------------------------------------------ fixture with violations

// One small fixture exercising every rule; the expected findings are
// asserted individually below.
const char kFixture[] = R"FIX(
double Bad(double x, double p_hat, double inv_prop) {
  double a = x / p_hat;
  a /= propensity_score(x);
  a += x / inv_prop;
  int r = rand();
  double* leak = new double[4];
  float f = 1.5f;
  return a + r + *leak + f;
}
)FIX";

TEST(LintRulesTest, FixtureTriggersEveryExpectedRule) {
  const auto findings = LintContent("src/foo/fixture.cc", kFixture);
  EXPECT_EQ(CountRule(findings, "propensity-taint"), 3u);
  EXPECT_EQ(CountRule(findings, "banned-rand"), 1u);
  EXPECT_EQ(CountRule(findings, "naked-new"), 1u);
  EXPECT_EQ(CountRule(findings, "float-literal"), 1u);
  // Findings carry the path and a 1-based line.
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, "src/foo/fixture.cc");
    EXPECT_GT(f.line, 0u);
    EXPECT_FALSE(f.message.empty());
  }
}

TEST(LintRulesTest, TestFilesMayUseNakedNew) {
  const auto findings = LintContent("tests/fixture_test.cc", kFixture);
  EXPECT_EQ(CountRule(findings, "naked-new"), 0u);
  // The numeric rules still apply in tests.
  EXPECT_EQ(CountRule(findings, "propensity-taint"), 3u);
  EXPECT_EQ(CountRule(findings, "banned-rand"), 1u);
}

TEST(LintRulesTest, BlessedHelpersPass) {
  const char* kClean = R"FIX(
double Good(double x, double p_hat) {
  double a = x / ClipPropensity(p_hat, 1e-6);
  double b = x * SafeInverse(p_hat);
  double c = x / SoftClip(p_hat);
  return a + b + c;
}
)FIX";
  const auto findings = LintContent("src/foo/clean.cc", kClean);
  EXPECT_EQ(CountRule(findings, "propensity-taint"), 0u);
}

TEST(LintRulesTest, CommentsAndStringsAreNotCode) {
  const char* kDisguised = R"FIX(
// double a = x / p_hat; rand(); new int;
/* a /= propensity; 1.0f */
const char* s = "x / p_hat rand() 1.5f";
const char* r = R"(y / propensity new)";
)FIX";
  const auto findings = LintContent("src/foo/disguised.cc", kDisguised);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(LintRulesTest, IncludeLinesDoNotFeedIdentifierRules) {
  const char* kIncludes = R"FIX(
#include "propensity/propensity.h"
#include <random>
)FIX";
  const auto findings = LintContent("src/foo/inc.cc", kIncludes);
  EXPECT_TRUE(findings.empty()) << FindingsToJson(findings);
}

TEST(LintRulesTest, RawOfstreamFlaggedOutsideAtomicFile) {
  const char* kWriter = R"FIX(
void Dump(const std::string& path) {
  std::ofstream out(path);
  out << "hello";
}
)FIX";
  // Flagged in ordinary non-test code...
  EXPECT_EQ(CountRule(LintContent("src/foo/dump.cc", kWriter),
                      "raw-ofstream-write"),
            1u);
  // ...exempt inside the crash-atomic writer itself and in tests...
  EXPECT_EQ(CountRule(LintContent("src/util/atomic_file.cc", kWriter),
                      "raw-ofstream-write"),
            0u);
  EXPECT_EQ(CountRule(LintContent("tests/dump_test.cc", kWriter),
                      "raw-ofstream-write"),
            0u);
  // ...and silenced by the usual allow-comment.
  const char* kAllowed = R"FIX(
void Dump(const std::string& path) {
  std::ofstream out(path);  // dtrec-analyze: allow(raw-ofstream-write)
}
)FIX";
  EXPECT_EQ(CountRule(LintContent("src/foo/dump.cc", kAllowed),
                      "raw-ofstream-write"),
            0u);
}

TEST(LintRulesTest, RawStderrFlaggedOnlyInLibraryCode) {
  const char* kLogger = R"FIX(
void Warn(const char* msg) {
  std::cerr << msg;
  std::fprintf(stderr, "%s\n", msg);
}
)FIX";
  // Library code must route through DTREC_LOG: one finding per raw use.
  EXPECT_EQ(CountRule(LintContent("src/foo/warn.cc", kLogger),
                      "raw-stderr-logging"),
            2u);
  // The logging backend itself is the blessed stderr writer...
  EXPECT_EQ(CountRule(LintContent("src/util/logging.cc", kLogger),
                      "raw-stderr-logging"),
            0u);
  // ...CLI mains under tools/ talk to their user directly...
  EXPECT_EQ(CountRule(LintContent("tools/dtrec_cli.cc", kLogger),
                      "raw-stderr-logging"),
            0u);
  // ...and tests are out of scope too.
  EXPECT_EQ(CountRule(LintContent("tests/warn_test.cc", kLogger),
                      "raw-stderr-logging"),
            0u);
  // `cerr` inside comments or strings is not code.
  const char* kInert = R"FIX(
// std::cerr is banned here; see lexical.h
const char* kHelp = "errors go to stderr";
)FIX";
  EXPECT_EQ(CountRule(LintContent("src/foo/help.cc", kInert),
                      "raw-stderr-logging"),
            0u);
  // The usual allow-comment escape hatch works.
  const char* kAllowed = R"FIX(
void Warn(const char* msg) {
  std::cerr << msg;  // dtrec-analyze: allow(raw-stderr-logging)
}
)FIX";
  EXPECT_EQ(CountRule(LintContent("src/foo/warn.cc", kAllowed),
                      "raw-stderr-logging"),
            0u);
}

// ------------------------------------------------- signal-safe regions

TEST(LintSignalSafeTest, BannedIdentifiersFlaggedInsideTheRegionOnly) {
  const char* kHandler = R"FIX(
void PrimeOutside() {
  std::printf("allocating and printing out here is fine\n");
}
void Handler(int sig) {
  // dtrec-signal-safe-region-begin
  const int saved_errno = errno;
  std::printf("sampling\n");
  g_ring[g_cursor].store(1, std::memory_order_relaxed);
  errno = saved_errno;
  // dtrec-signal-safe-region-end
}
void FlushAfter() {
  std::string symbolized = Demangle();
}
)FIX";
  const auto findings = LintContent("src/obs/handler.cc", kHandler);
  ASSERT_EQ(CountRule(findings, "signal-unsafe-in-handler"), 1u)
      << FindingsToJson(findings);
  for (const Finding& f : findings) {
    if (f.rule != "signal-unsafe-in-handler") continue;
    EXPECT_EQ(f.line, 8u);  // the printf inside the region
    EXPECT_NE(f.message.find("printf"), std::string::npos);
  }
}

TEST(LintSignalSafeTest, SafeVocabularyPasses) {
  // errno, relaxed atomics on preallocated slots, backtrace(): the whole
  // allowed surface of the profiler's handler.
  const char* kClean = R"FIX(
void Handler(int sig) {
  // dtrec-signal-safe-region-begin
  const int saved_errno = errno;
  const size_t slot = g_state.cursor.fetch_add(1, std::memory_order_relaxed);
  if (slot < g_state.max_samples) {
    g_state.ring[slot].depth = backtrace(g_state.ring[slot].frames, 48);
    g_state.ring[slot].ready.store(true, std::memory_order_release);
  } else {
    g_state.dropped.fetch_add(1, std::memory_order_relaxed);
  }
  errno = saved_errno;
  // dtrec-signal-safe-region-end
}
)FIX";
  const auto findings = LintContent("src/obs/handler.cc", kClean);
  EXPECT_EQ(CountRule(findings, "signal-unsafe-in-handler"), 0u)
      << FindingsToJson(findings);
}

TEST(LintSignalSafeTest, EveryBannedCategoryIsCaught) {
  // One representative per category: allocation, lock, stdio, container
  // construction, symbolization.
  const char* kDirty = R"FIX(
void Handler(int sig) {
  // dtrec-signal-safe-region-begin
  void* p = malloc(8);
  std::lock_guard<std::mutex> lock(g_mu);
  fprintf(g_log, "tick\n");
  std::vector<int> frames;
  dladdr(p, &info);
  // dtrec-signal-safe-region-end
}
)FIX";
  const auto findings = LintContent("src/obs/handler.cc", kDirty);
  // lock_guard + mutex count separately on their shared line.
  EXPECT_GE(CountRule(findings, "signal-unsafe-in-handler"), 5u)
      << FindingsToJson(findings);
}

TEST(LintSignalSafeTest, UnterminatedRegionIsItselfAFinding) {
  const char* kOpenEnded =
      "void Handler(int sig) {\n"
      "  // dtrec-signal-safe-region-begin\n"
      "  errno = 0;\n"
      "}\n";
  const auto findings = LintContent("src/obs/handler.cc", kOpenEnded);
  ASSERT_EQ(CountRule(findings, "signal-unsafe-in-handler"), 1u);
  EXPECT_EQ(findings[0].line, 2u);  // anchored at the dangling begin
  EXPECT_NE(findings[0].message.find("without a matching"),
            std::string::npos);
}

TEST(LintSignalSafeTest, ProseMentionOfTheMarkerDoesNotOpenARegion) {
  // Documentation (like lexical.h's own rule table) talks about the marker
  // without being one; only an exact standalone marker comment counts.
  const char* kProse = R"FIX(
// The dtrec-signal-safe-region-begin marker brackets handler code; see
// lexical.h. Everything below is ordinary code:
void Flush() {
  std::string s = "uses banned identifiers freely";
  std::printf("%s\n", s.c_str());
}
)FIX";
  const auto findings = LintContent("src/obs/doc.cc", kProse);
  EXPECT_EQ(CountRule(findings, "signal-unsafe-in-handler"), 0u)
      << FindingsToJson(findings);
}

TEST(LintSignalSafeTest, AllowCommentSuppresses) {
  const char* kAllowed = R"FIX(
void Handler(int sig) {
  // dtrec-signal-safe-region-begin
  // dtrec-analyze: allow(signal-unsafe-in-handler)
  debug_only_printf("%d\n", printf_arena);
  errno = 0;
  // dtrec-signal-safe-region-end
}
)FIX";
  // (identifiers containing but not equal to banned names never match;
  // this fixture's suppressed line uses a real banned name below)
  const char* kAllowedReal =
      "void Handler(int sig) {\n"
      "  // dtrec-signal-safe-region-begin\n"
      "  printf(\"x\");  // dtrec-analyze: allow(signal-unsafe-in-handler)\n"
      "  // dtrec-signal-safe-region-end\n"
      "}\n";
  EXPECT_EQ(CountRule(LintContent("src/obs/handler.cc", kAllowed),
                      "signal-unsafe-in-handler"),
            0u);
  EXPECT_EQ(CountRule(LintContent("src/obs/handler.cc", kAllowedReal),
                      "signal-unsafe-in-handler"),
            0u);
}

// ------------------------------------------------------------- suppression

TEST(LintSuppressionTest, TrailingAllowSilencesThatLine) {
  const char* kSrc =
      "double F(double x, double p_hat) {\n"
      "  return x / p_hat;  // dtrec-analyze: allow(propensity-taint)\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/a.cc", kSrc).empty());
}

TEST(LintSuppressionTest, StandaloneAllowCoversNextLine) {
  const char* kSrc =
      "double F(double x, double p_hat) {\n"
      "  // dtrec-analyze: allow(propensity-taint)\n"
      "  return x / p_hat;\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/a.cc", kSrc).empty());
}

TEST(LintSuppressionTest, AllowAllAndMultiRuleLists) {
  const char* kSrc =
      "int* G() {\n"
      "  // dtrec-analyze: allow(naked-new, banned-rand)\n"
      "  return new int(rand());\n"
      "}\n"
      "int* H() {\n"
      "  // dtrec-analyze: allow(all)\n"
      "  return new int(rand());\n"
      "}\n";
  EXPECT_TRUE(LintContent("src/a.cc", kSrc).empty());
}

TEST(LintSuppressionTest, AllowDoesNotLeakBeyondNextLine) {
  const char* kSrc =
      "double F(double x, double p_hat) {\n"
      "  // dtrec-analyze: allow(propensity-taint)\n"
      "  double a = x / p_hat;\n"
      "  double b = x / p_hat;\n"  // two lines below the allow: still flagged
      "  return a + b;\n"
      "}\n";
  const auto findings = LintContent("src/a.cc", kSrc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4u);
}

TEST(LintSuppressionTest, UnknownRuleNameIsItselfAFinding) {
  const char* kSrc = "// dtrec-analyze: allow(no-such-rule)\nint x = 0;\n";
  const auto findings = LintContent("src/a.cc", kSrc);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "analyze-usage");
}

// ----------------------------------------------- shared stripper hardening
// The stripper lives in tools/analysis/lexer.cc; these regressions pin
// the behavior the lexical rules see for constructs that used to confuse
// it.

TEST(LintStripperTest, EncodingPrefixedRawStringsAreNotCode) {
  // u8R/LR/uR/UR prefixes open raw strings just like plain R.
  const char* kSrc =
      "const char* a = u8R\"(x / p_hat rand())\";\n"
      "const wchar_t* b = LR\"sep(y / propensity new)sep\";\n"
      "const char16_t* c = uR\"(z / inv_p)\";\n";
  EXPECT_TRUE(LintContent("src/foo/raw.cc", kSrc).empty());
}

TEST(LintStripperTest, HexDigitSeparatorsDoNotOpenCharLiterals) {
  // 0xFF'FF: the quote follows a letter, but it is still a separator; if
  // mistaken for a char literal the rest of the file would be swallowed
  // and the rand() call below missed.
  const char* kSrc =
      "int mask = 0xFF'FF;\n"
      "int bin = 0b1010'1010;\n"
      "int big = 1'000'000;\n"
      "int r = rand();\n";
  const auto findings = LintContent("src/foo/sep.cc", kSrc);
  EXPECT_EQ(CountRule(findings, "banned-rand"), 1u);
}

TEST(LintStripperTest, BackslashContinuationExtendsLineComments) {
  // The spliced line is still comment text, not code.
  const char* kSrc =
      "// this comment continues \\\n"
      "rand(); int x = new_value / p_hat_total;\n"
      "int y = 0;\n";
  EXPECT_TRUE(LintContent("src/foo/cont.cc", kSrc).empty())
      << FindingsToJson(LintContent("src/foo/cont.cc", kSrc));
}

TEST(LintStripperTest, EscapedNewlineInStringKeepsLineNumbers) {
  // A string containing \<newline> must not desynchronize line counting:
  // the finding below it has to land on line 3.
  const char* kSrc =
      "const char* s = \"splice \\\n"
      "tail\";\n"
      "int r = rand();\n";
  const auto findings = LintContent("src/foo/splice.cc", kSrc);
  ASSERT_EQ(CountRule(findings, "banned-rand"), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

// ------------------------------------------------------ header-only rules

TEST(LintHeaderTest, CanonicalGuardAccepted) {
  const char* kHeader =
      "#ifndef DTREC_FOO_BAR_H_\n"
      "#define DTREC_FOO_BAR_H_\n"
      "int F();\n"
      "#endif  // DTREC_FOO_BAR_H_\n";
  EXPECT_TRUE(LintContent("src/foo/bar.h", kHeader).empty());
}

TEST(LintHeaderTest, WrongOrMissingGuardFlagged) {
  const char* kWrong =
      "#ifndef WRONG_GUARD_H\n"
      "#define WRONG_GUARD_H\n"
      "#endif\n";
  EXPECT_EQ(CountRule(LintContent("src/foo/bar.h", kWrong), "include-guard"),
            1u);
  EXPECT_EQ(CountRule(LintContent("src/foo/bar.h", "int F();\n"),
                      "include-guard"),
            1u);
}

TEST(LintHeaderTest, PragmaOnceBanned) {
  const char* kPragma = "#pragma once\nint F();\n";
  const auto findings = LintContent("src/foo/bar.h", kPragma);
  EXPECT_GE(CountRule(findings, "include-guard"), 1u);
}

TEST(LintIncludeHygieneTest, ViolationsFlagged) {
  const char* kSrc =
      "#include \"src/util/math_util.h\"\n"
      "#include \"../util/math_util.h\"\n"
      "#include <util/random.h>\n"
      "#include <vector>\n"
      "#include \"util/random.h\"\n"
      "#include <gtest/gtest.h>\n";
  const auto findings = LintContent("src/foo/inc.cc", kSrc);
  EXPECT_EQ(CountRule(findings, "include-hygiene"), 3u);
}

// ------------------------------------------------------------ float rule

TEST(LintFloatTest, OnlySuffixedLiteralsFlagged) {
  const char* kSrc =
      "double a = 1.0;\n"
      "double b = 1.0f;\n"
      "double c = .5F;\n"
      "double d = 2e3f;\n"
      "int e = 0xFF;\n"
      "int f2 = 10;\n"
      "double g = 1e-6;\n";
  const auto findings = LintContent("src/foo/f.cc", kSrc);
  EXPECT_EQ(CountRule(findings, "float-literal"), 3u);
  EXPECT_EQ(findings[0].line, 2u);
}

// ----------------------------------------------------------- clang-tidy

TEST(LintClangTidyTest, GoodConfigPasses) {
  const char* kGood =
      "Checks: 'bugprone-*'\n"
      "WarningsAsErrors: 'bugprone-*'\n"
      "HeaderFilterRegex: 'src/.*'\n";
  EXPECT_TRUE(AnalyzeClangTidyConfig(".clang-tidy", kGood).empty());
}

TEST(LintClangTidyTest, MissingKeysFlagged) {
  const auto findings =
      AnalyzeClangTidyConfig(".clang-tidy", "Checks: 'bugprone-*'\n");
  EXPECT_EQ(CountRule(findings, "clang-tidy-config"), 2u);
  EXPECT_EQ(CountRule(AnalyzeClangTidyConfig(".clang-tidy", "  \n"),
                      "clang-tidy-config"),
            1u);
}

}  // namespace
}  // namespace dtrec::analysis
