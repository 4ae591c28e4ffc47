#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/layering.h"
#include "analysis/lexer.h"
#include "analysis/locks.h"
#include "analysis/taint.h"

namespace dtrec::analysis {
namespace {

size_t CountRule(const std::vector<Finding>& findings,
                 const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

std::vector<Finding> Analyze(const std::string& path, const std::string& src,
                             const std::string& paired = "") {
  return AnalyzeFile(path, src, paired).findings;
}

// ------------------------------------------------------------------- lexer

TEST(LexerTest, TokensCarryPositions) {
  const auto tokens = Lex("a = b;\n  cc->dd();\n");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[0].line, 1u);
  EXPECT_EQ(tokens[0].col, 1u);
  EXPECT_EQ(tokens[4].text, "cc");
  EXPECT_EQ(tokens[4].line, 2u);
  EXPECT_EQ(tokens[4].col, 3u);
  EXPECT_EQ(tokens[5].text, "->");  // multi-char punctuator, one token
}

TEST(LexerTest, MaximalMunchPunctuators) {
  const auto tokens = Lex("a <<= b >>= c != d :: e /= f");
  std::vector<std::string> puncts;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kPunct) puncts.push_back(t.text);
  }
  EXPECT_EQ(puncts,
            (std::vector<std::string>{"<<=", ">>=", "!=", "::", "/="}));
}

TEST(LexerTest, NumbersKeepSeparatorsAndExponents) {
  const auto tokens = Lex("x = 1'000'000 + 1e-6 + 0xFF'FF;");
  std::vector<std::string> nums;
  for (const Token& t : tokens) {
    if (t.kind == TokKind::kNumber) nums.push_back(t.text);
  }
  EXPECT_EQ(nums, (std::vector<std::string>{"1'000'000", "1e-6", "0xFF'FF"}));
}

TEST(StripperTest, RawStringPrefixes) {
  const std::string src =
      "a = u8R\"(not / code)\"; b = LR\"sep(still)sep\"; c = 1;";
  const StripResult strip = StripSource(src);
  EXPECT_EQ(strip.code.find('/'), std::string::npos);
  EXPECT_NE(strip.code.find("c = 1"), std::string::npos);
}

TEST(StripperTest, CharLiteralVsDigitSeparator) {
  const StripResult strip = StripSource("int a = 0xAB'CD; char c = 'x';");
  // The separator survives into the code; the char literal body does not.
  EXPECT_NE(strip.code.find("0xAB'CD"), std::string::npos);
  EXPECT_EQ(strip.code.find('x', strip.code.find("c =")), std::string::npos);
}

TEST(StripperTest, SplicedLineCommentStaysComment) {
  const StripResult strip = StripSource("// one \\\ntwo\nint x;\n");
  EXPECT_EQ(strip.code.find("two"), std::string::npos);
  EXPECT_NE(strip.code.find("int x"), std::string::npos);
  // Comment text is collected for both source lines.
  ASSERT_GE(strip.comments.size(), 1u);
  EXPECT_NE(strip.comments[0].find("one"), std::string::npos);
}

TEST(StripperTest, NewlinesSurviveEverything) {
  const std::string src =
      "\"str \\\n tail\"\n/* block\ncomment */\nR\"(raw\nbody)\"\n";
  const StripResult strip = StripSource(src);
  EXPECT_EQ(std::count(src.begin(), src.end(), '\n'),
            std::count(strip.code.begin(), strip.code.end(), '\n'));
}

// ------------------------------------------------------------------- taint

TEST(TaintTest, DirectDivisionBySource) {
  const char* kSrc = R"(
double F(double x, double p_hat) {
  return x / p_hat;
}
)";
  const auto findings = Analyze("src/core/f.cc", kSrc);
  ASSERT_EQ(CountRule(findings, "propensity-taint"), 1u);
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(TaintTest, AliasPropagatesTaint) {
  // The divisor's own name matches no lexicon entry; the dataflow pass
  // follows the assignment w = p_hat.
  const char* kSrc = R"(
double F(double x, double p_hat) {
  double w = p_hat;
  return x / w;
}
)";
  const auto findings = Analyze("src/core/f.cc", kSrc);
  ASSERT_EQ(CountRule(findings, "propensity-taint"), 1u);
  EXPECT_EQ(findings[0].line, 4u);
  EXPECT_NE(findings[0].message.find("tainted via 'p_hat'"),
            std::string::npos);
}

TEST(TaintTest, SanitizedAssignmentCleanses) {
  const char* kSrc = R"(
double F(double x, double p_hat) {
  double w = ClipPropensity(p_hat, 1e-6);
  return x / w;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            0u);
}

TEST(TaintTest, ReclippingAVariableClearsItsTaint) {
  const char* kSrc = R"(
double F(double x, double w, double p_hat) {
  w = p_hat;
  w = ClipPropensity(w, 1e-6);
  return x / w;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            0u);
}

TEST(TaintTest, SanitizerCallInDivisorIsClean) {
  const char* kSrc = R"(
double F(double x, double p_hat) {
  double a = x / ClipPropensity(p_hat, 1e-6);
  double b = x * SafeInverse(p_hat);
  double c = x / SoftClip(p_hat);
  return a + b + c;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            0u);
}

TEST(TaintTest, LogAndPowSinks) {
  const char* kSrc = R"(
double F(double p_hat, double q) {
  double a = std::log(p_hat);
  double b = std::pow(p_hat, 2.0);
  double c = std::log(q);
  double d = std::pow(2.0, q);
  return a + b + c + d;
}
)";
  const auto findings = Analyze("src/core/f.cc", kSrc);
  EXPECT_EQ(CountRule(findings, "propensity-taint"), 2u);
}

TEST(TaintTest, HelperReturnIsCaughtViaLexicon) {
  // A call result flows through an assignment to a lexicon-named variable
  // (PredictPropensity itself matches the lexicon, so the call expression
  // carries taint too).
  const char* kSrc = R"(
double F(const Model& m, double x, size_t u, size_t i) {
  double prop = m.PredictPropensity(u, i);
  return x / prop;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            1u);
}

TEST(TaintTest, ContainerLoadsAreTainted) {
  const char* kSrc = R"(
double Sum(const std::vector<double>& eval_propensities, double x) {
  double s = 0.0;
  for (size_t i = 0; i < eval_propensities.size(); ++i) {
    s += x / eval_propensities[i];
  }
  return s;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            1u);
}

TEST(TaintTest, StateResetsBetweenFunctions) {
  // w is tainted in F; the fresh w in G must not inherit it.
  const char* kSrc = R"(
double F(double p_hat) {
  double w = p_hat;
  return w;
}
double G(double x, double w) {
  return x / w;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            0u);
}

TEST(TaintTest, ControlFlowBracesDoNotResetState) {
  const char* kSrc = R"(
double F(double x, double p_hat, bool flip) {
  double w = p_hat;
  if (flip) {
    return x / w;
  }
  while (x > 0) {
    x -= 1.0 / w;
  }
  return x;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/core/f.cc", kSrc), "propensity-taint"),
            2u);
}

TEST(TaintTest, CleanRateMathIsNotFlagged) {
  // False-positive guard: ordinary ratios with no propensity in sight.
  const char* kSrc = R"(
double Rate(uint64_t fired, uint64_t total, double sum, size_t n) {
  double r = total == 0 ? 0.0 : static_cast<double>(fired) / total;
  double mean = sum / static_cast<double>(n);
  return r + mean;
}
)";
  EXPECT_TRUE(Analyze("src/core/f.cc", kSrc).empty());
}

TEST(TaintTest, AllowCommentSilencesTaint) {
  const char* kSrc =
      "double F(double x, double p_hat) {\n"
      "  return x / p_hat;  // dtrec-analyze: allow(propensity-taint)\n"
      "}\n";
  EXPECT_TRUE(Analyze("src/core/f.cc", kSrc).empty());
}

TEST(TaintTest, UnterminatedFinalStatementIsScanned) {
  // Tokens after a file's last `;`, `{` or `}` form a statement too: a
  // macro before a header's closing #endif, a file's last #define, or a
  // final expression with no semicolon.
  const std::vector<std::string> inputs = {
      "#ifndef DTREC_CORE_F_H_\n"
      "#define DTREC_CORE_F_H_\n"
      "#define INV(x) (1.0 / propensity_of(x))\n"
      "#endif  // DTREC_CORE_F_H_\n",
      "#define INV(x) (1.0 / propensity_of(x))\n",
      "#define INV(x) (1.0 / propensity_of(x))\n#define ONE 1\n",
      "double z = 1.0 / p_hat",
  };
  for (const std::string& src : inputs) {
    EXPECT_EQ(CountRule(Analyze("src/core/f.h", src), "propensity-taint"),
              1u)
        << src;
  }
}

TEST(TaintTest, UnknownRuleInAllowIsUsageFinding) {
  const auto findings = Analyze(
      "src/core/f.cc", "// dtrec-analyze: allow(no-such-rule)\nint x = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "analyze-usage");
}

// ---------------------------------------------------------------- layering

std::map<std::string, std::vector<IncludeSite>> IncludeMap(
    std::initializer_list<std::pair<std::string, std::vector<IncludeSite>>>
        entries) {
  std::map<std::string, std::vector<IncludeSite>> m;
  for (const auto& [file, sites] : entries) m[file] = sites;
  return m;
}

TEST(LayeringTest, ModuleTable) {
  EXPECT_EQ(ModuleRank("util"), 0);
  EXPECT_EQ(ModuleRank("tensor"), 1);
  EXPECT_EQ(ModuleRank("core"), 3);
  EXPECT_EQ(ModuleRank("serve"), 5);
  EXPECT_EQ(ModuleRank("nonsense"), -1);
  EXPECT_EQ(ModuleOfPath("src/core/ips.cc"), "core");
  EXPECT_EQ(ModuleOfPath("tools/analysis/lexical.cc"), "");
  EXPECT_EQ(ModuleOfPath("tests/core_test.cc"), "");
  EXPECT_EQ(ModuleOfInclude("obs/metrics.h"), "obs");
  EXPECT_EQ(ModuleOfInclude("vector"), "");
}

TEST(LayeringTest, UpwardIncludeFlagged) {
  const auto m = IncludeMap({
      {"src/util/math_util.h", {{5, "obs/prop_stats.h", true}}},
      {"src/obs/prop_stats.h", {}},
  });
  const auto findings = AnalyzeLayering(m, {});
  ASSERT_EQ(CountRule(findings, "layering-upward"), 1u);
  EXPECT_EQ(findings[0].file, "src/util/math_util.h");
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LayeringTest, DownwardAndExemptIncludesPass) {
  const auto m = IncludeMap({
      {"src/serve/topk_scorer.cc", {{3, "util/status.h", true}}},
      {"tests/serve_test.cc", {{4, "serve/topk_scorer.h", true}}},
      {"src/util/status.h", {{2, "vector", false}}},
  });
  EXPECT_TRUE(AnalyzeLayering(m, {}).empty());
}

TEST(LayeringTest, BaselinedEdgeSuppressed) {
  const auto m = IncludeMap({
      {"src/util/math_util.h", {{5, "obs/prop_stats.h", true}}},
  });
  EXPECT_TRUE(AnalyzeLayering(m, {{"util", "obs"}}).empty());
}

TEST(LayeringTest, SameRankCycleDetected) {
  // core ↔ propensity are both layer 3: no upward edge, but a cycle.
  const auto m = IncludeMap({
      {"src/core/a.h", {{2, "propensity/b.h", true}}},
      {"src/propensity/b.h", {{2, "core/c.h", true}}},
      {"src/core/c.h", {}},
  });
  const auto findings = AnalyzeLayering(m, {});
  EXPECT_EQ(CountRule(findings, "layering-upward"), 0u);
  ASSERT_EQ(CountRule(findings, "layering-cycle"), 1u);
  const Finding& cycle = *std::find_if(
      findings.begin(), findings.end(),
      [](const Finding& f) { return f.rule == "layering-cycle"; });
  EXPECT_NE(cycle.message.find("core -> propensity -> core"),
            std::string::npos);
}

TEST(LayeringTest, BaseliningOneEdgeBreaksTheCycle) {
  const auto m = IncludeMap({
      {"src/core/a.h", {{2, "baselines/b.h", true}}},
      {"src/baselines/b.h", {{2, "core/a.h", true}}},
  });
  // Unbaselined: upward core→baselines plus the module cycle plus the
  // file-level include cycle.
  const auto raw = AnalyzeLayering(m, {});
  EXPECT_EQ(CountRule(raw, "layering-upward"), 1u);
  EXPECT_EQ(CountRule(raw, "layering-cycle"), 1u);
  EXPECT_EQ(CountRule(raw, "include-cycle"), 1u);
  // Baselining the upward module edge silences the module-level findings;
  // the concrete file loop is still real and still reported.
  const auto baselined = AnalyzeLayering(m, {{"core", "baselines"}});
  EXPECT_EQ(CountRule(baselined, "layering-upward"), 0u);
  EXPECT_EQ(CountRule(baselined, "layering-cycle"), 0u);
  EXPECT_EQ(CountRule(baselined, "include-cycle"), 1u);
}

TEST(LayeringTest, FileIncludeCycleAcrossThreeFiles) {
  const auto m = IncludeMap({
      {"src/core/a.h", {{1, "core/b.h", true}}},
      {"src/core/b.h", {{1, "core/c.h", true}}},
      {"src/core/c.h", {{1, "core/a.h", true}}},
  });
  const auto findings = AnalyzeLayering(m, {});
  ASSERT_EQ(CountRule(findings, "include-cycle"), 1u);
  EXPECT_NE(findings[0].message.find("src/core/a.h"), std::string::npos);
}

// ------------------------------------------------------------------- locks

TEST(LockTest, AnnotationExtraction) {
  const auto tokens = Lex(StripSource(R"(
struct S {
  std::mutex mu_;
  std::map<int, int> table_ DTREC_GUARDED_BY(mu_);
  int free_ = 0;
};
)").code);
  const LockAnnotations ann = ExtractLockAnnotations(tokens);
  ASSERT_EQ(ann.guarded.size(), 1u);
  EXPECT_EQ(ann.guarded.at("table_"), "mu_");
}

TEST(LockTest, UnlockedAccessFlagged) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  int table_ DTREC_GUARDED_BY(mu_);
  void Bad() { table_ = 1; }
  void Good() {
    std::lock_guard<std::mutex> lock(mu_);
    table_ = 2;
  }
};
)";
  const auto findings = Analyze("src/serve/s.cc", kSrc);
  ASSERT_EQ(CountRule(findings, "lock-discipline"), 1u);
  EXPECT_EQ(findings[0].line, 5u);
}

TEST(LockTest, LockReleasesAtScopeExit) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  int table_ DTREC_GUARDED_BY(mu_);
  void F() {
    {
      std::scoped_lock lock(mu_);
      table_ = 1;
    }
    table_ = 2;
  }
};
)";
  const auto findings = Analyze("src/serve/s.cc", kSrc);
  ASSERT_EQ(CountRule(findings, "lock-discipline"), 1u);
  EXPECT_EQ(findings[0].line, 10u);
}

TEST(LockTest, WrongMutexDoesNotCount) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  std::mutex other_mu_;
  int table_ DTREC_GUARDED_BY(mu_);
  void F() {
    std::lock_guard<std::mutex> lock(other_mu_);
    table_ = 1;
  }
};
)";
  EXPECT_EQ(CountRule(Analyze("src/serve/s.h", kSrc), "lock-discipline"),
            1u);
}

TEST(LockTest, RequiresAnnotationSatisfiesTheChecker) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  int table_ DTREC_GUARDED_BY(mu_);
  void Locked() DTREC_REQUIRES(mu_) { table_ = 1; }
};
)";
  EXPECT_EQ(CountRule(Analyze("src/serve/s.h", kSrc), "lock-discipline"),
            0u);
}

TEST(LockTest, MemberExpressionLocksMatchByName) {
  // buffer->mu and state.mu name the same mutexes the annotations do.
  const char* kSrc = R"(
struct Buffer {
  std::mutex mu;
  int events DTREC_GUARDED_BY(mu);
};
void Flush(Buffer* buffer) {
  std::lock_guard<std::mutex> lock(buffer->mu);
  buffer->events = 0;
}
)";
  EXPECT_EQ(CountRule(Analyze("src/obs/b.cc", kSrc), "lock-discipline"), 0u);
}

TEST(LockTest, LambdaInsideLockedScopeInheritsTheLock) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  bool stop_ DTREC_GUARDED_BY(mu_);
  void Wait(std::condition_variable& cv) {
    std::unique_lock<std::mutex> lock(mu_);
    cv.wait(lock, [&] { return stop_; });
  }
};
)";
  EXPECT_EQ(CountRule(Analyze("src/serve/s.h", kSrc), "lock-discipline"),
            0u);
}

TEST(LockTest, HeaderAnnotationsGovernTheCcFile) {
  const char* kHeader = R"(
struct S {
  std::mutex mu_;
  int table_ DTREC_GUARDED_BY(mu_);
  void F();
};
)";
  const char* kCc = R"(
void S::F() { table_ = 1; }
)";
  const auto findings = Analyze("src/serve/s.cc", kCc, kHeader);
  ASSERT_EQ(CountRule(findings, "lock-discipline"), 1u);
  EXPECT_EQ(findings[0].file, "src/serve/s.cc");
}

// ---------------------------------------------------------------- baseline

TEST(BaselineTest, ParsesEdgesAndFindings) {
  const Baseline b = ParseBaseline(
      "# comment\n"
      "\n"
      "edge util obs -- clip counters\n"
      "finding lock-discipline src/obs/trace.cc -- name aliasing\n");
  EXPECT_TRUE(b.errors.empty());
  EXPECT_EQ(b.edges.count({"util", "obs"}), 1u);
  EXPECT_EQ(b.findings.count({"lock-discipline", "src/obs/trace.cc"}), 1u);
}

TEST(BaselineTest, MalformedLinesReported) {
  const Baseline b = ParseBaseline(
      "edge util obs\n"                  // no justification
      "edge util -- why\n"               // missing module
      "wedge util obs -- why\n"          // unknown kind
      "edge util obs extra -- why\n");   // trailing token
  EXPECT_EQ(b.errors.size(), 4u);
}

TEST(BaselineTest, ApplyDropsMatchingFindings) {
  Baseline b;
  b.findings.emplace("lock-discipline", "src/obs/trace.cc");
  std::vector<Finding> in = {
      {"src/obs/trace.cc", 10, "lock-discipline", "m"},
      {"src/obs/trace.cc", 11, "propensity-taint", "m"},
      {"src/serve/s.cc", 12, "lock-discipline", "m"},
  };
  size_t suppressed = 0;
  const auto kept = ApplyBaseline(b, std::move(in), &suppressed);
  EXPECT_EQ(suppressed, 1u);
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].rule, "propensity-taint");
  EXPECT_EQ(kept[1].file, "src/serve/s.cc");
}

// ----------------------------------------------------------------- reports

TEST(ReportTest, JsonShape) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "propensity-taint", "uses \"p\""}};
  const std::string json = FindingsToJson(findings, 2);
  EXPECT_NE(json.find("\"schema\": \"dtrec-analyze-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"suppressed_baseline\": 2"), std::string::npos);
  EXPECT_NE(json.find("uses \\\"p\\\""), std::string::npos);
  EXPECT_EQ(FindingsToJson({}, 0),
            "{\"schema\": \"dtrec-analyze-v1\", \"count\": 0, "
            "\"suppressed_baseline\": 0, \"findings\": []}\n");
}

TEST(ReportTest, SarifRoundTripsThroughValidator) {
  const std::vector<Finding> findings = {
      {"src/a.cc", 3, "propensity-taint", "raw division"},
      {"src/b.h", 7, "layering-upward", "bad include"},
  };
  const std::string sarif = FindingsToSarif(findings);
  EXPECT_EQ(ValidateSarif(sarif), "") << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"dtrec_analyze\""), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 3"), std::string::npos);
  // Empty runs validate too (the shipped-tree case).
  EXPECT_EQ(ValidateSarif(FindingsToSarif({})), "");
}

TEST(ReportTest, ValidatorRejectsStructuralProblems) {
  EXPECT_NE(ValidateSarif("{}"), "");
  EXPECT_NE(ValidateSarif("{\"version\": \"2.1.0\"}"), "");
  EXPECT_NE(ValidateSarif("not json at all"), "");
  // A result whose ruleId was never declared must fail.
  std::string sarif = FindingsToSarif(
      {{"src/a.cc", 3, "propensity-taint", "m"}});
  const size_t pos = sarif.find("\"ruleId\": \"propensity-taint\"");
  ASSERT_NE(pos, std::string::npos);
  sarif.replace(pos, 31, "\"ruleId\": \"undeclared-rule-x\"");
  EXPECT_NE(ValidateSarif(sarif), "");
  // startLine 0 must fail.
  std::string zero = FindingsToSarif({{"src/a.cc", 0, "include-cycle", "m"}});
  EXPECT_NE(ValidateSarif(zero), "");
}

TEST(ReportTest, SarifValidatorSurvivesEveryTruncationAndByteFlip) {
  const std::string sarif = FindingsToSarif(
      {{"src/a.cc", 3, "propensity-taint", "raw \"division\""},
       {"src/b.h", 7, "include-guard", "missing guard"}});
  ASSERT_EQ(ValidateSarif(sarif), "");
  // Returning at all is the check for mutants that stay valid; a cut
  // before the final '}' leaves the document incomplete.
  const size_t closing = sarif.rfind('}');
  for (size_t len = 0; len <= closing; ++len) {
    EXPECT_NE(ValidateSarif(sarif.substr(0, len)), "") << "cut at " << len;
  }
  for (size_t pos = 0; pos < sarif.size(); ++pos) {
    std::string mutated = sarif;
    mutated[pos] ^= static_cast<char>(0xFF);
    (void)ValidateSarif(mutated);
  }
}

TEST(ReportTest, HashContentIsStableFnv1a) {
  EXPECT_EQ(HashContent(""), 14695981039346656037ULL);
  EXPECT_NE(HashContent("a"), HashContent("b"));
  EXPECT_EQ(HashContent("abc"), HashContent("abc"));
}

TEST(ReportTest, KnownRulesCoverEmittedRules) {
  const auto& known = KnownRules();
  for (const char* rule :
       {"propensity-taint", "layering-upward", "layering-cycle",
        "include-cycle", "lock-discipline", "banned-rand", "naked-new",
        "include-guard", "include-hygiene", "float-literal",
        "raw-ofstream-write", "raw-stderr-logging",
        "signal-unsafe-in-handler", "clang-tidy-config", "analyze-usage"}) {
    EXPECT_NE(std::find(known.begin(), known.end(), rule), known.end())
        << rule;
  }
}

// ------------------------------------------------------- whole-file driver

TEST(AnalyzeFileTest, IncludesExtractedWithKindAndLine) {
  const char* kSrc =
      "#include \"util/status.h\"\n"
      "#include <vector>\n"
      "// #include \"commented/out.h\"\n";
  const FileAnalysis fa = AnalyzeFile("src/core/f.cc", kSrc, "");
  ASSERT_EQ(fa.includes.size(), 2u);
  EXPECT_EQ(fa.includes[0].path, "util/status.h");
  EXPECT_TRUE(fa.includes[0].quoted);
  EXPECT_EQ(fa.includes[0].line, 1u);
  EXPECT_EQ(fa.includes[1].path, "vector");
  EXPECT_FALSE(fa.includes[1].quoted);
}

TEST(AnalyzeFileTest, FindingsAreSortedByLine) {
  const char* kSrc = R"(
struct S {
  std::mutex mu_;
  int t_ DTREC_GUARDED_BY(mu_);
  void A() { t_ = 1; }
};
double F(double x, double p_hat) { return x / p_hat; }
)";
  const auto findings = Analyze("src/serve/s.cc", kSrc);
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_LT(findings[0].line, findings[1].line);
}

}  // namespace
}  // namespace dtrec::analysis
