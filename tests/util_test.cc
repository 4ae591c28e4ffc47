#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/telemetry_validate.h"
#include "util/json.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"
#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace dtrec {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad dim");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad dim");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad dim");
}

TEST(StatusTest, AllFactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotSupported("x").code(), StatusCode::kNotSupported);
}

TEST(StatusTest, StreamInsertion) {
  std::ostringstream os;
  os << Status::NotFound("missing");
  EXPECT_EQ(os.str(), "NotFound: missing");
}

Status FailsThenPropagates() {
  DTREC_RETURN_IF_ERROR(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(FailsThenPropagates().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

#ifndef NDEBUG
TEST(ResultDeathTest, ValueOnErrorDies) {
  // All three value() overloads guard against reading an error Result.
  Result<int> r = Status::Internal("boom");
  EXPECT_DEATH((void)r.value(), "value\\(\\) called on error Result");
  const Result<int>& cr = r;
  EXPECT_DEATH((void)cr.value(), "value\\(\\) called on error Result");
  EXPECT_DEATH((void)std::move(r).value(),
               "value\\(\\) called on error Result");
}
#endif

// ---------------------------------------------------------------- Strings

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.3f", 1.23456), "1.235");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringUtilTest, JoinAndSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  const auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(Split("", ',').size(), 1u);
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y\t\n"), "x y");
  EXPECT_EQ(StripWhitespace("   "), "");
}

TEST(StringUtilTest, FormatDoubleAndStartsWith) {
  EXPECT_EQ(FormatDouble(0.123456, 4), "0.1235");
  EXPECT_TRUE(StartsWith("DT-IPS", "DT-"));
  EXPECT_FALSE(StartsWith("IPS", "DT-"));
  EXPECT_FALSE(StartsWith("D", "DT-"));
}

// ---------------------------------------------------------------- MathUtil

TEST(MathUtilTest, SigmoidStableAndCorrect) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_NEAR(Sigmoid(2.0), 1.0 / (1.0 + std::exp(-2.0)), 1e-15);
  EXPECT_NEAR(Sigmoid(-800.0), 0.0, 1e-12);  // no overflow
  EXPECT_NEAR(Sigmoid(800.0), 1.0, 1e-12);
}

TEST(MathUtilTest, LogitInvertsSigmoid) {
  for (double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
    EXPECT_NEAR(Sigmoid(Logit(p)), p, 1e-12);
  }
}

TEST(MathUtilTest, Log1pExpMatchesNaiveInSafeRange) {
  for (double x : {-5.0, -1.0, 0.0, 1.0, 5.0}) {
    EXPECT_NEAR(Log1pExp(x), std::log1p(std::exp(x)), 1e-12);
  }
  EXPECT_NEAR(Log1pExp(1000.0), 1000.0, 1e-9);  // no overflow
}

TEST(MathUtilTest, BinaryCrossEntropyClampsProbabilities) {
  EXPECT_NEAR(BinaryCrossEntropy(1.0, 0.5), std::log(2.0), 1e-12);
  EXPECT_TRUE(std::isfinite(BinaryCrossEntropy(1.0, 0.0)));
  EXPECT_TRUE(std::isfinite(BinaryCrossEntropy(0.0, 1.0)));
}

TEST(MathUtilTest, NormalPdfPeak) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(NormalPdf(1.0), NormalPdf(-1.0), 1e-15);
}

// ---------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  EXPECT_NE(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.UniformUint64(10), 10u);
  }
}

TEST(RngTest, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double total = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += rng.Uniform();
  EXPECT_NEAR(total / n, 0.5, 0.01);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(19);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto original = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  const auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RngTest, SampleAllElements) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(31), b(31);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  EXPECT_EQ(fa.NextUint64(), fb.NextUint64());
}

// ---------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch watch;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
  EXPECT_GE(watch.ElapsedMillis(), watch.ElapsedSeconds());
  watch.Restart();
  EXPECT_LT(watch.ElapsedSeconds(), 1.0);
}

// ---------------------------------------------------------------- Tables

TEST(TableWriterTest, ConsoleRendering) {
  TableWriter table("Demo");
  table.SetHeader({"Method", "AUC"});
  table.AddRow({"MF", "0.70"});
  table.AddRow({"DT-DR", "0.74"});
  std::ostringstream os;
  table.RenderConsole(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("== Demo =="), std::string::npos);
  EXPECT_NE(out.find("DT-DR"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableWriterTest, CsvEscaping) {
  TableWriter table("T");
  table.SetHeader({"a", "b"});
  table.AddRow({"x,y", "he said \"hi\""});
  std::ostringstream os;
  table.RenderCsv(os);
  EXPECT_EQ(os.str(), "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
}

TEST(TableWriterTest, WriteCsvFileFailsOnBadPath) {
  TableWriter table("T");
  table.SetHeader({"a"});
  const Status st = table.WriteCsvFile("/nonexistent_dir_xyz/out.csv");
  EXPECT_FALSE(st.ok());
  // Routed through WriteFileAtomic, which reports the failed mkstemp/open
  // syscall as an internal error (not a caller-argument problem).
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(TableWriterTest, WriteCsvFileRoundTrip) {
  TableWriter table("T");
  table.SetHeader({"k", "v"});
  table.AddRow({"x", "1"});
  const std::string path = testing::TempDir() + "/dtrec_table.csv";
  ASSERT_TRUE(table.WriteCsvFile(path).ok());
}

// --------------------------------------------------------- NumericGuard

/// Minimal stand-in satisfying the MatLike shape the guards expect, so
/// util_test does not grow a dependency on tensor/.
struct TinyMat {
  std::vector<double> v;
  size_t r = 1;
  size_t size() const { return v.size(); }
  double at_flat(size_t i) const { return v[i]; }
  size_t rows() const { return r; }
  size_t cols() const { return r == 0 ? 0 : v.size() / r; }
};

TEST(NumericGuardTest, FlagMatchesBuildConfig) {
#ifdef DTREC_NUMERIC_CHECKS
  EXPECT_TRUE(kNumericChecksEnabled);
#else
  EXPECT_FALSE(kNumericChecksEnabled);
#endif
}

TEST(NumericGuardTest, FirstNonFiniteLocatesBadEntry) {
  const TinyMat ok{{1.0, -2.5, 0.0}, 1};
  EXPECT_EQ(numeric_internal::FirstNonFinite(ok), ok.size());
  const TinyMat bad{{1.0, std::nan(""), 3.0}, 1};
  EXPECT_EQ(numeric_internal::FirstNonFinite(bad), 1u);
  const TinyMat inf{{1.0, 2.0, HUGE_VAL}, 1};
  EXPECT_EQ(numeric_internal::FirstNonFinite(inf), 2u);
}

TEST(NumericGuardTest, WellFormedValuesPassInEveryBuild) {
  // These must be silent no-ops whether or not checks are compiled in.
  const TinyMat m{{0.0, 1.0, -3.5, 2.0}, 2};
  const TinyMat same_shape{{9.0, 9.0, 9.0, 9.0}, 2};
  DTREC_ASSERT_FINITE(m, "util_test");
  DTREC_ASSERT_FINITE_VAL(42.0, "util_test");
  DTREC_ASSERT_PROPENSITY(0.5);
  DTREC_ASSERT_PROPENSITY(1.0);
  DTREC_ASSERT_SHAPE(m, same_shape);
}

#ifdef DTREC_NUMERIC_CHECKS

TEST(NumericGuardDeathTest, NonFiniteMatrixAbortsNamingTheOp) {
  const TinyMat bad{{1.0, std::nan(""), 3.0}, 1};
  EXPECT_DEATH(DTREC_ASSERT_FINITE(bad, "UnitTestOp"),
               "numeric check failed.*UnitTestOp.*flat index 1");
}

TEST(NumericGuardDeathTest, NonFiniteScalarAborts) {
  EXPECT_DEATH(DTREC_ASSERT_FINITE_VAL(std::nan(""), "ScalarOp"), "ScalarOp");
}

TEST(NumericGuardDeathTest, PropensityOutsideUnitIntervalAborts) {
  EXPECT_DEATH(DTREC_ASSERT_PROPENSITY(0.0), "outside \\(0, 1\\]");
  EXPECT_DEATH(DTREC_ASSERT_PROPENSITY(1.5), "outside \\(0, 1\\]");
  EXPECT_DEATH(DTREC_ASSERT_PROPENSITY(std::nan("")), "outside \\(0, 1\\]");
}

TEST(NumericGuardDeathTest, ShapeMismatchAborts) {
  const TinyMat a{{1.0, 2.0}, 1};
  const TinyMat b{{1.0, 2.0, 3.0}, 1};
  EXPECT_DEATH(DTREC_ASSERT_SHAPE(a, b), "shape mismatch");
}

#else  // !DTREC_NUMERIC_CHECKS

TEST(NumericGuardTest, NoOpBuildNeverEvaluatesArguments) {
  int evals = 0;
  auto poisoned = [&evals]() {
    ++evals;
    return TinyMat{{std::nan("")}, 1};
  };
  // In an unchecked build the macros expand to unevaluated sizeof, so the
  // call below must not run and the NaN must not be inspected.
  DTREC_ASSERT_FINITE(poisoned(), "unused");
  DTREC_ASSERT_FINITE_VAL((++evals, std::nan("")), "unused");
  DTREC_ASSERT_PROPENSITY((++evals, -1.0));
  EXPECT_EQ(evals, 0);
}

#endif  // DTREC_NUMERIC_CHECKS

// ------------------------------------------------------------------ JSON

/// True when `text` is exactly one JSON number; its value lands in `out`.
bool ReadsAsNumber(const std::string& text, double* out) {
  json::Cursor cur{text};
  *out = cur.ParseNumber();
  return cur.ok && cur.AtEnd();
}

/// ParseString over `text`; `ok` is false unless it is exactly one string.
std::string ReadString(const std::string& text, bool* ok) {
  json::Cursor cur{text};
  const std::string out = cur.ParseString();
  *ok = cur.ok && cur.AtEnd();
  return out;
}

TEST(JsonTest, NumbersFollowTheRfc8259GrammarAndAreFinite) {
  const std::vector<std::pair<std::string, double>> accepted = {
      {"0", 0.0},        {"-0", 0.0},       {"7", 7.0},
      {"-12", -12.0},    {"3.25", 3.25},    {"1e3", 1000.0},
      {"1E+3", 1000.0},  {"2.5e-1", 0.25},  {" 42 ", 42.0},
      {"0.1", 0.1},      {"1.7976931348623157e308", 1.7976931348623157e308}};
  for (const auto& [text, want] : accepted) {
    double v = -1.0;
    EXPECT_TRUE(ReadsAsNumber(text, &v)) << text;
    EXPECT_EQ(v, want) << text;
  }
  const std::vector<std::string> rejected = {
      "",     "-",     "+1",   ".5",       "5.",       "01",    "1e",
      "1e+",  "0x1p4", "0x10", "nan",      "NaN",      "inf",   "-inf",
      "Infinity", "infinity", "1e999", "-1e999", "1.5.2", "--1", "1 2",
      "true"};
  for (const std::string& text : rejected) {
    double v = 0.0;
    EXPECT_FALSE(ReadsAsNumber(text, &v)) << text;
  }
}

TEST(JsonTest, EscapeRoundTripsEveryByte) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    all += one;
    bool ok = false;
    EXPECT_EQ(ReadString("\"" + json::Escape(one) + "\"", &ok), one)
        << "byte " << b;
    EXPECT_TRUE(ok) << "byte " << b;
  }
  bool ok = false;
  EXPECT_EQ(ReadString("\"" + json::Escape(all) + "\"", &ok), all);
  EXPECT_TRUE(ok);
}

TEST(JsonTest, StringsDecodeEscapesAndRejectRawControlBytes) {
  const std::vector<std::pair<std::string, std::string>> decoded = {
      {R"("a\nb")", "a\nb"},
      {R"("\"\\\/\b\f\n\r\t")", "\"\\/\b\f\n\r\t"},
      {R"("a\u0001b")", std::string("a\x01", 2) + "b"},
      {R"("\u00e9")", "\xc3\xa9"},
      {R"("\u20AC")", "\xe2\x82\xac"},
      {R"("\ud83d\ude00")", "\xf0\x9f\x98\x80"}};
  for (const auto& [text, want] : decoded) {
    bool ok = false;
    EXPECT_EQ(ReadString(text, &ok), want) << text;
    EXPECT_TRUE(ok) << text;
  }
  for (const std::string& text :
       {std::string("\"a\nb\""), std::string("\"a\tb\""),
        std::string(R"("\x41")"), std::string(R"("\u12")"),
        std::string(R"("\ud83d")"), std::string(R"("\ude00x")"),
        std::string("\"abc"), std::string("\"\\")}) {
    bool ok = true;
    ReadString(text, &ok);
    EXPECT_FALSE(ok) << text;
  }
}

TEST(JsonTest, SkipValueBoundsNestingInsteadOfOverflowingTheStack) {
  const auto nested = [](size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  const std::string limit = nested(json::Cursor::kMaxDepth);
  json::Cursor shallow{limit};
  shallow.SkipValue();
  EXPECT_TRUE(shallow.ok && shallow.AtEnd());
  // Deep enough to overflow the stack of an unbounded recursive reader.
  const std::string deep = "{\"x\": " + nested(1'000'000) + "}";
  json::Cursor cur{deep};
  cur.SkipValue();
  EXPECT_FALSE(cur.ok);
  EXPECT_FALSE(obs::ValidateMetricsJson(deep).ok());
}

TEST(JsonTest, NumberWritesNonFiniteAsZeroAndRoundTrips) {
  EXPECT_EQ(json::Number(std::nan("")), "0");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(json::Number(-std::numeric_limits<double>::infinity()), "0");
  for (const double v : {0.1, -2.5e-300, 1.0 / 3.0, 123456789.0}) {
    double back = 0.0;
    ASSERT_TRUE(ReadsAsNumber(json::Number(v), &back)) << v;
    EXPECT_EQ(back, v);
  }
}

TEST(JsonTest, MetricsValidatorRejectsNonJsonNumbers) {
  const std::string head = R"({"schema": "dtrec-metrics-v1", "counters": )";
  const std::string tail = R"(, "histograms": {}})";
  EXPECT_TRUE(obs::ValidateMetricsJson(
                  head + R"({"c": 3}, "gauges": {"g": 0.5})" + tail)
                  .ok());
  for (const char* bad :
       {R"({"c": 3}, "gauges": {"g": nan})",
        R"({"c": infinity}, "gauges": {"g": 0.5})",
        R"({"c": 3}, "gauges": {"g": 0x1p4})"}) {
    EXPECT_FALSE(obs::ValidateMetricsJson(head + bad + tail).ok()) << bad;
  }
}

TEST(JsonTest, AlertsValidatorRejectsNan) {
  const std::string line =
      R"({"schema": "dtrec-alerts-v1", "rule": "r", "expr": "value:g", )"
      R"("context": "", "value": VALUE, "threshold": 1, )"
      R"("direction": "above", "window_s": 1, "baseline": null, "at_s": 0})"
      "\n";
  const auto with = [&line](const std::string& value) {
    std::string out = line;
    out.replace(out.find("VALUE"), 5, value);
    return out;
  };
  EXPECT_TRUE(obs::ValidateAlertsJsonl(with("2.5")).ok());
  EXPECT_FALSE(obs::ValidateAlertsJsonl(with("nan")).ok());
}

TEST(JsonTest, TraceValidatorDecodesSpanNames) {
  const auto trace = [](const std::string& name) {
    return R"({"traceEvents": [{"name": ")" + name +
           R"(", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]})";
  };
  std::set<std::string> names;
  ASSERT_TRUE(obs::ValidateTraceJson(trace(R"(a\nb)"), nullptr, &names).ok());
  EXPECT_EQ(names, std::set<std::string>{"a\nb"});
  ASSERT_TRUE(
      obs::ValidateTraceJson(trace(R"(a\u0001b)"), nullptr, &names).ok());
  EXPECT_EQ(names, std::set<std::string>{std::string("a\x01", 2) + "b"});
  EXPECT_FALSE(obs::ValidateTraceJson(trace("a\nb")).ok());
}

}  // namespace
}  // namespace dtrec
