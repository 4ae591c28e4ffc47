#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/telemetry_validate.h"
#include "obs/watchdog.h"
#include "util/atomic_file.h"

namespace dtrec {
namespace {

using obs::AlertEvent;
using obs::AlertJsonLine;
using obs::ParseWatchdogRules;
using obs::WatchRule;
using obs::Watchdog;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// A deterministic clock the tests advance by hand. The watchdog copies
// the std::function, so the shared state lives behind a pointer.
struct FakeClock {
  std::shared_ptr<double> now = std::make_shared<double>(0.0);
  Watchdog::ClockFn fn() const {
    auto held = now;
    return [held] { return *held; };
  }
  void Advance(double s) { *now += s; }
};

Watchdog::Options WithClock(const FakeClock& clock,
                            const std::string& alerts_path = "") {
  Watchdog::Options options;
  options.clock = clock.fn();
  options.alerts_path = alerts_path;
  return options;
}

// ------------------------------------------------------------- parsing

TEST(WatchdogParseTest, EveryKindAndDriftParse) {
  std::vector<WatchRule> rules;
  const Status st = ParseWatchdogRules(
      "# comment line\n"
      "\n"
      "burn: p99:serve.total_us, 1, 5000, above   # trailing comment\n"
      "shed: rate:serve.shed/serve.requests, 0.5, 0.25, above\n"
      "storm: delta:serve.breaker.open_transitions, 2, 5, above\n"
      "depth: value:serve.queue_depth, 1, 100, above\n"
      "creep: drift:rate:clip.fired/clip.total, 1, 0.05, above\n"
      "dry: delta:serve.requests, 5, 1, below\n",
      &rules);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(rules.size(), 6u);

  EXPECT_EQ(rules[0].name, "burn");
  EXPECT_EQ(rules[0].kind, WatchRule::Kind::kHistogramStat);
  EXPECT_EQ(rules[0].stat, "p99");
  EXPECT_EQ(rules[0].metric_a, "serve.total_us");
  EXPECT_FALSE(rules[0].drift);
  EXPECT_DOUBLE_EQ(rules[0].window_s, 1.0);
  EXPECT_DOUBLE_EQ(rules[0].threshold, 5000.0);
  EXPECT_EQ(rules[0].direction, WatchRule::Direction::kAbove);

  EXPECT_EQ(rules[1].kind, WatchRule::Kind::kCounterRate);
  EXPECT_EQ(rules[1].metric_a, "serve.shed");
  EXPECT_EQ(rules[1].metric_b, "serve.requests");

  EXPECT_EQ(rules[2].kind, WatchRule::Kind::kCounterDelta);
  EXPECT_EQ(rules[3].kind, WatchRule::Kind::kGaugeValue);

  EXPECT_TRUE(rules[4].drift);
  EXPECT_EQ(rules[4].kind, WatchRule::Kind::kCounterRate);
  EXPECT_EQ(rules[4].expr, "rate:clip.fired/clip.total");  // sans drift:

  EXPECT_EQ(rules[5].direction, WatchRule::Direction::kBelow);
}

TEST(WatchdogParseTest, EmptyTextIsAValidEmptyRuleSet) {
  std::vector<WatchRule> rules = {WatchRule{}};
  ASSERT_TRUE(ParseWatchdogRules("# only comments\n\n", &rules).ok());
  EXPECT_TRUE(rules.empty());  // cleared, not appended to
}

TEST(WatchdogParseTest, ErrorsNameTheOffendingLine) {
  std::vector<WatchRule> rules;
  struct Case {
    const char* text;
    const char* needle;
  };
  const Case cases[] = {
      {"ok: delta:a, 1, 1, above\nbad line without colon, 1, 1, above\n",
       "line 2"},
      {"r: delta:a, 1, 1\n", "line 1"},                 // missing direction
      {"r: delta:a, 1, 1, sideways\n", "'above' or 'below'"},
      {"r: delta:a, -1, 1, above\n", "window_s"},
      {"r: delta:a, 1, not_a_number, above\n", "threshold"},
      {"r: p42:a, 1, 1, above\n", "unknown metric kind"},
      {"r: rate:only_numerator, 1, 1, above\n", "rate:"},
      {"r: nometric, 1, 1, above\n", "<kind>:<name>"},
  };
  for (const Case& c : cases) {
    const Status st = ParseWatchdogRules(c.text, &rules);
    ASSERT_FALSE(st.ok()) << c.text;
    EXPECT_NE(st.message().find(c.needle), std::string::npos)
        << "want '" << c.needle << "' in: " << st.ToString();
  }
}

// ------------------------------------------------------- alert records

TEST(WatchdogAlertJsonTest, LineRoundTripsThroughTheValidator) {
  AlertEvent event;
  event.rule = "shed_spike";
  event.expr = "rate:serve.shed/serve.requests";
  event.context = "saturation_flood";
  event.direction = "above";
  event.value = 0.82;
  event.threshold = 0.25;
  event.window_s = 0.5;
  event.has_baseline = false;
  event.at_s = 12.5;
  const std::string line = AlertJsonLine(event) + "\n";
  size_t records = 0;
  std::set<std::string> rule_names;
  std::set<std::string> contexts;
  const Status st =
      obs::ValidateAlertsJsonl(line, &records, &rule_names, &contexts);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << line;
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(rule_names.count("shed_spike"), 1u);
  EXPECT_EQ(contexts.count("saturation_flood"), 1u);
  EXPECT_NE(line.find("\"baseline\": null"), std::string::npos);

  // With a baseline the null becomes a number, still valid.
  event.has_baseline = true;
  event.baseline = 0.01;
  const std::string drift_line = AlertJsonLine(event) + "\n";
  EXPECT_TRUE(obs::ValidateAlertsJsonl(drift_line).ok()) << drift_line;
  EXPECT_NE(drift_line.find("\"baseline\": 0.01"), std::string::npos);
}

TEST(WatchdogAlertJsonTest, EmptyStreamIsValid) {
  size_t records = 7;
  ASSERT_TRUE(obs::ValidateAlertsJsonl("", &records).ok());
  EXPECT_EQ(records, 0u);
}

// ----------------------------------------------------------- evaluation

std::vector<WatchRule> MustParse(const std::string& text) {
  std::vector<WatchRule> rules;
  const Status st = ParseWatchdogRules(text, &rules);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return rules;
}

TEST(WatchdogAlertJsonTest, QuotedRuleNameAndInfiniteValueStayJson) {
  // The rules grammar accepts any rule name, and a gauge can hold +inf;
  // neither may break the alert line.
  obs::MetricsRegistry registry;
  registry.GetGauge("w.g")->Set(std::numeric_limits<double>::infinity());
  FakeClock clock;
  Watchdog dog(&registry, MustParse("my\"rule: value:w.g, 1, 0, above\n"),
               WithClock(clock));
  dog.Poll();  // prime
  clock.Advance(1.0);
  ASSERT_EQ(dog.Poll(), 1u);
  const std::string line = AlertJsonLine(dog.alerts()[0]) + "\n";
  std::set<std::string> rule_names;
  const Status st = obs::ValidateAlertsJsonl(line, nullptr, &rule_names);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << line;
  EXPECT_EQ(rule_names, std::set<std::string>{"my\"rule"});
}

TEST(WatchdogEvalTest, FirstPollPrimesWithoutAlerting) {
  obs::MetricsRegistry registry;
  registry.GetCounter("w.requests")->Increment(1000);
  FakeClock clock;
  Watchdog dog(&registry,
               MustParse("big: delta:w.requests, 1, 1, above\n"),
               WithClock(clock));
  // All 1000 increments predate the first poll: priming must swallow
  // them, not alert on history.
  EXPECT_EQ(dog.Poll(), 0u);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 0u);  // nothing moved inside the window
  registry.GetCounter("w.requests")->Increment(5);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 1u);
  EXPECT_EQ(dog.fired_count("big"), 1u);
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 5.0);
}

TEST(WatchdogEvalTest, WindowGatesPollButNotForceEvaluate) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("w.count");
  FakeClock clock;
  Watchdog dog(&registry, MustParse("r: delta:w.count, 10, 0.5, above\n"),
               WithClock(clock));
  dog.Poll();  // prime
  c->Increment(3);
  clock.Advance(1.0);           // well inside the 10 s window
  EXPECT_EQ(dog.Poll(), 0u);    // window not elapsed: skipped
  EXPECT_EQ(dog.ForceEvaluate(), 1u);  // forced: evaluates now
}

TEST(WatchdogEvalTest, BothDirectionsFire) {
  obs::MetricsRegistry registry;
  registry.GetGauge("w.depth")->Set(50.0);
  FakeClock clock;
  Watchdog dog(&registry,
               MustParse("high: value:w.depth, 1, 40, above\n"
                         "low: value:w.depth, 1, 60, below\n"),
               WithClock(clock));
  dog.Poll();  // prime
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 2u);  // 50 > 40 and 50 < 60
  EXPECT_EQ(dog.fired_count("high"), 1u);
  EXPECT_EQ(dog.fired_count("low"), 1u);
  EXPECT_EQ(dog.fired_count(), 2u);

  // At the threshold exactly, neither fires (strict comparison).
  registry.GetGauge("w.depth")->Set(40.0);
  clock.Advance(1.0);
  Watchdog at(&registry, MustParse("edge: value:w.depth, 1, 40, above\n"),
              WithClock(clock));
  at.Poll();
  clock.Advance(1.0);
  EXPECT_EQ(at.Poll(), 0u);
}

TEST(WatchdogEvalTest, HistogramStatUsesTheWindowDeltaOnly) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("w.lat");
  // A slow pre-history that must not leak into the windowed p99.
  for (int i = 0; i < 100; ++i) h->Record(9000.0);
  FakeClock clock;
  Watchdog dog(&registry, MustParse("burn: p99:w.lat, 1, 5000, above\n"),
               WithClock(clock));
  dog.Poll();  // prime: swallows the slow history
  for (int i = 0; i < 100; ++i) h->Record(10.0);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 0u);  // the window itself was fast
  for (int i = 0; i < 100; ++i) h->Record(8000.0);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 1u);
  ASSERT_EQ(dog.alerts().size(), 1u);
  EXPECT_GT(dog.alerts()[0].value, 5000.0);
}

TEST(WatchdogEvalTest, NoSignalWindowsAreSkippedNotAlerted) {
  obs::MetricsRegistry registry;
  registry.GetHistogram("w.lat");
  registry.GetCounter("w.shed");
  registry.GetCounter("w.requests");
  FakeClock clock;
  // Both rules point "below", which is exactly where a no-signal window
  // would false-positive if it evaluated as zero.
  Watchdog dog(&registry,
               MustParse("lat_floor: p50:w.lat, 1, 100, below\n"
                         "shed_rate: rate:w.shed/w.requests, 1, 2, below\n"),
               WithClock(clock));
  dog.Poll();  // prime
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 0u);  // empty histogram + unmoved denominator
  // Once there is signal, the below rules do fire.
  registry.GetHistogram("w.lat")->Record(5.0);
  registry.GetCounter("w.requests")->Increment(10);
  registry.GetCounter("w.shed")->Increment(1);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 2u);
}

TEST(WatchdogEvalTest, CounterResetReprimesInsteadOfWrapping) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("w.count");
  c->Increment(100);
  FakeClock clock;
  // "below 50" would fire on a wrapped/negative delta if reset handling
  // were broken.
  Watchdog dog(&registry, MustParse("drop: delta:w.count, 1, 50, below\n"),
               WithClock(clock));
  dog.Poll();  // prime at 100
  c->Reset();
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 0u);  // re-primed at 0, no alert
  c->Increment(10);
  clock.Advance(1.0);
  EXPECT_EQ(dog.Poll(), 1u);  // an honest small delta now fires
  EXPECT_DOUBLE_EQ(dog.alerts()[0].value, 10.0);
}

TEST(WatchdogEvalTest, DriftComparesAgainstTrailingBaseline) {
  obs::MetricsRegistry registry;
  obs::Counter* fired = registry.GetCounter("w.clip.fired");
  obs::Counter* total = registry.GetCounter("w.clip.total");
  FakeClock clock;
  Watchdog dog(
      &registry,
      MustParse("creep: drift:rate:w.clip.fired/w.clip.total, 1, 0.05, "
                "above\n"),
      WithClock(clock));
  dog.Poll();  // prime

  // Three steady windows at 1% clip rate: the first is baseline-only and
  // the rest sit on the baseline, so nothing fires.
  for (int w = 0; w < 3; ++w) {
    total->Increment(1000);
    fired->Increment(10);
    clock.Advance(1.0);
    EXPECT_EQ(dog.Poll(), 0u) << "steady window " << w;
  }

  // A window at 21% is +0.20 over the trailing 1% baseline: fires, and
  // the alert's value is the deviation with the baseline attached.
  total->Increment(1000);
  fired->Increment(210);
  clock.Advance(1.0);
  ASSERT_EQ(dog.Poll(), 1u);
  const AlertEvent alert = dog.alerts()[0];
  EXPECT_TRUE(alert.has_baseline);
  EXPECT_NEAR(alert.baseline, 0.01, 1e-9);
  EXPECT_NEAR(alert.value, 0.20, 1e-9);
  EXPECT_NE(AlertJsonLine(alert).find("\"baseline\": 0.01"),
            std::string::npos);
}

TEST(WatchdogEvalTest, ContextTagsAlerts) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("w.count");
  FakeClock clock;
  Watchdog dog(&registry, MustParse("r: delta:w.count, 1, 0.5, above\n"),
               WithClock(clock));
  dog.SetContext("capacity");
  dog.Poll();  // prime
  c->Increment(1);
  clock.Advance(1.0);
  ASSERT_EQ(dog.Poll(), 1u);
  dog.SetContext("saturation_flood");
  c->Increment(1);
  clock.Advance(1.0);
  ASSERT_EQ(dog.Poll(), 1u);
  ASSERT_EQ(dog.alerts().size(), 2u);
  EXPECT_EQ(dog.alerts()[0].context, "capacity");
  EXPECT_EQ(dog.alerts()[1].context, "saturation_flood");
}

// ------------------------------------------------------------ JSONL sink

TEST(WatchdogSinkTest, AlertFreeRunLeavesAValidEmptyArtifact) {
  const std::string path = TempPath("watchdog_test_empty.jsonl");
  {
    obs::MetricsRegistry registry;
    FakeClock clock;
    Watchdog dog(&registry, MustParse(""), WithClock(clock, path));
    dog.Poll();
  }
  std::string content;
  ASSERT_TRUE(ReadFile(path, &content).ok());
  size_t records = 99;
  ASSERT_TRUE(obs::ValidateAlertsJsonl(content, &records).ok());
  EXPECT_EQ(records, 0u);
  std::remove(path.c_str());
}

TEST(WatchdogSinkTest, FiredAlertsStreamToDiskAndTruncateOnReopen) {
  const std::string path = TempPath("watchdog_test_alerts.jsonl");
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("w.count");
  {
    FakeClock clock;
    Watchdog dog(&registry, MustParse("r: delta:w.count, 1, 0.5, above\n"),
                 WithClock(clock, path));
    dog.SetContext("phase_a");
    dog.Poll();  // prime
    c->Increment(2);
    clock.Advance(1.0);
    ASSERT_EQ(dog.Poll(), 1u);
  }
  std::string content;
  ASSERT_TRUE(ReadFile(path, &content).ok());
  size_t records = 0;
  std::set<std::string> rule_names;
  std::set<std::string> contexts;
  ASSERT_TRUE(
      obs::ValidateAlertsJsonl(content, &records, &rule_names, &contexts)
          .ok())
      << content;
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(rule_names.count("r"), 1u);
  EXPECT_EQ(contexts.count("phase_a"), 1u);

  // A fresh watchdog on the same path truncates: stale alerts from a
  // previous run must not survive into the new artifact.
  {
    obs::MetricsRegistry registry2;
    FakeClock clock;
    Watchdog dog(&registry2, MustParse(""), WithClock(clock, path));
  }
  ASSERT_TRUE(ReadFile(path, &content).ok());
  ASSERT_TRUE(obs::ValidateAlertsJsonl(content, &records).ok());
  EXPECT_EQ(records, 0u);
  std::remove(path.c_str());
}

// ------------------------------------------------------- periodic thread

TEST(WatchdogThreadTest, StartPollsInBackgroundAndStopJoins) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("w.count");
  c->Increment(100);
  // Real clock here: the periodic thread sleeps in real time. A 1 ms
  // period with an always-armed gauge rule fires within any sane
  // scheduling latency.
  Watchdog dog(&registry,
               MustParse("r: delta:w.count, 0.001, 0.5, above\n"));
  ASSERT_TRUE(dog.Start(0.001).ok());
  EXPECT_FALSE(dog.Start(0.001).ok());  // double-start refused
  // Wait for the prime pass, then feed it a delta to alert on.
  for (int i = 0; i < 2000 && dog.fired_count() == 0; ++i) {
    c->Increment(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  dog.Stop();
  EXPECT_GE(dog.fired_count(), 1u);
  const size_t after_stop = dog.fired_count();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(dog.fired_count(), after_stop);  // thread really stopped
  // Stop() is idempotent and a stopped watchdog can restart.
  dog.Stop();
  ASSERT_TRUE(dog.Start(0.001).ok());
  dog.Stop();
}

}  // namespace
}  // namespace dtrec
