#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/prop_stats.h"
#include "obs/telemetry_validate.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "util/math_util.h"

namespace dtrec {
namespace {

using obs::Histogram;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Histogram

TEST(ObsHistogramTest, PercentilesAreOrderedAndBracketTheData) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_LE(s.p50_us, s.p95_us);
  EXPECT_LE(s.p95_us, s.p99_us);
  EXPECT_LE(s.p99_us, s.max_us);
  // Geometric buckets guarantee ≤25% relative error on any percentile.
  EXPECT_NEAR(s.p50_us, 500.0, 150.0);
  EXPECT_NEAR(s.p95_us, 950.0, 250.0);
  EXPECT_NEAR(s.max_us, 1000.0, 1.0);
}

TEST(ObsHistogramTest, MeanIsExactNotBucketed) {
  Histogram h;
  h.Record(10.0);
  h.Record(20.0);
  h.Record(30.0);
  // The mean comes from the true sum (milli-resolution), not bucket
  // midpoints, and count/sum come from one snapshot so they cannot tear.
  EXPECT_NEAR(h.Summarize().mean_us, 20.0, 1e-3);
}

TEST(ObsHistogramTest, SnapshotDeltaSinceIsolatesAnInterval) {
  Histogram h;
  h.Record(5.0);
  const Histogram::Snapshot before = h.TakeSnapshot();
  h.Record(100.0);
  h.Record(200.0);
  const Histogram::Snapshot delta = h.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.count, 2u);
  const Histogram::Summary s = Histogram::Summarize(delta);
  EXPECT_EQ(s.count, 2u);
  EXPECT_NEAR(s.mean_us, 150.0, 1e-3);
}

TEST(ObsHistogramTest, MergeFoldsCountsSumAndMax) {
  Histogram a, b;
  a.Record(10.0);
  b.Record(30.0);
  b.Record(50.0);
  a.Merge(b);
  const Histogram::Summary s = a.Summarize();
  EXPECT_EQ(s.count, 3u);
  EXPECT_NEAR(s.mean_us, 30.0, 1e-3);
  EXPECT_NEAR(s.max_us, 50.0, 1e-3);
  // The source histogram is unchanged.
  EXPECT_EQ(b.Summarize().count, 2u);
}

TEST(ObsHistogramTest, ResetZeroesEverything) {
  Histogram h;
  h.Record(42.0);
  h.Reset();
  const Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean_us, 0.0);
  EXPECT_EQ(s.max_us, 0.0);
}

TEST(ObsHistogramTest, ConcurrentRecordersLoseNothing) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.Record(1.0 + i % 100);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.Summarize().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ---------------------------------------------------------------------------
// Exemplars: per-bucket links from a latency bucket back to the trace id
// of the worst recent sample that landed there.

TEST(ObsExemplarTest, CapturedAndFoundNearTheTailPercentile) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  h.Record(5000.0, /*exemplar_trace_id=*/0xABCull);
  const Histogram::Exemplar ex = Histogram::ExemplarNear(h.TakeSnapshot(),
                                                         0.99);
  ASSERT_TRUE(ex.valid());
  EXPECT_EQ(ex.trace_id, 0xABCull);
  EXPECT_NEAR(ex.value(), 5000.0, 1e-3);
}

TEST(ObsExemplarTest, EmptyOrIdLessSnapshotsHaveNoExemplar) {
  Histogram h;
  EXPECT_FALSE(Histogram::ExemplarNear(h.TakeSnapshot(), 0.99).valid());
  h.Record(10.0);  // no trace id offered
  EXPECT_FALSE(Histogram::ExemplarNear(h.TakeSnapshot(), 0.99).valid());
}

TEST(ObsExemplarTest, TiesAdmitTheNewerSampleWorseValuesDisplace) {
  Histogram h;
  h.Record(10.0, 0xAull);
  h.Record(10.0, 0xBull);  // same bucket, same value: newer id wins
  Histogram::Exemplar ex = Histogram::ExemplarNear(h.TakeSnapshot(), 0.5);
  EXPECT_EQ(ex.trace_id, 0xBull);
  h.Record(11.0, 0xCull);  // same bucket (10 and 11 share it), worse value
  ex = Histogram::ExemplarNear(h.TakeSnapshot(), 0.5);
  EXPECT_EQ(ex.trace_id, 0xCull);
  // A smaller sample in the same bucket must not displace the maximum.
  h.Record(10.0, 0xDull);
  ex = Histogram::ExemplarNear(h.TakeSnapshot(), 0.5);
  EXPECT_EQ(ex.trace_id, 0xCull);
}

TEST(ObsExemplarTest, DeltaSinceDropsExemplarsOfUntouchedBuckets) {
  Histogram h;
  h.Record(1000.0, 0xAAull);  // pre-window slow request
  const Histogram::Snapshot before = h.TakeSnapshot();
  h.Record(2.0, 0xBBull);  // the only sample inside the window
  const Histogram::Snapshot delta = h.TakeSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.count, 1u);
  // The stale 1000 µs exemplar is gone — its bucket did not move in the
  // interval — so exactly one bucket carries an exemplar: 0xBB's.
  size_t valid = 0;
  for (const Histogram::Exemplar& e : delta.exemplars) {
    if (e.valid()) {
      ++valid;
      EXPECT_EQ(e.trace_id, 0xBBull);
    }
  }
  EXPECT_EQ(valid, 1u);
  EXPECT_EQ(Histogram::ExemplarNear(delta, 0.999).trace_id, 0xBBull);
}

TEST(ObsExemplarTest, MergeKeepsTheWorsePerBucketAndFillsEmptySlots) {
  Histogram a, b;
  a.Record(10.0, 0xAull);
  b.Record(11.0, 0xBull);   // same bucket as 10.0, worse value
  b.Record(500.0, 0xCull);  // bucket a has never seen
  a.Merge(b);
  const Histogram::Snapshot snap = a.TakeSnapshot();
  EXPECT_EQ(Histogram::ExemplarNear(snap, 0.2).trace_id, 0xBull);
  EXPECT_EQ(Histogram::ExemplarNear(snap, 0.99).trace_id, 0xCull);
  EXPECT_EQ(snap.count, 3u);
}

TEST(ObsExemplarTest, ResetClearsExemplars) {
  Histogram h;
  h.Record(10.0, 0xAull);
  h.Reset();
  h.Record(10.0);  // repopulate the bucket without an id
  EXPECT_FALSE(Histogram::ExemplarNear(h.TakeSnapshot(), 0.5).valid());
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(ObsMetricsTest, CounterAndGaugeBasics) {
  obs::Counter c;
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(c.Value(), 5u);
  c.Set(17);
  EXPECT_EQ(c.Value(), 17u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);

  obs::Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.Value(), 2.5);
}

TEST(ObsMetricsTest, RegistryReturnsStablePointers) {
  obs::MetricsRegistry registry;
  obs::Counter* c1 = registry.GetCounter("test.requests");
  c1->Increment(3);
  // Registering more metrics must not invalidate c1 (std::map nodes).
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("test.filler." + std::to_string(i));
  }
  obs::Counter* c2 = registry.GetCounter("test.requests");
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(c2->Value(), 3u);
}

TEST(ObsMetricsTest, ConcurrentRegistrationAndIncrement) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // All threads race to register the same names, then hammer them.
      obs::Counter* counter = registry.GetCounter("race.counter");
      obs::Histogram* hist = registry.GetHistogram("race.hist");
      obs::Gauge* gauge = registry.GetGauge("race.gauge");
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        hist->Record(1.0 + i % 16);
        gauge->Set(static_cast<double>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("race.counter")->Value(),
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(registry.GetHistogram("race.hist")->Summarize().count,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(ObsMetricsTest, DumpJsonIsStructurallyValid) {
  obs::MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(7);
  registry.GetGauge("a.gauge")->Set(1.5);
  registry.GetHistogram("a.lat")->Record(12.0);
  const std::string json = registry.DumpJson();
  EXPECT_TRUE(obs::ValidateMetricsJson(json).ok())
      << obs::ValidateMetricsJson(json).ToString() << "\n"
      << json;
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"a.lat\""), std::string::npos);
}

TEST(ObsMetricsTest, DumpTextListsEveryMetric) {
  obs::MetricsRegistry registry;
  registry.GetCounter("t.count")->Increment();
  registry.GetGauge("t.gauge")->Set(3.0);
  registry.GetHistogram("t.hist")->Record(1.0);
  const std::string text = registry.DumpText();
  EXPECT_NE(text.find("t.count"), std::string::npos);
  EXPECT_NE(text.find("t.gauge"), std::string::npos);
  EXPECT_NE(text.find("t.hist"), std::string::npos);
}

TEST(ObsMetricsTest, DumpPrometheusSanitizesNamesAndKeepsOriginalsInHelp) {
  obs::MetricsRegistry registry;
  registry.GetCounter("serve.requests")->Increment(7);
  registry.GetCounter("9lives")->Increment(1);      // leading digit
  registry.GetGauge("queue depth/now")->Set(2.5);   // space and slash
  const std::string prom = registry.DumpPrometheus();
  // Dots, spaces, slashes → underscores; a leading digit gets a prefix.
  EXPECT_NE(prom.find("# TYPE serve_requests counter"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("serve_requests 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE _9lives counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE queue_depth_now gauge"), std::string::npos);
  EXPECT_NE(prom.find("queue_depth_now 2.5"), std::string::npos);
  // The HELP line preserves the original (unsanitized) name.
  EXPECT_NE(prom.find("# HELP serve_requests serve.requests"),
            std::string::npos);
  // No un-sanitized sample names leak through.
  EXPECT_EQ(prom.find("serve.requests 7"), std::string::npos);
}

TEST(ObsMetricsTest, DumpPrometheusEscapesHelpText) {
  obs::MetricsRegistry registry;
  registry.GetCounter("weird\\name")->Increment(1);
  const std::string prom = registry.DumpPrometheus();
  // '\' in the original name becomes "\\" on the HELP line, and the
  // sample name itself is fully sanitized.
  EXPECT_NE(prom.find("# HELP weird_name weird\\\\name"), std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nweird_name 1\n"), std::string::npos);
}

TEST(ObsMetricsTest, DumpPrometheusExpandsHistogramsCumulatively) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("lat.us");
  h->Record(1.0);   // bucket 0 (le="1")
  h->Record(10.0);  // a later bucket
  const std::string prom = registry.DumpPrometheus();
  EXPECT_NE(prom.find("# TYPE lat_us histogram"), std::string::npos) << prom;
  // Cumulative buckets: the first bucket holds 1, +Inf holds the total.
  EXPECT_NE(prom.find("lat_us_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_count 2"), std::string::npos);
  EXPECT_NE(prom.find("lat_us_sum 11"), std::string::npos);
  // Cumulative counts never decrease along the le= series.
  uint64_t prev = 0;
  size_t pos = 0;
  while ((pos = prom.find("lat_us_bucket{le=", pos)) != std::string::npos) {
    const size_t space = prom.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    const uint64_t cum = std::stoull(prom.substr(space + 2));
    EXPECT_GE(cum, prev);
    prev = cum;
    pos = space;
  }
  EXPECT_EQ(prev, 2u);
}

TEST(ObsMetricsTest, ResetAllZeroesCountersAndHistogramsKeepsGauges) {
  obs::MetricsRegistry registry;
  obs::Counter* c = registry.GetCounter("r.count");
  obs::Histogram* h = registry.GetHistogram("r.hist");
  obs::Gauge* g = registry.GetGauge("r.gauge");
  c->Increment(9);
  h->Record(5.0);
  g->Set(11.0);
  registry.ResetAll();
  EXPECT_EQ(c->Value(), 0u);
  EXPECT_EQ(h->Summarize().count, 0u);
  EXPECT_DOUBLE_EQ(g->Value(), 11.0);
}

TEST(ObsMetricsTest, PublishPropensityClipStatsMirrorsCounters) {
  // Drive the process-wide counters a known amount, then check the
  // registry mirror moves with them (absolute values are shared across
  // the test binary, so assert on the published total >= fired).
  obs::RecordPropensityClip(/*fired=*/true);
  obs::RecordPropensityClip(/*fired=*/false);
  obs::MetricsRegistry registry;
  obs::PublishPropensityClipStats(&registry);
  const uint64_t total = registry.GetCounter("propensity.clip.total")->Value();
  const uint64_t fired = registry.GetCounter("propensity.clip.fired")->Value();
  EXPECT_GE(total, 2u);
  EXPECT_GE(fired, 1u);
  EXPECT_GE(total, fired);
  EXPECT_TRUE(obs::ValidateMetricsJson(registry.DumpJson()).ok());
}

// ---------------------------------------------------------------------------
// Propensity clip counters feeding from the numeric helpers

TEST(ObsPropStatsTest, SafeInverseCountsFloorHits) {
  const obs::PropensityClipSnapshot before = obs::GetPropensityClipSnapshot();
  EXPECT_DOUBLE_EQ(SafeInverse(0.5), 2.0);
  EXPECT_DOUBLE_EQ(SafeInverse(0.0), 1e12);  // floored at 1e-12
  const obs::PropensityClipSnapshot delta =
      obs::GetPropensityClipSnapshot().DeltaSince(before);
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.fired, 1u);
  EXPECT_DOUBLE_EQ(delta.rate(), 0.5);
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(ObsTraceTest, DisabledByDefaultAndRecordsNothing) {
  obs::ClearTrace();
  ASSERT_FALSE(obs::TracingEnabled());
  { obs::TraceSpan span("should_not_record"); }
  const std::string json = obs::FlushTraceJson();
  size_t events = 0;
  ASSERT_TRUE(obs::ValidateTraceJson(json, &events).ok());
  EXPECT_EQ(events, 0u);
}

TEST(ObsTraceTest, RecordedSpansFlushAsValidChromeTrace) {
  obs::ClearTrace();
  obs::EnableTracing();
  {
    obs::TraceSpan outer("outer_stage");
    obs::TraceSpan inner("inner_stage");
  }
  obs::DisableTracing();
  const std::string json = obs::FlushTraceJson();
  size_t events = 0;
  std::set<std::string> names;
  const Status st = obs::ValidateTraceJson(json, &events, &names);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << json;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(names.count("outer_stage"), 1u);
  EXPECT_EQ(names.count("inner_stage"), 1u);
  obs::ClearTrace();
}

TEST(ObsTraceTest, SpanConstructedWhileDisabledStaysInert) {
  obs::ClearTrace();
  {
    obs::TraceSpan span("born_disabled");
    // Arming mid-span must not record it: its begin timestamp was never
    // taken, so recording it would fabricate a duration.
    obs::EnableTracing();
  }
  obs::DisableTracing();
  size_t events = 0;
  ASSERT_TRUE(obs::ValidateTraceJson(obs::FlushTraceJson(), &events).ok());
  EXPECT_EQ(events, 0u);
  obs::ClearTrace();
}

TEST(ObsTraceTest, ConcurrentSpansFromManyThreadsFlushCleanly) {
  obs::ClearTrace();
  obs::EnableTracing();
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceSpan span("worker_span");
      }
    });
  }
  // Flush concurrently with the recorders — must stay valid JSON.
  const std::string mid_flight = obs::FlushTraceJson();
  EXPECT_TRUE(obs::ValidateTraceJson(mid_flight).ok());
  for (auto& thread : threads) thread.join();
  obs::DisableTracing();
  size_t events = 0;
  std::set<std::string> names;
  ASSERT_TRUE(
      obs::ValidateTraceJson(obs::FlushTraceJson(), &events, &names).ok());
  EXPECT_EQ(events, static_cast<size_t>(kThreads) * kSpansPerThread);
  EXPECT_EQ(names.count("worker_span"), 1u);
  obs::ClearTrace();
}

#if defined(DTREC_TRACING_ENABLED)
TEST(ObsTraceTest, MacroRecordsUnderItsName) {
  obs::ClearTrace();
  obs::EnableTracing();
  { DTREC_TRACE_SPAN("macro_span"); }
  obs::DisableTracing();
  std::set<std::string> names;
  ASSERT_TRUE(
      obs::ValidateTraceJson(obs::FlushTraceJson(), nullptr, &names).ok());
  EXPECT_EQ(names.count("macro_span"), 1u);
  obs::ClearTrace();
}
#endif

TEST(ObsTraceTest, WriteTraceJsonCommitsALoadableFile) {
  obs::ClearTrace();
  obs::EnableTracing();
  { obs::TraceSpan span("to_disk"); }
  obs::DisableTracing();
  const std::string path = TempPath("obs_test_trace.json");
  ASSERT_TRUE(obs::WriteTraceJson(path).ok());
  std::string content;
  ASSERT_TRUE(ReadFile(path, &content).ok());
  std::set<std::string> names;
  ASSERT_TRUE(obs::ValidateTraceJson(content, nullptr, &names).ok());
  EXPECT_EQ(names.count("to_disk"), 1u);
  obs::ClearTrace();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Request identity: trace ids threaded through spans and exemplars

TEST(ObsTraceIdTest, NewTraceIdsAreNonZeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = obs::NewTraceId();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
  // Canonical rendering: 0x + 16 hex digits, zero-padded.
  EXPECT_EQ(obs::FormatTraceId(0xABCull), "0x0000000000000abc");
}

TEST(ObsTraceIdTest, TraceContextInstallsAndRestoresNested) {
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
  {
    obs::TraceContext outer;
    EXPECT_EQ(obs::CurrentTraceId(), outer.id());
    {
      obs::TraceContext inner(42);
      EXPECT_EQ(obs::CurrentTraceId(), 42u);
    }
    EXPECT_EQ(obs::CurrentTraceId(), outer.id());
  }
  EXPECT_EQ(obs::CurrentTraceId(), 0u);
}

TEST(ObsTraceIdTest, SpansRecordedInContextCarryTheIdInArgs) {
  obs::ClearTrace();
  obs::EnableTracing();
  uint64_t id = 0;
  {
    obs::TraceContext ctx;
    id = ctx.id();
    obs::TraceSpan span("traced_stage");
    obs::TraceNote("traced_note");
  }
  { obs::TraceSpan span("anonymous_stage"); }  // outside any context
  obs::DisableTracing();
  size_t events = 0;
  std::set<std::string> names;
  std::map<std::string, size_t> id_events;
  const std::string json = obs::FlushTraceJson();
  ASSERT_TRUE(obs::ValidateTraceJson(json, &events, &names, &id_events).ok())
      << json;
  EXPECT_EQ(events, 3u);
  EXPECT_EQ(names.count("traced_note"), 1u);
  // Both in-context events resolve to the request's id; the span recorded
  // outside a context carries none.
  EXPECT_EQ(id_events[obs::FormatTraceId(id)], 2u);
  size_t tagged = 0;
  for (const auto& [key, n] : id_events) tagged += n;
  EXPECT_EQ(tagged, 2u);
  obs::ClearTrace();
}

TEST(ObsTraceIdTest, SampleScopeSuppressesRecordingAndExemplarIdentity) {
  obs::ClearTrace();
  obs::EnableTracing();
  obs::TraceContext ctx(0xABCu);
  {
    // Sampled-out: no spans, no notes, and no exemplar identity — the
    // histogram must not capture an id whose span tree was never recorded.
    obs::TraceSampleScope out(false);
    EXPECT_FALSE(obs::TracingEnabled());
    EXPECT_EQ(obs::CurrentTraceId(), 0u);
    obs::TraceNote("suppressed_note");
    { obs::TraceSpan span("suppressed_stage"); }
    {
      // A nested sampled scope re-arms (each scope is its own verdict).
      obs::TraceSampleScope in(true);
      EXPECT_TRUE(obs::TracingEnabled());
      EXPECT_EQ(obs::CurrentTraceId(), 0xABCu);
      obs::TraceNote("nested_sampled_note");
    }
    EXPECT_EQ(obs::CurrentTraceId(), 0u);
  }
  // Scope exit restores the default (record everything) verdict.
  EXPECT_TRUE(obs::TracingEnabled());
  EXPECT_EQ(obs::CurrentTraceId(), 0xABCu);
  obs::TraceNote("kept_note");
  obs::DisableTracing();

  size_t events = 0;
  std::set<std::string> names;
  std::map<std::string, size_t> id_events;
  const std::string json = obs::FlushTraceJson();
  ASSERT_TRUE(obs::ValidateTraceJson(json, &events, &names, &id_events).ok())
      << json;
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(names.count("kept_note"), 1u);
  EXPECT_EQ(names.count("nested_sampled_note"), 1u);
  EXPECT_EQ(names.count("suppressed_note"), 0u);
  EXPECT_EQ(names.count("suppressed_stage"), 0u);
  EXPECT_EQ(id_events[obs::FormatTraceId(0xABCu)], 2u);
  obs::ClearTrace();
}

TEST(ObsTraceIdTest, RingWraparoundKeepsJsonWellFormed) {
  // Overflow one thread's ring (64Ki events) and make sure the flush is
  // still valid Chrome JSON that reports the overwritten events as
  // dropped instead of truncating mid-array.
  obs::ClearTrace();
  obs::EnableTracing();
  constexpr size_t kRing = size_t{1} << 16;
  constexpr size_t kOverflow = 1000;
  obs::TraceContext ctx;
  for (size_t i = 0; i < kRing + kOverflow; ++i) {
    obs::TraceNote("wrap_note");
  }
  obs::DisableTracing();
  const std::string json = obs::FlushTraceJson();
  size_t events = 0;
  std::set<std::string> names;
  std::map<std::string, size_t> id_events;
  const Status st = obs::ValidateTraceJson(json, &events, &names, &id_events);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(events, kRing);  // ring capacity, newest kept
  EXPECT_EQ(names.count("wrap_note"), 1u);
  // Survivors still resolve to the request id even after wraparound.
  EXPECT_EQ(id_events[obs::FormatTraceId(ctx.id())], kRing);
  const size_t dropped_pos = json.find("\"droppedEvents\": ");
  ASSERT_NE(dropped_pos, std::string::npos);
  EXPECT_EQ(std::stoull(json.substr(
                dropped_pos + std::string("\"droppedEvents\": ").size())),
            kOverflow);
  obs::ClearTrace();
}

// ---------------------------------------------------------------------------
// Sampling profiler (compiled out under sanitizers; the availability flag
// is the contract either way)

TEST(ObsProfilerTest, StartStopCollectRoundTripWhenAvailable) {
  if (!obs::ProfilerAvailable()) {
    // Sanitized build: Start must decline politely, not crash.
    EXPECT_FALSE(obs::StartProfiler().ok());
    EXPECT_FALSE(obs::ProfilerRunning());
    const obs::ProfileReport empty = obs::CollectProfile();
    EXPECT_EQ(empty.samples, 0u);
    return;
  }
  obs::ProfilerOptions options;
  options.interval_us = 500;
  ASSERT_TRUE(obs::StartProfiler(options).ok());
  EXPECT_TRUE(obs::ProfilerRunning());
  EXPECT_FALSE(obs::StartProfiler(options).ok());  // one per process
  // Burn CPU so ITIMER_PROF actually fires a few times.
  volatile double sink = 0.0;
  for (int i = 0; i < 50'000'000 && sink < 1e18; ++i) {
    sink = sink + static_cast<double>(i) * 1.000001;
  }
  ASSERT_TRUE(obs::StopProfiler().ok());
  EXPECT_FALSE(obs::ProfilerRunning());
  const obs::ProfileReport report = obs::CollectProfile();
  EXPECT_EQ(report.interval_us, 500u);
  EXPECT_GT(report.samples, 0u);
  ASSERT_FALSE(report.stacks.empty());
  // Most-frequent-first ordering and a parsable JSON rendering.
  for (size_t i = 1; i < report.stacks.size(); ++i) {
    EXPECT_GE(report.stacks[i - 1].count, report.stacks[i].count);
  }
  const std::string json = obs::ProfileJson(report);
  size_t samples = 0;
  std::set<std::string> frames;
  const Status st = obs::ValidateProfileJson(json, &samples, &frames);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << json;
  EXPECT_EQ(samples, report.samples);
  EXPECT_FALSE(frames.empty());
  // Collapsed output: one "frame;frame;... count" line per non-empty
  // stack, flamegraph.pl-loadable.
  const std::string collapsed = obs::CollapsedStacks(report);
  EXPECT_FALSE(collapsed.empty());
  const size_t lines = static_cast<size_t>(
      std::count(collapsed.begin(), collapsed.end(), '\n'));
  EXPECT_GE(lines, 1u);
  EXPECT_LE(lines, report.stacks.size());
}

// ---------------------------------------------------------------------------
// Training event stream

obs::TrainEvent MakeEvent(uint64_t epoch) {
  obs::TrainEvent event;
  event.method = "DT-DR";
  event.epoch = epoch;
  event.steps = 43;
  event.wall_seconds = 0.5;
  event.learning_rate = 0.05;
  event.losses = {{"total", 0.48}, {"propensity_bce", 0.21}};
  event.grad_norm = 1.9;
  event.clip_total = 1000;
  event.clip_fired = 3;
  event.clip_rate = 0.003;
  event.rng_cursor = 0x9e3779b97f4a7c15ull;
  return event;
}

TEST(ObsEventLogTest, SingleLineValidates) {
  const std::string line = TrainEventToJsonLine(MakeEvent(0));
  ASSERT_FALSE(line.empty());
  EXPECT_EQ(line.back(), '\n');
  size_t records = 0;
  std::set<std::string> loss_keys;
  const Status st = obs::ValidateTrainEventsJsonl(line, &records, &loss_keys);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << line;
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(loss_keys.count("total"), 1u);
  EXPECT_EQ(loss_keys.count("propensity_bce"), 1u);
}

TEST(ObsEventLogTest, FileRoundTripAndAppendMode) {
  const std::string path = TempPath("obs_test_events.jsonl");
  std::remove(path.c_str());
  {
    obs::TrainEventLog log;
    ASSERT_TRUE(log.Open(path, /*append=*/false).ok());
    ASSERT_TRUE(log.is_open());
    ASSERT_TRUE(log.Append(MakeEvent(0)).ok());
    ASSERT_TRUE(log.Append(MakeEvent(1)).ok());
  }
  {
    // Resume path: append keeps the first run's records.
    obs::TrainEventLog log;
    ASSERT_TRUE(log.Open(path, /*append=*/true).ok());
    ASSERT_TRUE(log.Append(MakeEvent(2)).ok());
  }
  std::string content;
  ASSERT_TRUE(ReadFile(path, &content).ok());
  size_t records = 0;
  ASSERT_TRUE(obs::ValidateTrainEventsJsonl(content, &records).ok());
  EXPECT_EQ(records, 3u);

  // A fresh (non-append) open truncates.
  {
    obs::TrainEventLog log;
    ASSERT_TRUE(log.Open(path, /*append=*/false).ok());
    ASSERT_TRUE(log.Append(MakeEvent(0)).ok());
  }
  ASSERT_TRUE(ReadFile(path, &content).ok());
  ASSERT_TRUE(obs::ValidateTrainEventsJsonl(content, &records).ok());
  EXPECT_EQ(records, 1u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Validator negative cases — a malformed artifact must fail, not pass.

TEST(ObsValidatorTest, RejectsMalformedArtifacts) {
  // Trace: not JSON / missing traceEvents / event without a name.
  EXPECT_FALSE(obs::ValidateTraceJson("not json").ok());
  EXPECT_FALSE(obs::ValidateTraceJson("{}").ok());
  EXPECT_FALSE(obs::ValidateTraceJson(
                   R"({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1,)"
                   R"( "pid": 1, "tid": 1}]})")
                   .ok());

  // Events: empty stream, wrong schema, torn final line.
  EXPECT_FALSE(obs::ValidateTrainEventsJsonl("").ok());
  EXPECT_FALSE(
      obs::ValidateTrainEventsJsonl(R"({"schema": "wrong-schema"})" "\n")
          .ok());
  std::string torn = TrainEventToJsonLine(MakeEvent(0));
  torn += torn.substr(0, torn.size() / 2);  // second record cut mid-line
  EXPECT_FALSE(obs::ValidateTrainEventsJsonl(torn).ok());

  // Metrics: wrong schema / missing sections.
  EXPECT_FALSE(obs::ValidateMetricsJson(R"({"schema": "nope"})").ok());
  EXPECT_FALSE(
      obs::ValidateMetricsJson(R"({"schema": "dtrec-metrics-v1"})").ok());
}

}  // namespace
}  // namespace dtrec
