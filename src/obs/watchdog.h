#ifndef DTREC_OBS_WATCHDOG_H_
#define DTREC_OBS_WATCHDOG_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/thread_annotations.h"

// Declarative telemetry watchdog: a handful of text rules evaluated on a
// periodic thread over windowed metric deltas (Histogram::DeltaSince /
// counter differences), emitting dtrec-alerts-v1 JSONL. This is the
// drift-aware layer the paper's failure mode needs — a clip-rate that
// creeps or a p99 that burns shows up as an alert stream, not as a number
// someone has to diff by hand.
//
// Rule grammar (one rule per line, '#' comments and blank lines ignored):
//
//   <name>: <metric-expr>, <window_s>, <threshold>, <above|below>
//
// metric-expr:
//   p50:|p95:|p99:|p999:|max:|mean:<histogram>   stat over the window's
//                                                DeltaSince snapshot
//   rate:<counter_a>/<counter_b>                 Δa / Δb over the window
//   delta:<counter>                              raw increase over the window
//   value:<gauge>                                instantaneous gauge value
//
// Any expression may be prefixed with `drift:` — the windowed value is
// compared against the trailing mean of up to `baseline_windows` previous
// windows, and the threshold applies to the deviation (value − baseline).
//
// Examples:
//
//   p99_slo_burn: p99:serve.total_us, 1, 5000, above
//   shed_spike:   rate:serve.rung_shed/serve.requests, 1, 0.25, above
//   clip_drift:   drift:rate:propensity.clip.fired/propensity.clip.total, 1, 0.05, above
//   traffic_dry:  delta:serve.requests, 5, 1, below
//
// Windows with no signal are skipped, not alerted: a histogram rule whose
// window saw zero samples, or a rate rule whose denominator did not move,
// has nothing to say (so "below" rules do not fire on idle processes —
// use delta:...,below to detect silence explicitly). A counter or
// histogram that was Reset() mid-window re-primes instead of producing a
// wrapped delta.

namespace dtrec::obs {

struct WatchRule {
  enum class Kind { kHistogramStat, kCounterRate, kCounterDelta, kGaugeValue };
  enum class Direction { kAbove, kBelow };

  std::string name;
  std::string expr;      ///< metric expression as written (sans drift:)
  Kind kind = Kind::kCounterDelta;
  std::string stat;      ///< histogram stat: p50/p95/p99/p999/max/mean
  std::string metric_a;  ///< histogram / counter / gauge name
  std::string metric_b;  ///< rate denominator counter ("" otherwise)
  bool drift = false;
  double window_s = 1.0;
  double threshold = 0.0;
  Direction direction = Direction::kAbove;
};

/// Parses rule text in the grammar above; the error names the first
/// malformed line. An empty rule set is valid (the watchdog just idles).
Status ParseWatchdogRules(const std::string& text,
                          std::vector<WatchRule>* rules);

struct AlertEvent {
  std::string rule;
  std::string expr;
  std::string context;    ///< SetContext tag, e.g. the bench phase
  std::string direction;  ///< "above" | "below"
  double value = 0.0;
  double threshold = 0.0;
  double window_s = 0.0;
  double baseline = 0.0;  ///< meaningful only when has_baseline
  bool has_baseline = false;
  double at_s = 0.0;  ///< watchdog-clock seconds
};

/// One dtrec-alerts-v1 JSONL record (no trailing newline):
///   {"schema": "dtrec-alerts-v1", "rule": ..., "expr": ..., "context":
///    ..., "value": ..., "threshold": ..., "direction": ..., "window_s":
///    ..., "baseline": <number|null>, "at_s": ...}
std::string AlertJsonLine(const AlertEvent& event);

/// Evaluates a rule set against a MetricsRegistry. Resolve-once metric
/// pointers, windowed deltas, optional JSONL sink, optional background
/// thread. Thread-safe; Poll/ForceEvaluate may race the periodic thread.
class Watchdog {
 public:
  using ClockFn = std::function<double()>;  ///< monotonic seconds

  struct Options {
    /// Streaming dtrec-alerts-v1 sink. Created (truncated) immediately,
    /// so an alert-free run still leaves a valid empty artifact. "" = in
    /// memory only.
    std::string alerts_path;
    /// Injectable clock for deterministic tests; default steady_clock.
    ClockFn clock;
    /// Trailing windows kept per drift: rule.
    size_t baseline_windows = 8;
  };

  Watchdog(MetricsRegistry* registry, std::vector<WatchRule> rules);
  Watchdog(MetricsRegistry* registry, std::vector<WatchRule> rules,
           Options options);
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Launches the periodic thread: every `period_s` it Poll()s. One
  /// thread per watchdog; Start after Start is FailedPrecondition.
  Status Start(double period_s);
  void Stop();

  /// Tags subsequent alerts (bench phase, deployment stage, ...).
  void SetContext(const std::string& context);

  /// Evaluates every rule whose window has elapsed; returns alerts fired.
  size_t Poll();

  /// Evaluates every rule *now* regardless of window age (deterministic
  /// phase-boundary checks in benches/tests); returns alerts fired.
  size_t ForceEvaluate();

  std::vector<AlertEvent> alerts() const;

  /// Alerts fired so far, optionally filtered by rule name.
  size_t fired_count(const std::string& rule_name = "") const;

 private:
  struct RuleState {
    WatchRule rule;
    Histogram* hist = nullptr;
    Counter* counter_a = nullptr;
    Counter* counter_b = nullptr;
    Gauge* gauge = nullptr;
    Histogram::Snapshot last_hist;
    uint64_t last_a = 0;
    uint64_t last_b = 0;
    double last_eval_s = 0.0;
    bool primed = false;  ///< first pass only records the window start
    std::deque<double> baseline;
  };

  size_t Evaluate(bool force, double now);
  /// False when the window carried no signal (or the rule just primed).
  bool ComputeValue(RuleState* state, double* value) DTREC_REQUIRES(mu_);
  void PeriodicLoop(double period_s);

  MetricsRegistry* const registry_;
  const Options options_;
  ClockFn clock_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<RuleState> states_ DTREC_GUARDED_BY(mu_);
  std::vector<AlertEvent> alerts_ DTREC_GUARDED_BY(mu_);
  std::string context_ DTREC_GUARDED_BY(mu_);
  // Streaming JSONL sink: deliberately non-atomic — alerts must hit disk
  // as they fire, not in one post-crash commit.
  // dtrec-analyze: allow(raw-ofstream-write)
  std::ofstream sink_ DTREC_GUARDED_BY(mu_);
  bool stop_ DTREC_GUARDED_BY(mu_) = false;
  bool started_ DTREC_GUARDED_BY(mu_) = false;
  std::thread thread_;
};

}  // namespace dtrec::obs

#endif  // DTREC_OBS_WATCHDOG_H_
