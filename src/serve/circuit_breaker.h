#ifndef DTREC_SERVE_CIRCUIT_BREAKER_H_
#define DTREC_SERVE_CIRCUIT_BREAKER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace dtrec::serve {

/// Breaker tuning. The defaults are deliberately forgiving: a dependency
/// has to fail `failure_threshold` times *in a row* before the breaker
/// opens, so a healthy publish feed never notices the breaker exists.
struct CircuitBreakerConfig {
  /// Consecutive failures that trip Closed → Open.
  int failure_threshold = 5;
  /// How long the breaker stays Open before the first half-open probe.
  double initial_backoff_ms = 100.0;
  /// Each failed probe multiplies the backoff (exponential), capped below.
  double backoff_multiplier = 2.0;
  double max_backoff_ms = 10000.0;
};

/// Circuit breaker with half-open probing and exponential backoff. It
/// guards ModelRegistry's publish path (the swap breaker), where a bad
/// candidate is real input.
///
///   Closed ──(threshold consecutive failures)──▶ Open
///   Open ──(backoff elapsed)──▶ HalfOpen   (exactly one probe in flight)
///   HalfOpen ──(probe ok)──▶ Closed        (backoff resets)
///   HalfOpen ──(probe fails)──▶ Open       (backoff doubles, capped)
///
/// Protocol: call Allow() before touching the dependency; when it returns
/// false, skip the dependency (the registry refuses the publish).
/// When it returns true, the call *must* be concluded with exactly one
/// RecordSuccess() or RecordFailure() — in HalfOpen that conclusion is
/// what resolves the probe.
///
/// All transitions happen under one mutex; the critical sections are a
/// few comparisons, far below the cost of the dependency being guarded
/// (a model publish and its sanity probe).
///
/// The clock is injectable (microseconds, monotonic) so tests drive the
/// backoff schedule deterministically instead of sleeping.
class CircuitBreaker {
 public:
  enum class State { kClosed = 0, kOpen = 1, kHalfOpen = 2 };

  using ClockFn = std::function<double()>;  ///< monotonic microseconds

  /// `name` keys the breaker's metrics in `metrics` (may be null for an
  /// unexported breaker): `<name>.state`, `<name>.open_transitions`,
  /// `<name>.failures`, `<name>.rejected`.
  CircuitBreaker(std::string name, CircuitBreakerConfig config,
                 obs::MetricsRegistry* metrics = nullptr,
                 ClockFn clock = ClockFn());

  CircuitBreaker(const CircuitBreaker&) = delete;
  CircuitBreaker& operator=(const CircuitBreaker&) = delete;

  /// True when the guarded call may proceed. In Open, flips to HalfOpen
  /// once the backoff has elapsed and admits exactly one probe; further
  /// callers are rejected until that probe concludes.
  bool Allow();

  void RecordSuccess();
  void RecordFailure();

  State state() const;

  /// Closed → Open transitions since construction (probe failures that
  /// re-open count too: every entry into Open increments).
  uint64_t open_transitions() const;
  /// RecordFailure() calls since construction.
  uint64_t failures() const;
  /// Allow() calls answered false since construction.
  uint64_t rejected() const;

  /// Back to Closed with zeroed failure count and initial backoff. For
  /// operators/tests; transition counters are preserved.
  void ForceClose();

  const std::string& name() const { return name_; }

 private:
  void TransitionToOpenLocked(double now_us) DTREC_REQUIRES(mu_);

  const std::string name_;
  const CircuitBreakerConfig config_;
  const ClockFn clock_;

  mutable std::mutex mu_;
  State state_ DTREC_GUARDED_BY(mu_) = State::kClosed;
  int consecutive_failures_ DTREC_GUARDED_BY(mu_) = 0;
  bool probe_in_flight_ DTREC_GUARDED_BY(mu_) = false;
  double backoff_ms_ DTREC_GUARDED_BY(mu_);
  double open_until_us_ DTREC_GUARDED_BY(mu_) = 0.0;
  uint64_t open_transitions_ DTREC_GUARDED_BY(mu_) = 0;
  uint64_t failures_ DTREC_GUARDED_BY(mu_) = 0;
  uint64_t rejected_ DTREC_GUARDED_BY(mu_) = 0;

  // Registry-owned exports (null when unexported). state gauge: 0 closed,
  // 1 open, 2 half-open — matches the State enum values.
  obs::Gauge* const state_gauge_;
  obs::Counter* const open_transitions_counter_;
  obs::Counter* const failures_counter_;
  obs::Counter* const rejected_counter_;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_CIRCUIT_BREAKER_H_
