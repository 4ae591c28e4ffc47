#ifndef DTREC_SERVE_ADMISSION_CONTROLLER_H_
#define DTREC_SERVE_ADMISSION_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/metrics.h"
#include "util/thread_annotations.h"

namespace dtrec::serve {

/// Front-door admission knobs. Both mechanisms default to "off" so an
/// unconfigured server behaves exactly as before this layer existed.
struct AdmissionConfig {
  /// Sustained admission rate in requests/second; 0 disables the token
  /// bucket (every request passes the rate check).
  double rate_per_s = 0.0;
  /// Token-bucket capacity: how large a burst is absorbed before rate
  /// rejections start. 0 → one second's worth of tokens (rate_per_s).
  double burst = 0.0;
  /// Reject once this many requests already wait in the worker queue;
  /// 0 disables the depth check.
  size_t max_queue_depth = 0;
};

/// Token-bucket + queue-depth admission controller.
///
/// Sits in front of RecommendServer::Submit(): a request is admitted only
/// if (a) the token bucket has a token — bounding the sustained offered
/// rate the workers ever see — and (b) the instantaneous worker-queue
/// depth is below the cap — bounding queueing delay even when the rate
/// limiter's burst allowance lets a spike through. A rejected request is
/// shed at O(1) cost; the queue behind the controller stays short enough
/// that admitted requests meet their deadlines, which is the entire point:
/// under 2× overload, serve 1× well and shed 1× fast, instead of serving
/// 2× badly.
///
/// The clock is injectable (monotonic microseconds) so tests drive refill
/// deterministically. Decisions take one mutex; the critical section is a
/// handful of arithmetic ops, far below the cost of the scoring pass each
/// admitted request triggers.
class AdmissionController {
 public:
  enum class Decision {
    kAdmit = 0,
    kRejectRate = 1,   ///< token bucket empty: sustained rate exceeded
    kRejectDepth = 2,  ///< worker queue at max_queue_depth
  };

  using ClockFn = std::function<double()>;  ///< monotonic microseconds

  /// `metrics`/`prefix` key the exported counters (`<prefix>.admitted`,
  /// `<prefix>.rejected_rate`, `<prefix>.rejected_depth`); metrics may be
  /// null for an unexported controller.
  explicit AdmissionController(AdmissionConfig config,
                               obs::MetricsRegistry* metrics = nullptr,
                               const std::string& prefix = "admission",
                               ClockFn clock = ClockFn());

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// One admission decision for a request arriving now, given the current
  /// worker-queue depth. Depth is checked first: a full queue rejects
  /// without consuming a token (the token would be wasted on a request we
  /// cannot serve anyway).
  Decision TryAdmit(size_t queue_depth);

  uint64_t admitted() const;
  uint64_t rejected_rate() const;
  uint64_t rejected_depth() const;

  /// Tokens currently in the bucket (after refilling to now) — for tests
  /// and monitoring.
  double tokens() const;

 private:
  void RefillLocked(double now_us) DTREC_REQUIRES(mu_);

  const AdmissionConfig config_;
  const double capacity_;  // resolved burst capacity
  const ClockFn clock_;

  mutable std::mutex mu_;
  double tokens_ DTREC_GUARDED_BY(mu_);
  double last_refill_us_ DTREC_GUARDED_BY(mu_) = 0.0;
  uint64_t admitted_ DTREC_GUARDED_BY(mu_) = 0;
  uint64_t rejected_rate_ DTREC_GUARDED_BY(mu_) = 0;
  uint64_t rejected_depth_ DTREC_GUARDED_BY(mu_) = 0;

  // Registry-owned exports (null when unexported).
  obs::Counter* const admitted_counter_;
  obs::Counter* const rejected_rate_counter_;
  obs::Counter* const rejected_depth_counter_;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_ADMISSION_CONTROLLER_H_
