#include "serve/admission_controller.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace dtrec::serve {

namespace {

double SteadyNowMicros() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AdmissionController::AdmissionController(AdmissionConfig config,
                                         obs::MetricsRegistry* metrics,
                                         const std::string& prefix,
                                         ClockFn clock)
    : config_(config),
      capacity_(config.burst > 0.0 ? config.burst : config.rate_per_s),
      clock_(clock ? std::move(clock) : ClockFn(&SteadyNowMicros)),
      tokens_(capacity_),
      last_refill_us_(clock_()),
      admitted_counter_(metrics ? metrics->GetCounter(prefix + ".admitted")
                                : nullptr),
      rejected_rate_counter_(
          metrics ? metrics->GetCounter(prefix + ".rejected_rate") : nullptr),
      rejected_depth_counter_(
          metrics ? metrics->GetCounter(prefix + ".rejected_depth")
                  : nullptr) {}

void AdmissionController::RefillLocked(double now_us) DTREC_REQUIRES(mu_) {
  const double elapsed_s = std::max(now_us - last_refill_us_, 0.0) * 1e-6;
  tokens_ = std::min(tokens_ + elapsed_s * config_.rate_per_s, capacity_);
  last_refill_us_ = now_us;
}

AdmissionController::Decision AdmissionController::TryAdmit(
    size_t queue_depth) {
  std::lock_guard<std::mutex> lock(mu_);
  if (config_.max_queue_depth > 0 && queue_depth >= config_.max_queue_depth) {
    ++rejected_depth_;
    if (rejected_depth_counter_ != nullptr) {
      rejected_depth_counter_->Increment();
    }
    return Decision::kRejectDepth;
  }
  if (config_.rate_per_s > 0.0) {
    RefillLocked(clock_());
    if (tokens_ < 1.0) {
      ++rejected_rate_;
      if (rejected_rate_counter_ != nullptr) {
        rejected_rate_counter_->Increment();
      }
      return Decision::kRejectRate;
    }
    tokens_ -= 1.0;
  }
  ++admitted_;
  if (admitted_counter_ != nullptr) admitted_counter_->Increment();
  return Decision::kAdmit;
}

uint64_t AdmissionController::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

uint64_t AdmissionController::rejected_rate() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_rate_;
}

uint64_t AdmissionController::rejected_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_depth_;
}

double AdmissionController::tokens() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Read-only callers still see the refilled value: const_cast-free by
  // computing the refill without committing it.
  const double elapsed_s =
      std::max(clock_() - last_refill_us_, 0.0) * 1e-6;
  return std::min(tokens_ + elapsed_s * config_.rate_per_s, capacity_);
}

}  // namespace dtrec::serve
