#include "serve/circuit_breaker.h"

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

CircuitBreaker::CircuitBreaker(std::string name, CircuitBreakerConfig config,
                               obs::MetricsRegistry* metrics, ClockFn clock)
    : name_(std::move(name)),
      config_(config),
      clock_(clock ? std::move(clock) : ClockFn(&SteadyNowMicros)),
      backoff_ms_(config.initial_backoff_ms),
      state_gauge_(metrics ? metrics->GetGauge(name_ + ".state") : nullptr),
      open_transitions_counter_(
          metrics ? metrics->GetCounter(name_ + ".open_transitions")
                  : nullptr),
      failures_counter_(metrics ? metrics->GetCounter(name_ + ".failures")
                                : nullptr),
      rejected_counter_(metrics ? metrics->GetCounter(name_ + ".rejected")
                                : nullptr) {
  if (state_gauge_ != nullptr) state_gauge_->Set(0.0);
}

void CircuitBreaker::TransitionToOpenLocked(double now_us)
    DTREC_REQUIRES(mu_) {
  state_ = State::kOpen;
  probe_in_flight_ = false;
  open_until_us_ = now_us + backoff_ms_ * 1e3;
  ++open_transitions_;
  if (open_transitions_counter_ != nullptr) {
    open_transitions_counter_->Increment();
  }
  if (state_gauge_ != nullptr) {
    state_gauge_->Set(static_cast<double>(State::kOpen));
  }
}

bool CircuitBreaker::Allow() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      const double now_us = clock_();
      if (now_us < open_until_us_) {
        ++rejected_;
        if (rejected_counter_ != nullptr) rejected_counter_->Increment();
        return false;
      }
      // Backoff elapsed: half-open, admit this caller as the one probe.
      state_ = State::kHalfOpen;
      probe_in_flight_ = true;
      if (state_gauge_ != nullptr) {
        state_gauge_->Set(static_cast<double>(State::kHalfOpen));
      }
      return true;
    }
    case State::kHalfOpen:
      if (probe_in_flight_) {
        ++rejected_;
        if (rejected_counter_ != nullptr) rejected_counter_->Increment();
        return false;
      }
      probe_in_flight_ = true;
      return true;
  }
  return false;  // unreachable
}

void CircuitBreaker::RecordSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      return;
    case State::kOpen:
      // A call admitted before the trip concluding late: ignore — the
      // backoff clock decides when to probe.
      return;
    case State::kHalfOpen:
      // The one probe succeeded: close, and reset the backoff.
      probe_in_flight_ = false;
      state_ = State::kClosed;
      consecutive_failures_ = 0;
      backoff_ms_ = config_.initial_backoff_ms;
      if (state_gauge_ != nullptr) {
        state_gauge_->Set(static_cast<double>(State::kClosed));
      }
      return;
  }
}

void CircuitBreaker::RecordFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  ++failures_;
  if (failures_counter_ != nullptr) failures_counter_->Increment();
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= config_.failure_threshold) {
        TransitionToOpenLocked(clock_());
      }
      return;
    case State::kOpen:
      return;  // late conclusion of a pre-trip call
    case State::kHalfOpen:
      // Failed probe: back off harder and re-open.
      probe_in_flight_ = false;
      backoff_ms_ = std::min(backoff_ms_ * config_.backoff_multiplier,
                             config_.max_backoff_ms);
      TransitionToOpenLocked(clock_());
      return;
  }
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

uint64_t CircuitBreaker::open_transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return open_transitions_;
}

uint64_t CircuitBreaker::failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failures_;
}

uint64_t CircuitBreaker::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

void CircuitBreaker::ForceClose() {
  std::lock_guard<std::mutex> lock(mu_);
  state_ = State::kClosed;
  consecutive_failures_ = 0;
  probe_in_flight_ = false;
  backoff_ms_ = config_.initial_backoff_ms;
  if (state_gauge_ != nullptr) {
    state_gauge_->Set(static_cast<double>(State::kClosed));
  }
}

}  // namespace dtrec::serve
