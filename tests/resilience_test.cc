// Unit tests for the serving-resilience primitives: CircuitBreaker state
// machine + exponential backoff (driven by a fake clock, no sleeping) and
// the ModelRegistry publish-probe / swap-breaker / rollback path. The
// multi-threaded fault-storm coverage lives in chaos_test.cc; this file
// pins down the single-threaded protocol contracts those storms rely on.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <vector>

#include "serve/circuit_breaker.h"
#include "serve/model_registry.h"
#include "serve/serving_model.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace dtrec::serve {
namespace {

// --------------------------------------------------------------- helpers

/// Hand-cranked monotonic clock: tests advance time explicitly instead of
/// sleeping, so backoff schedules are asserted exactly.
class FakeClock {
 public:
  CircuitBreaker::ClockFn Fn() {
    auto now = now_;
    return [now] { return now->load(); };
  }
  void AdvanceMicros(double us) { now_->fetch_add(us); }

 private:
  std::shared_ptr<std::atomic<double>> now_ =
      std::make_shared<std::atomic<double>>(0.0);
};

ServingModel HealthyModel(size_t users = 8, size_t items = 16,
                          size_t dim = 4, uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> popularity(items);
  for (size_t i = 0; i < items; ++i) {
    popularity[i] = static_cast<double>(items - i);
  }
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 1.0, &rng),
      Matrix::RandomNormal(items, dim, 1.0, &rng), Matrix(), Matrix(),
      std::move(popularity));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// A candidate that scores NaN everywhere — the diverged-trainer
/// checkpoint SanityProbe exists to catch.
ServingModel NaNModel(size_t users = 8, size_t items = 16, size_t dim = 4) {
  std::vector<double> popularity(items, 1.0);
  auto model = ServingModel::FromFactors(
      Matrix::Constant(users, dim, std::nan("")),
      Matrix::Constant(items, dim, 1.0), Matrix(), Matrix(),
      std::move(popularity));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

// ---------------------------------------------------------- CircuitBreaker

CircuitBreakerConfig TightBreaker() {
  CircuitBreakerConfig config;
  config.failure_threshold = 3;
  config.initial_backoff_ms = 100.0;
  config.backoff_multiplier = 2.0;
  config.max_backoff_ms = 400.0;
  return config;
}

TEST(CircuitBreakerTest, OpensOnlyOnConsecutiveFailures) {
  FakeClock clock;
  CircuitBreaker breaker(TightBreaker(), clock.Fn());

  // A success between failures resets the streak: 2 + success + 2 ≠ trip.
  for (int i = 0; i < 2; ++i) breaker.RecordFailure();
  breaker.RecordSuccess();
  for (int i = 0; i < 2; ++i) breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
  breaker.RecordFailure();  // third consecutive → trip
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.Allow());
  EXPECT_EQ(breaker.open_transitions(), 1u);
  EXPECT_EQ(breaker.failures(), 5u);
  EXPECT_EQ(breaker.rejected(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  FakeClock clock;
  CircuitBreaker breaker(TightBreaker(), clock.Fn());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);

  EXPECT_FALSE(breaker.Allow());  // backoff not elapsed
  clock.AdvanceMicros(100e3);
  EXPECT_TRUE(breaker.Allow());  // the one probe
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker.Allow());  // probe in flight: everyone else rejected
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.Allow());
}

TEST(CircuitBreakerTest, FailedProbeDoublesBackoffUpToCap) {
  FakeClock clock;
  CircuitBreaker breaker(TightBreaker(), clock.Fn());
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();

  // Failed probes: backoff 100ms → 200ms → 400ms → 400ms (capped).
  for (double backoff_ms : {100.0, 200.0, 400.0, 400.0}) {
    clock.AdvanceMicros(backoff_ms * 1e3 - 1.0);
    EXPECT_FALSE(breaker.Allow()) << "backoff " << backoff_ms;
    clock.AdvanceMicros(1.0);
    ASSERT_TRUE(breaker.Allow()) << "backoff " << backoff_ms;
    breaker.RecordFailure();
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  }
  EXPECT_EQ(breaker.open_transitions(), 5u);  // initial trip + 4 re-opens

  // A successful probe resets the schedule to the initial backoff.
  clock.AdvanceMicros(400e3);
  ASSERT_TRUE(breaker.Allow());
  breaker.RecordSuccess();
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  for (int i = 0; i < 3; ++i) breaker.RecordFailure();
  clock.AdvanceMicros(100e3);
  EXPECT_TRUE(breaker.Allow()) << "backoff should have reset to 100ms";
}

// ----------------------------------------------- ModelRegistry resilience

TEST(ModelRegistryResilienceTest, SanityProbeRejectsNaNCandidate) {
  EXPECT_TRUE(ModelRegistry::SanityProbe(HealthyModel()).ok());
  const Status bad = ModelRegistry::SanityProbe(NaNModel());
  EXPECT_FALSE(bad.ok());
}

TEST(ModelRegistryResilienceTest, RejectedCandidateKeepsLiveModelServing) {
  ModelRegistry registry;
  registry.Publish(HealthyModel());
  const uint64_t live = registry.generation();
  auto pinned = registry.Acquire();

  EXPECT_FALSE(registry.TryPublish(NaNModel()).ok());
  EXPECT_EQ(registry.generation(), live) << "rejected publish bumped gen";
  EXPECT_EQ(registry.Acquire().get(), pinned.get());
  EXPECT_EQ(registry.swap_breaker().failures(), 1u);
}

TEST(ModelRegistryResilienceTest, RepeatedBadCandidatesOpenSwapBreaker) {
  FakeClock clock;
  CircuitBreakerConfig breaker = TightBreaker();
  ModelRegistry registry(breaker, clock.Fn());
  registry.Publish(HealthyModel());

  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(registry.TryPublish(NaNModel()).ok());
  }
  ASSERT_EQ(registry.swap_breaker().state(), CircuitBreaker::State::kOpen);
  // Open breaker fails fast — even a healthy candidate is refused until
  // the backoff elapses and a half-open probe publish succeeds.
  EXPECT_FALSE(registry.TryPublish(HealthyModel(8, 16, 4, 2)).ok());
  clock.AdvanceMicros(100e3);
  EXPECT_TRUE(registry.TryPublish(HealthyModel(8, 16, 4, 3)).ok());
  EXPECT_EQ(registry.swap_breaker().state(),
            CircuitBreaker::State::kClosed);
}

TEST(ModelRegistryResilienceTest, RollbackRestoresPreviousUnderFreshGen) {
  ModelRegistry registry;
  registry.Publish(HealthyModel(8, 16, 4, /*seed=*/1));
  auto first = registry.Acquire();
  registry.Publish(HealthyModel(8, 16, 4, /*seed=*/2));
  auto second = registry.Acquire();
  const uint64_t second_gen = registry.generation();

  uint64_t rollback_gen = 0;
  ASSERT_TRUE(registry.RollbackToPrevious(&rollback_gen).ok());
  EXPECT_GT(rollback_gen, second_gen) << "rollback must mint a fresh gen";
  // Same parameters as the first model, republished — not the same object
  // (the previous stays pinnable for its in-flight requests).
  auto rolled = registry.Acquire();
  EXPECT_NE(rolled.get(), first.get());
  EXPECT_DOUBLE_EQ(rolled->Score(0, 0), first->Score(0, 0));
  EXPECT_EQ(rolled->generation(), rollback_gen);

  // Consecutive rollbacks toggle between the last two models.
  ASSERT_TRUE(registry.RollbackToPrevious().ok());
  EXPECT_DOUBLE_EQ(registry.Acquire()->Score(0, 0), second->Score(0, 0));
}

TEST(ModelRegistryResilienceTest, RollbackWithoutHistoryFails) {
  ModelRegistry registry;
  EXPECT_FALSE(registry.RollbackToPrevious().ok());  // nothing published
  registry.Publish(HealthyModel());
  EXPECT_FALSE(registry.RollbackToPrevious().ok());  // no *previous* yet
}

}  // namespace
}  // namespace dtrec::serve
