// Chaos suite: every serve-path failpoint armed during multi-threaded
// traffic replay. Exists only on -DDTREC_FAILPOINTS=ON builds (see
// tests/CMakeLists.txt) and runs in the TSan CI leg: the properties under
// test are exactly the ones a racing fault can break —
//
//   * no deadlock: every Submit() future resolves even while admission,
//     scoring, cache fills, and model swaps are all failing;
//   * exactly one ladder rung per request, with the (rung, reason, slate)
//     triple internally consistent;
//   * no torn stats: a client-side tally of responses reconciles with the
//     server's counters to the unit, and the ladder invariants hold;
//   * breaker ledgers reconcile with the injected fault counts: each
//     armed site's fires (clamp(hits − skip, 0, max) — the registry
//     counts under one lock) equal the guarded breaker's RecordFailure
//     total.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "serve/server_stats.h"
#include "tensor/matrix.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace dtrec::serve {
namespace {

ServingModel HealthyModel(size_t users, size_t items, size_t dim,
                          uint64_t seed) {
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

/// Exact fires of an armed site: the registry evaluates under one lock,
/// so every evaluation past `skip` fires until `max_hits` is exhausted.
uint64_t Fired(int hits, int skip, int max_hits) {
  const int past_skip = std::max(hits - skip, 0);
  return static_cast<uint64_t>(
      max_hits >= 0 ? std::min(past_skip, max_hits) : past_skip);
}

/// Disarms everything even when an ASSERT aborts a test body early — a
/// leaked armed site would poison every later test in the process.
class ChaosTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoint::DisarmAll(); }
};

/// Client-side response tally, compared against the server's own counters
/// to detect torn stats under concurrent fault unwinding.
struct Tally {
  uint64_t full = 0;
  uint64_t cached = 0;
  uint64_t popularity = 0;
  uint64_t shed = 0;

  void Count(const Recommendation& rec) {
    switch (rec.rung) {
      case ServeRung::kFullTopK:
        ++full;
        break;
      case ServeRung::kCachedSlate:
        ++cached;
        break;
      case ServeRung::kPopularity:
        ++popularity;
        break;
      case ServeRung::kShed:
        ++shed;
        break;
    }
  }

  void Merge(const Tally& other) {
    full += other.full;
    cached += other.cached;
    popularity += other.popularity;
    shed += other.shed;
  }
};

/// Every response must sit on exactly one rung with a consistent
/// (rung, reason, slate) triple. `deadline_disabled` sharpens the
/// popularity case: with no deadline, the only legal reason is the
/// breaker/scoring path.
void CheckLadderTriple(const Recommendation& rec, bool deadline_disabled) {
  switch (rec.rung) {
    case ServeRung::kFullTopK:
    case ServeRung::kCachedSlate:
      EXPECT_EQ(rec.reason, DegradeReason::kNone);
      EXPECT_FALSE(rec.items.empty());
      EXPECT_FALSE(rec.shed());
      EXPECT_FALSE(rec.degraded());
      break;
    case ServeRung::kPopularity:
      if (deadline_disabled) {
        EXPECT_EQ(rec.reason, DegradeReason::kBreakerOpen);
      } else {
        EXPECT_TRUE(rec.reason == DegradeReason::kBreakerOpen ||
                    rec.reason == DegradeReason::kDeadlineMiss);
      }
      EXPECT_FALSE(rec.items.empty());
      EXPECT_TRUE(rec.degraded());
      EXPECT_FALSE(rec.shed());
      break;
    case ServeRung::kShed:
      EXPECT_EQ(rec.reason, DegradeReason::kQueueShed);
      EXPECT_TRUE(rec.items.empty());
      EXPECT_TRUE(rec.shed());
      break;
  }
}

void CheckStatsInvariants(const ServerStats& stats) {
  EXPECT_EQ(stats.requests, stats.rung_full + stats.rung_cached +
                                stats.rung_popularity + stats.rung_shed);
  EXPECT_EQ(stats.rung_popularity, stats.deadline_miss + stats.breaker_open);
  EXPECT_EQ(stats.rung_shed, stats.queue_shed);
}

// The chaos ladder comparisons below lean on numeric rung order.
static_assert(ServeRung::kFullTopK < ServeRung::kCachedSlate &&
                  ServeRung::kCachedSlate < ServeRung::kPopularity &&
                  ServeRung::kPopularity < ServeRung::kShed,
              "ladder order must be numeric order");

// ----------------------------------------------------------- fault storm

/// The headline storm: all four serve failpoints armed at once, client
/// threads replaying traffic through Submit() while a swapper thread
/// publishes (and has rejected) new model generations.
TEST_F(ChaosTest, AllServeFailpointsArmedDuringConcurrentReplay) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 300;
  constexpr uint64_t kRequests = kClients * kPerClient;
  constexpr int kAdmitSkip = 50, kAdmitMax = 100;
  constexpr int kScoreSkip = 40, kScoreMax = 60;
  constexpr int kFillSkip = 30, kFillMax = 80;
  constexpr int kSwapSkip = 2, kSwapMax = 10;

  failpoint::Spec abort_spec;
  abort_spec.action = failpoint::Action::kAbort;
  abort_spec.skip = kAdmitSkip;
  abort_spec.max_hits = kAdmitMax;
  failpoint::Arm("serve/queue_admit", abort_spec);
  abort_spec.skip = kScoreSkip;
  abort_spec.max_hits = kScoreMax;
  failpoint::Arm("serve/score", abort_spec);
  abort_spec.skip = kFillSkip;
  abort_spec.max_hits = kFillMax;
  failpoint::Arm("serve/cache_fill", abort_spec);
  failpoint::Spec swap_spec;
  swap_spec.action = failpoint::Action::kError;
  swap_spec.message = "injected swap probe failure";
  swap_spec.skip = kSwapSkip;
  swap_spec.max_hits = kSwapMax;
  failpoint::Arm("serve/swap", swap_spec);

  obs::MetricsRegistry metrics;
  ModelRegistry registry(&metrics, "chaos.registry");
  registry.Publish(HealthyModel(64, 128, 8, /*seed=*/1));

  ServerConfig config;
  config.num_threads = 3;
  config.default_k = 10;
  config.default_deadline_ms = -1;  // reasons come from faults alone
  config.cache.capacity = 256;
  config.metrics = &metrics;
  config.metrics_prefix = "chaos.serve";
  RecommendServer server(&registry, config);

  std::atomic<bool> stop_swapping{false};
  uint64_t swap_attempts = 0;
  std::thread swapper([&] {
    for (uint64_t seed = 2; !stop_swapping.load(); ++seed) {
      (void)registry.TryPublish(HealthyModel(64, 128, 8, seed));
      ++swap_attempts;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  std::vector<std::thread> clients;
  std::vector<Tally> tallies(kClients);
  std::atomic<uint64_t> resolved{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(100 + c);
      for (int r = 0; r < kPerClient; ++r) {
        Recommendation rec =
            server.Submit({.user = rng.UniformIndex(64)}).get();
        CheckLadderTriple(rec, /*deadline_disabled=*/true);
        tallies[c].Count(rec);
        resolved.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop_swapping.store(true);
  swapper.join();

  // No deadlock / lost futures: every submitted request came back.
  EXPECT_EQ(resolved.load(), kRequests);

  // Read the fault ledgers before TearDown disarms (and zeroes) them.
  const uint64_t admit_fired = Fired(failpoint::HitCount("serve/queue_admit"),
                                     kAdmitSkip, kAdmitMax);
  const uint64_t score_fired =
      Fired(failpoint::HitCount("serve/score"), kScoreSkip, kScoreMax);
  const uint64_t fill_fired = Fired(failpoint::HitCount("serve/cache_fill"),
                                    kFillSkip, kFillMax);
  const uint64_t swap_fired =
      Fired(failpoint::HitCount("serve/swap"), kSwapSkip, kSwapMax);

  // Torn-stats check: the client-side tally matches the server's counters
  // to the unit, and the ladder invariants hold.
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  const ServerStats stats = server.Snapshot();
  CheckStatsInvariants(stats);
  EXPECT_EQ(stats.requests, kRequests);
  EXPECT_EQ(stats.rung_full, total.full);
  EXPECT_EQ(stats.rung_cached, total.cached);
  EXPECT_EQ(stats.rung_popularity, total.popularity);
  EXPECT_EQ(stats.rung_shed, total.shed);
  EXPECT_EQ(stats.deadline_miss, 0u);

  // Breaker ledgers reconcile exactly with the injected fault counts:
  // admission is unconfigured and the pool queue unbounded, so the only
  // shed source is the armed failpoint; every score/fill abort is charged
  // to its breaker once; every injected probe error is one swap-breaker
  // failure (the swapper only offers models that would otherwise pass).
  EXPECT_EQ(stats.queue_shed, admit_fired);
  EXPECT_EQ(server.scorer_breaker().failures(), score_fired);
  EXPECT_EQ(server.cache_breaker().failures(), fill_fired);
  EXPECT_EQ(registry.swap_breaker().failures(), swap_fired);
  EXPECT_GT(swap_attempts, 0u);

  // The storm was actually a storm: each injected fault class fired.
  EXPECT_GT(admit_fired, 0u);
  EXPECT_GT(score_fired, 0u);
  EXPECT_GT(swap_fired, 0u);
}

// ----------------------------------------------- deterministic ladder walk

/// Single-threaded, fake-clock walk of the scorer-breaker ladder: faults
/// burn the retry, trip the breaker, traffic degrades in ladder order,
/// and the half-open probe restores full service once the fault clears.
TEST_F(ChaosTest, ScorerBreakerTripsThenRecoversInLadderOrder) {
  auto now = std::make_shared<std::atomic<double>>(0.0);

  obs::MetricsRegistry metrics;
  ModelRegistry registry(&metrics, "chaosdet.registry");
  registry.Publish(HealthyModel(8, 32, 4, /*seed=*/1));

  ServerConfig config;
  config.num_threads = 1;
  config.default_deadline_ms = -1;
  config.cache.capacity = 0;  // isolate the scorer path
  config.breaker.failure_threshold = 2;
  config.breaker.initial_backoff_ms = 100.0;
  config.breaker_clock = [now] { return now->load(); };
  config.metrics = &metrics;
  config.metrics_prefix = "chaosdet.serve";
  RecommendServer server(&registry, config);

  failpoint::Spec abort_spec;
  abort_spec.action = failpoint::Action::kAbort;
  failpoint::Arm("serve/score", abort_spec);

  // Request 1: fault → budgeted retry → fault again → breaker trips at
  // the threshold and the request lands on the popularity rung.
  Recommendation rec = server.Recommend({.user = 0});
  EXPECT_EQ(rec.rung, ServeRung::kPopularity);
  EXPECT_EQ(rec.reason, DegradeReason::kBreakerOpen);
  EXPECT_EQ(failpoint::HitCount("serve/score"), 2);
  EXPECT_EQ(server.scorer_breaker().state(), CircuitBreaker::State::kOpen);

  // Requests 2–4: breaker open → popularity fallback without ever
  // touching the scorer (the failpoint hit count stays frozen).
  for (int r = 0; r < 3; ++r) {
    rec = server.Recommend({.user = 1});
    EXPECT_EQ(rec.rung, ServeRung::kPopularity);
    EXPECT_EQ(rec.reason, DegradeReason::kBreakerOpen);
  }
  EXPECT_EQ(failpoint::HitCount("serve/score"), 2);

  const ServerStats mid = server.Snapshot();
  CheckStatsInvariants(mid);
  EXPECT_EQ(mid.rung_popularity, 4u);
  EXPECT_EQ(mid.breaker_open, 4u);
  EXPECT_EQ(mid.retries, 1u);
  EXPECT_EQ(server.scorer_breaker().failures(), 2u);

  // Fault clears, backoff elapses: the half-open probe succeeds and full
  // top-K service resumes — the ladder is walked back up.
  failpoint::DisarmAll();
  now->store(100e3 + 1.0);
  rec = server.Recommend({.user = 2});
  EXPECT_EQ(rec.rung, ServeRung::kFullTopK);
  EXPECT_EQ(rec.reason, DegradeReason::kNone);
  EXPECT_EQ(server.scorer_breaker().state(), CircuitBreaker::State::kClosed);
}

// --------------------------------------------------------- per-site drills

TEST_F(ChaosTest, QueueAdmitFaultShedsEveryRequestWithoutWork) {
  obs::MetricsRegistry metrics;
  ModelRegistry registry(&metrics, "chaosq.registry");
  registry.Publish(HealthyModel(8, 32, 4, /*seed=*/1));

  ServerConfig config;
  config.num_threads = 2;
  config.metrics = &metrics;
  config.metrics_prefix = "chaosq.serve";
  RecommendServer server(&registry, config);

  failpoint::Spec abort_spec;
  abort_spec.action = failpoint::Action::kAbort;
  failpoint::Arm("serve/queue_admit", abort_spec);

  for (int r = 0; r < 100; ++r) {
    Recommendation rec = server.Submit({.user = 0}).get();
    EXPECT_EQ(rec.rung, ServeRung::kShed);
    EXPECT_EQ(rec.reason, DegradeReason::kQueueShed);
    EXPECT_TRUE(rec.items.empty());
  }
  EXPECT_EQ(failpoint::HitCount("serve/queue_admit"), 100);

  const ServerStats stats = server.Snapshot();
  CheckStatsInvariants(stats);
  EXPECT_EQ(stats.requests, 100u);
  EXPECT_EQ(stats.rung_shed, 100u);
  EXPECT_EQ(stats.queue_shed, 100u);
  EXPECT_EQ(stats.rung_full, 0u) << "shed requests must not reach scoring";
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
}

TEST_F(ChaosTest, CacheFillFaultsAreInvisibleToClients) {
  obs::MetricsRegistry metrics;
  ModelRegistry registry(&metrics, "chaosc.registry");
  registry.Publish(HealthyModel(32, 32, 4, /*seed=*/1));

  ServerConfig config;
  config.num_threads = 1;
  config.default_deadline_ms = -1;
  config.cache.capacity = 64;
  config.metrics = &metrics;
  config.metrics_prefix = "chaosc.serve";
  RecommendServer server(&registry, config);

  failpoint::Spec abort_spec;
  abort_spec.action = failpoint::Action::kAbort;
  failpoint::Arm("serve/cache_fill", abort_spec);

  // Distinct users: every request misses the cache, scores fresh, and
  // fails the fill — the response stays full top-K, only the cache
  // dependency is charged.
  for (size_t u = 0; u < 32; ++u) {
    Recommendation rec = server.Recommend({.user = u});
    EXPECT_EQ(rec.rung, ServeRung::kFullTopK);
    EXPECT_EQ(rec.reason, DegradeReason::kNone);
    EXPECT_FALSE(rec.items.empty());
  }

  const uint64_t fill_fired =
      Fired(failpoint::HitCount("serve/cache_fill"), 0, -1);
  const ServerStats stats = server.Snapshot();
  CheckStatsInvariants(stats);
  EXPECT_EQ(stats.rung_full, 32u);
  EXPECT_EQ(stats.cache_hits, 0u) << "aborted fills must not be committed";
  EXPECT_EQ(server.cache_breaker().failures(), fill_fired);
  EXPECT_GT(fill_fired, 0u);
  // Fill failures eventually open the cache breaker; once open, requests
  // skip the cache entirely (no lookup, no fill) yet still serve full
  // slates — degraded cache, undegraded responses.
  if (server.cache_breaker().state() == CircuitBreaker::State::kOpen) {
    const uint64_t frozen = static_cast<uint64_t>(
        failpoint::HitCount("serve/cache_fill"));
    Recommendation rec = server.Recommend({.user = 0});
    EXPECT_EQ(rec.rung, ServeRung::kFullTopK);
    EXPECT_EQ(static_cast<uint64_t>(failpoint::HitCount("serve/cache_fill")),
              frozen);
  }
}

TEST_F(ChaosTest, SwapFaultRejectsCandidateAndRollbackRestoresService) {
  obs::MetricsRegistry metrics;
  ModelRegistry registry(&metrics, "chaoss.registry");
  registry.Publish(HealthyModel(8, 32, 4, /*seed=*/1));
  registry.Publish(HealthyModel(8, 32, 4, /*seed=*/2));
  const uint64_t live_gen = registry.generation();

  failpoint::Spec error_spec;
  error_spec.action = failpoint::Action::kError;
  error_spec.message = "injected probe failure";
  failpoint::Arm("serve/swap", error_spec);

  // Injected probe failures reject the candidate and leave the live
  // generation serving.
  EXPECT_FALSE(registry.TryPublish(HealthyModel(8, 32, 4, 3)).ok());
  EXPECT_EQ(registry.generation(), live_gen);
  EXPECT_EQ(registry.swap_breaker().failures(), 1u);

  // Rollback bypasses probe and breaker (the previous model already
  // passed): it succeeds even while the swap failpoint is armed.
  uint64_t rollback_gen = 0;
  ASSERT_TRUE(registry.RollbackToPrevious(&rollback_gen).ok());
  EXPECT_GT(rollback_gen, live_gen);
  EXPECT_EQ(registry.Acquire()->generation(), rollback_gen);
}

}  // namespace
}  // namespace dtrec::serve
