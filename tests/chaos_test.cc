// Chaos suite: multi-threaded traffic replay through Submit() while a
// publisher hot-swaps models with the `serve/swap` failpoint armed. Exists
// only on -DDTREC_FAILPOINTS=ON builds (see tests/CMakeLists.txt) and runs
// in the TSan CI leg: the properties under test are exactly the ones a
// racing swap or a racing fault can break —
//
//   * no deadlock: every Submit() future resolves while model swaps are
//     landing and failing;
//   * exactly one ladder rung per request, with the (rung, reason, slate)
//     triple internally consistent;
//   * no torn stats: a client-side tally of responses reconciles with the
//     server's counters to the unit, and the ladder invariants hold;
//   * the swap breaker's ledger reconciles with the injected fault count:
//     the site's fires (clamp(hits − skip, 0, max) — the registry counts
//     under one lock) equal the breaker's RecordFailure total.

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
/// (rung, reason, slate) triple.
void CheckLadderTriple(const Recommendation& rec) {
  switch (rec.rung) {
    case ServeRung::kFullTopK:
    case ServeRung::kCachedSlate:
      EXPECT_EQ(rec.reason, DegradeReason::kNone);
      EXPECT_FALSE(rec.items.empty());
      EXPECT_FALSE(rec.shed());
      EXPECT_FALSE(rec.degraded());
      break;
    case ServeRung::kPopularity:
      EXPECT_TRUE(rec.reason == DegradeReason::kDeadlineMiss ||
                  rec.reason == DegradeReason::kUnknownUser);
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
  EXPECT_EQ(stats.rung_popularity, stats.deadline_miss + stats.unknown_user);
  EXPECT_EQ(stats.rung_shed, stats.queue_shed);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses,
            stats.rung_full + stats.rung_cached);
}

// CheckLadderTriple's degraded()/shed() checks lean on numeric rung order.
static_assert(ServeRung::kFullTopK < ServeRung::kCachedSlate &&
                  ServeRung::kCachedSlate < ServeRung::kPopularity &&
                  ServeRung::kPopularity < ServeRung::kShed,
              "ladder order must be numeric order");

// ----------------------------------------------------------- fault storm

/// The headline storm: client threads replay traffic through Submit()
/// while a swapper thread publishes (and, through the armed `serve/swap`
/// site, has rejected) new model generations.
TEST_F(ChaosTest, AllServeFailpointsArmedDuringConcurrentReplay) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 300;
  constexpr uint64_t kRequests = kClients * kPerClient;
  constexpr int kSwapSkip = 2, kSwapMax = 10;

  failpoint::Spec swap_spec;
  swap_spec.action = failpoint::Action::kError;
  swap_spec.message = "injected swap probe failure";
  swap_spec.skip = kSwapSkip;
  swap_spec.max_hits = kSwapMax;
  failpoint::Arm("serve/swap", swap_spec);

  obs::MetricsRegistry metrics;
  ModelRegistry registry;
  registry.Publish(HealthyModel(64, 128, 8, /*seed=*/1));

  // No deadline and an unbounded queue: nothing in this storm may
  // degrade, so every response must be a real slate.
  ServerConfig config;
  config.num_threads = 3;
  config.default_k = 10;
  config.default_deadline_ms = -1;
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
        CheckLadderTriple(rec);
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

  // Read the fault ledger before TearDown disarms (and zeroes) it.
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
  EXPECT_EQ(stats.degraded(), 0u);
  EXPECT_EQ(stats.rung_full + stats.rung_cached, kRequests);

  // Every injected probe error is one swap-breaker failure (the swapper
  // only offers models that would otherwise pass), and the storm was
  // actually a storm.
  EXPECT_EQ(registry.swap_breaker().failures(), swap_fired);
  EXPECT_GT(swap_attempts, 0u);
  EXPECT_GT(swap_fired, 0u);
}

// --------------------------------------------------------- per-site drills

TEST_F(ChaosTest, SwapFaultRejectsCandidateAndRollbackRestoresService) {
  ModelRegistry registry;
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
