#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/telemetry_validate.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "serve/server_stats.h"
#include "serve/serving_model.h"
#include "serve/topk_scorer.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace dtrec::serve {
namespace {

// --------------------------------------------------------------- helpers

/// Random serving model with `users`×`items` factors of width `dim`;
/// popularity decreases with item id, so the fallback ranking is
/// 0, 1, 2, … deterministically.
ServingModel RandomModel(size_t users, size_t items, size_t dim,
                         uint64_t seed, bool with_bias = false) {
  Rng rng(seed);
  Matrix user_bias, item_bias;
  if (with_bias) {
    user_bias = Matrix::RandomNormal(users, 1, 0.5, &rng);
    item_bias = Matrix::RandomNormal(items, 1, 0.5, &rng);
  }
  std::vector<double> popularity(items);
  for (size_t i = 0; i < items; ++i) {
    popularity[i] = static_cast<double>(items - i);  // item 0 most popular
  }
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 1.0, &rng),
      Matrix::RandomNormal(items, dim, 1.0, &rng), std::move(user_bias),
      std::move(item_bias), std::move(popularity));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// A model whose every score identifies its build parameter: all user
/// factors 1, all item factors `value`, dim `dim` → score = dim·value
/// for every (u, i). Used to detect torn models / stale cache slates.
ServingModel ConstantModel(size_t users, size_t items, size_t dim,
                           double value) {
  std::vector<double> popularity(items, 1.0);
  auto model = ServingModel::FromFactors(
      Matrix::Constant(users, dim, 1.0), Matrix::Constant(items, dim, value),
      Matrix(), Matrix(), std::move(popularity));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  }
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 200);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, ShutdownDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(pool.Submit([&count] {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
        count.fetch_add(1);
      }));
    }
    pool.Shutdown();  // must run everything already queued
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownRunsInline) {
  ThreadPool pool(2);
  pool.Shutdown();
  bool ran = false;
  EXPECT_TRUE(pool.Submit([&ran] { ran = true; }));
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, WaitIdleThenReuse) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 1);
  ASSERT_TRUE(pool.Submit([&count] { count.fetch_add(1); }));
  pool.WaitIdle();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, BoundedQueueRefusesWhenFull) {
  // One worker pinned on a gated task, queue capacity 1: the first extra
  // submit queues, the second must be refused — deterministically.
  ThreadPool pool(1, /*max_queue=*/1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> picked_up;
  ASSERT_TRUE(pool.Submit([opened, &picked_up] {
    picked_up.set_value();
    opened.wait();
  }));
  picked_up.get_future().wait();  // worker is busy, queue is empty

  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));   // fills the queue
  EXPECT_FALSE(pool.Submit([&ran] { ran.fetch_add(1); }));  // refused
  EXPECT_EQ(pool.pending(), 1u);

  gate.set_value();
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 1);  // the refused task never ran
  EXPECT_TRUE(pool.Submit([&ran] { ran.fetch_add(1); }));  // usable again
  pool.WaitIdle();
  EXPECT_EQ(ran.load(), 2);
}

// ----------------------------------------------------------- TopKScorer

TEST(TopKScorerTest, MatchesBruteForceArgsort) {
  const ServingModel model = RandomModel(40, 157, 12, /*seed=*/7,
                                         /*with_bias=*/true);
  TopKScorer scorer(ScoreCacheConfig{.capacity = 0});  // no cache
  for (size_t user = 0; user < model.num_users(); user += 3) {
    for (size_t k : {1u, 5u, 10u, 157u, 400u}) {
      const auto fast = scorer.TopK(model, user, k);
      const auto slow = BruteForceTopK(model, user, k);
      ASSERT_EQ(fast.size(), slow.size()) << "user " << user << " k " << k;
      for (size_t i = 0; i < fast.size(); ++i) {
        EXPECT_EQ(fast[i].item, slow[i].item)
            << "user " << user << " k " << k << " rank " << i;
        EXPECT_DOUBLE_EQ(fast[i].score, slow[i].score);
      }
    }
  }
}

TEST(TopKScorerTest, TiesBreakByItemId) {
  // All-equal scores: top-K must be items 0..K-1 in order.
  const ServingModel model = ConstantModel(3, 50, 4, 0.5);
  TopKScorer scorer;
  const auto slate = scorer.TopK(model, 0, 10);
  ASSERT_EQ(slate.size(), 10u);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_EQ(slate[i].item, i);
}

TEST(TopKScorerTest, CacheHitOnRepeatAndPrefixReuse) {
  const ServingModel model = RandomModel(10, 80, 8, 21);
  TopKScorer scorer(ScoreCacheConfig{.capacity = 8});
  bool hit = true;
  const auto first = scorer.TopK(model, 4, 20, &hit);
  EXPECT_FALSE(hit);
  const auto again = scorer.TopK(model, 4, 20, &hit);
  EXPECT_TRUE(hit);
  ASSERT_EQ(first.size(), again.size());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].item, again[i].item);
  }
  // Smaller K is a prefix of the cached slate — still a hit.
  const auto prefix = scorer.TopK(model, 4, 5, &hit);
  EXPECT_TRUE(hit);
  ASSERT_EQ(prefix.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(prefix[i].item, first[i].item);
  // Larger K cannot be served from a shorter slate.
  scorer.TopK(model, 4, 40, &hit);
  EXPECT_FALSE(hit);
}

TEST(TopKScorerTest, LruEvictsLeastRecentUser) {
  const ServingModel model = RandomModel(10, 30, 4, 3);
  TopKScorer scorer(ScoreCacheConfig{.capacity = 2});
  bool hit = false;
  scorer.TopK(model, 0, 5, &hit);  // cache: {0}
  scorer.TopK(model, 1, 5, &hit);  // cache: {1, 0}
  scorer.TopK(model, 0, 5, &hit);  // touch 0 → {0, 1}
  EXPECT_TRUE(hit);
  scorer.TopK(model, 2, 5, &hit);  // evicts 1 → {2, 0}
  scorer.TopK(model, 0, 5, &hit);
  EXPECT_TRUE(hit);
  scorer.TopK(model, 1, 5, &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(scorer.cache_size(), 2u);
}

TEST(TopKScorerTest, GenerationMismatchBypassesStaleEntry) {
  // Same user, two models with different generations: the slate cached
  // under generation 1 must not be served for the generation-2 model even
  // without an InvalidateAll() call.
  ModelRegistry registry;
  registry.Publish(ConstantModel(4, 20, 4, 1.0));
  auto gen1 = registry.Acquire();
  registry.Publish(ConstantModel(4, 20, 4, 2.0));
  auto gen2 = registry.Acquire();

  TopKScorer scorer;
  bool hit = false;
  const auto old_slate = scorer.TopK(*gen1, 0, 3, &hit);
  EXPECT_FALSE(hit);
  EXPECT_DOUBLE_EQ(old_slate[0].score, 4.0);  // dim·1
  const auto new_slate = scorer.TopK(*gen2, 0, 3, &hit);
  EXPECT_FALSE(hit) << "stale generation must miss";
  EXPECT_DOUBLE_EQ(new_slate[0].score, 8.0);  // dim·2
}

// ---------------------------------------------- pruned top-K sweep

// Equivalence fixtures: each one stresses a different hazard of the
// pruned early-exit (exact ties, all-negative scores, a zero-norm user,
// bias-dominated ranking). The contract under test is *bit-identity*:
// EXPECT_EQ on the raw doubles, not EXPECT_DOUBLE_EQ.

/// 101 items sharing 5 distinct factor rows → every score is exactly tied
/// with ~20 other items, so ordering is decided purely by the id
/// tie-break and a premature bound-exit would drop tied items.
ServingModel TieHeavyModel() {
  Rng rng(71);
  const size_t users = 6, items = 101, dim = 4;
  const Matrix base = Matrix::RandomNormal(5, dim, 1.0, &rng);
  Matrix q(items, dim);
  for (size_t i = 0; i < items; ++i) {
    for (size_t d = 0; d < dim; ++d) q(i, d) = base(i % 5, d);
  }
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 1.0, &rng), std::move(q), Matrix(),
      Matrix(), std::vector<double>(items, 1.0));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// Constant item bias of −5 pushes every score negative: the norm bound
/// ‖p‖·‖q‖ is then far above every real score, and the suffix-bias term
/// must carry the early exit.
ServingModel NegativeScoreModel() {
  Rng rng(72);
  const size_t users = 5, items = 90, dim = 6;
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 0.3, &rng),
      Matrix::RandomNormal(items, dim, 0.3, &rng), Matrix(),
      Matrix::Constant(items, 1, -5.0), std::vector<double>(items, 1.0));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// User 0's factor row is all zeros (‖p‖ = 0 collapses the norm bound to
/// the bias term alone); item bias decides the whole ranking.
ServingModel ZeroNormUserModel() {
  Rng rng(73);
  const size_t users = 4, items = 75, dim = 6;
  Matrix p = Matrix::RandomNormal(users, dim, 1.0, &rng);
  for (size_t d = 0; d < dim; ++d) p(0, d) = 0.0;
  auto model = ServingModel::FromFactors(
      std::move(p), Matrix::RandomNormal(items, dim, 1.0, &rng),
      Matrix::RandomNormal(users, 1, 0.5, &rng),
      Matrix::RandomNormal(items, 1, 1.0, &rng),
      std::vector<double>(items, 1.0));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// Tiny factors (0.01 scale) under a large item bias (σ = 5): ranking is
/// decided almost entirely by the bias, the term the norm-order sweep is
/// *not* sorted by.
ServingModel BiasDominatedModel() {
  Rng rng(74);
  const size_t users = 5, items = 120, dim = 8;
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 0.01, &rng),
      Matrix::RandomNormal(items, dim, 0.01, &rng),
      Matrix::RandomNormal(users, 1, 0.5, &rng),
      Matrix::RandomNormal(items, 1, 5.0, &rng),
      std::vector<double>(items, 1.0));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// Catalogue-scale input: 30001 items × dim 32 (item 30000 sits alone in
/// BatchedRowDot's ragged tail) with user and item biases and a handful
/// of users. `skewed` scales item norms by (1+i)^-0.5, so the sweep exits
/// after a few chunks; otherwise norms stay flat and it sweeps most of
/// the 469 chunks.
ServingModel CatalogueScaleModel(bool skewed) {
  Rng rng(skewed ? 75 : 76);
  const size_t users = 5, items = 30001, dim = 32;
  Matrix q = Matrix::RandomNormal(items, dim, 1.0, &rng);
  if (skewed) {
    for (size_t i = 0; i < items; ++i) {
      const double scale = std::pow(1.0 + static_cast<double>(i), -0.5);
      for (size_t d = 0; d < dim; ++d) q(i, d) *= scale;
    }
  }
  auto model = ServingModel::FromFactors(
      Matrix::RandomNormal(users, dim, 1.0, &rng), std::move(q),
      Matrix::RandomNormal(users, 1, 0.5, &rng),
      Matrix::RandomNormal(items, 1, 0.5, &rng),
      std::vector<double>(items, 1.0));
  EXPECT_TRUE(model.ok()) << model.status();
  return std::move(model).value();
}

/// Asserts ScoreFresh reproduces BruteForceTopK bit-for-bit (items and raw
/// double scores) for every user at a spread of K values.
void ExpectBitIdenticalTopK(const ServingModel& model) {
  TopKScorer scorer(ScoreCacheConfig{.capacity = 0});
  const size_t n = model.num_items();
  for (size_t user = 0; user < model.num_users(); ++user) {
    for (const size_t k : {size_t{1}, size_t{3}, size_t{10}, n, n + 9}) {
      const auto got = scorer.ScoreFresh(model, user, k);
      const auto want = BruteForceTopK(model, user, k);
      ASSERT_EQ(got.size(), want.size()) << "user " << user << " k " << k;
      for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].item, want[i].item)
            << "user " << user << " k " << k << " rank " << i;
        ASSERT_EQ(got[i].score, want[i].score)  // bit-identical, not NEAR
            << "user " << user << " k " << k << " rank " << i;
      }
    }
  }
}

TEST(SubLinearTopKTest, PrunedIsBitIdenticalAcrossEquivalenceFixtures) {
  ExpectBitIdenticalTopK(TieHeavyModel());
  ExpectBitIdenticalTopK(NegativeScoreModel());
  ExpectBitIdenticalTopK(ZeroNormUserModel());
  ExpectBitIdenticalTopK(BiasDominatedModel());
}

TEST(SubLinearTopKTest, PrunedIsBitIdenticalOnRandomBiasedModels) {
  ExpectBitIdenticalTopK(RandomModel(40, 157, 12, 7, /*with_bias=*/true));
  ExpectBitIdenticalTopK(RandomModel(20, 128, 16, 8, /*with_bias=*/false));
  ExpectBitIdenticalTopK(CatalogueScaleModel(/*skewed=*/true));
  ExpectBitIdenticalTopK(CatalogueScaleModel(/*skewed=*/false));
}

/// Overwrites each row of `m` with one of the shapes the int8 bound has to
/// survive: Gaussian, a duplicate of an earlier row, a small integer grid
/// (many exactly tied scores, and codes that round), one dominant
/// coordinate, zeros, or a constant (exactly coded). `scale` sets the
/// magnitude; `grid_share` in [0, 1] is the extra share of grid rows.
void FillHazardRows(Matrix* m, double scale, double grid_share, Rng* rng) {
  const size_t d = m->cols();
  for (size_t r = 0; r < m->rows(); ++r) {
    double* row = m->row(r);
    switch (rng->Uniform() < grid_share ? 4 : rng->UniformIndex(8)) {
      case 0:  // duplicate
        if (r > 0) {
          const double* src = m->row(rng->UniformIndex(r));
          std::copy(src, src + d, row);
          break;
        }
        [[fallthrough]];
      case 1:
      case 2:
      case 3:  // Gaussian
        for (size_t p = 0; p < d; ++p) row[p] = scale * rng->Normal();
        break;
      case 4:  // grid-tied
        for (size_t p = 0; p < d; ++p) {
          row[p] = scale * (static_cast<double>(rng->UniformIndex(7)) - 3.0);
        }
        break;
      case 5: {  // one dominant coordinate
        for (size_t p = 0; p < d; ++p) row[p] = 1e-3 * scale * rng->Normal();
        row[rng->UniformIndex(d)] = scale * (1.0 + rng->Uniform());
        break;
      }
      case 6:  // zero
        std::fill(row, row + d, 0.0);
        break;
      default:  // constant
        std::fill(row, row + d, scale * rng->Normal());
        break;
    }
  }
}

TEST(SubLinearTopKTest, RandomizedHazardModelsMatchBruteForce) {
  // Seeded sweep over the int8 filter's hazards: every dimension 1–64,
  // factor scales from 1e-150 to 1e150, the row shapes of FillHazardRows,
  // with and without biases, and K on both sides of a 64-item chunk. Half
  // the trials are tie-heavy: mostly grid items, whose scores tie exactly,
  // so a bound that undershoots by any margin drops a tied item that is
  // swept later but wins on id. Their users are constant (exactly coded:
  // only the item residual term covers the gap) or grid rows (inexactly
  // coded: the ‖p − p̂‖ term covers exactly coded items). Each slate must
  // equal BruteForceTopK bit for bit: 12,000 slates.
  Rng rng(2024);
  size_t slates = 0, mismatches = 0;
  for (size_t trial = 0; trial < 800; ++trial) {
    const size_t dim = 1 + trial % 64;
    const size_t users = 3;
    const size_t items = 66 + rng.UniformIndex(250);
    const double user_scale = std::pow(10.0, rng.Uniform(-150.0, 150.0));
    const double item_scale = std::pow(10.0, rng.Uniform(-150.0, 150.0));
    const bool tie_heavy = trial % 4 < 2;
    Matrix p(users, dim), q(items, dim);
    FillHazardRows(&p, user_scale, trial % 4 == 1 ? 1.0 : 0.0, &rng);
    if (trial % 4 == 0) {
      for (size_t u = 0; u < users; ++u) {
        std::fill(p.row(u), p.row(u) + dim, user_scale * rng.Normal());
      }
    }
    FillHazardRows(&q, item_scale, tie_heavy ? 0.75 : 0.0, &rng);
    Matrix user_bias, item_bias;
    if (trial % 2 == 1) {
      // Biases on the scale of the dot products, so neither term vanishes.
      const double bias_scale = user_scale * item_scale;
      user_bias = Matrix::RandomNormal(users, 1, bias_scale, &rng);
      item_bias = Matrix(items, 1);
      FillHazardRows(&item_bias, bias_scale, tie_heavy ? 0.75 : 0.0, &rng);
    }
    auto built = ServingModel::FromFactors(
        std::move(p), std::move(q), std::move(user_bias),
        std::move(item_bias), std::vector<double>(items, 1.0));
    ASSERT_TRUE(built.ok()) << built.status();
    const ServingModel& model = built.value();
    TopKScorer scorer(ScoreCacheConfig{.capacity = 0});
    for (size_t user = 0; user < users; ++user) {
      for (const size_t k : {size_t{1}, size_t{10}, size_t{63}, size_t{65},
                             items}) {
        const auto got = scorer.ScoreFresh(model, user, k);
        const auto want = BruteForceTopK(model, user, k);
        ++slates;
        bool same = got.size() == want.size();
        for (size_t i = 0; same && i < want.size(); ++i) {
          same = got[i].item == want[i].item && got[i].score == want[i].score;
        }
        if (!same && mismatches++ == 0) {
          ADD_FAILURE() << "first mismatch: trial " << trial << " dim "
                        << dim << " user " << user << " k " << k;
        }
      }
    }
  }
  EXPECT_EQ(slates, 12000u);
  EXPECT_EQ(mismatches, 0u) << "slates differing from BruteForceTopK";
}

TEST(SubLinearTopKTest, UncodedRowsAreAlwaysRescored) {
  // Rows the quantizer cannot code: ±Inf and NaN entries, a max whose
  // reciprocal 127/max overflows, and squares that overflow. Their index
  // entries must carry an infinite residual, so no bound can exclude them,
  // and no non-finite double is ever converted to an int8 code.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t users = 4, items = 150, dim = 8;
  Rng rng(81);
  Matrix q = Matrix::RandomNormal(items, dim, 1.0, &rng);
  q(3, 2) = kInf;
  q(70, 5) = -kInf;
  for (size_t p = 0; p < dim; ++p) {
    q(11, p) = 1e-308 * (1.0 + rng.Uniform());
    q(100, p) = 1e160 * rng.Normal();
  }
  // Every user entry is nonzero, so no score is ∞·0.
  Matrix users_p(users, dim);
  for (size_t u = 0; u < users; ++u) {
    for (size_t p = 0; p < dim; ++p) {
      users_p(u, p) = (rng.Uniform() < 0.5 ? -1.0 : 1.0) *
                      (0.5 + rng.Uniform());
    }
  }
  const std::vector<size_t> uncoded = {3, 11, 70, 100};
  auto check_index = [&](const ServingModel& model) {
    const ServingModel::SweepIndex& index = model.sweep_index();
    for (size_t j = 0; j < items; ++j) {
      const uint32_t item = index.items[j];
      if (std::find(uncoded.begin(), uncoded.end(), item) == uncoded.end()) {
        EXPECT_LT(index.residuals[j], kInf) << "item " << item;
        continue;
      }
      EXPECT_LT(j, uncoded.size()) << "uncoded item " << item
                                   << " must sweep first";
      EXPECT_EQ(index.residuals[j], kInf) << "item " << item;
      EXPECT_EQ(index.scales[j], 0.0) << "item " << item;
      for (size_t p = 0; p < dim; ++p) {
        EXPECT_EQ(index.codes[j * dim + p], 0) << "item " << item;
      }
    }
  };
  auto finite = ServingModel::FromFactors(
      users_p, q, Matrix(), Matrix(), std::vector<double>(items, 1.0));
  ASSERT_TRUE(finite.ok()) << finite.status();
  check_index(finite.value());
  ExpectBitIdenticalTopK(finite.value());

  // A NaN entry: the row's scores are NaN, which no slate orders, so this
  // checks the index and that the sweep still returns full slates.
  q(3, 2) = std::nan("");
  auto with_nan = ServingModel::FromFactors(
      users_p, q, Matrix(), Matrix(), std::vector<double>(items, 1.0));
  ASSERT_TRUE(with_nan.ok()) << with_nan.status();
  check_index(with_nan.value());
  TopKScorer scorer(ScoreCacheConfig{.capacity = 0});
  for (size_t user = 0; user < users; ++user) {
    EXPECT_EQ(scorer.ScoreFresh(with_nan.value(), user, 10).size(), 10u);
  }
}

TEST(SubLinearTopKTest, UncodedUserSweepsEveryItem) {
  // A user row the quantizer cannot code (NaN, as in a diverged
  // checkpoint, or a nonzero max below 2^-500) turns every bound into +∞
  // or NaN: nothing is pruned, and for the tiny user the slate is still
  // exact.
  const size_t items = 300, dim = 6;
  Rng rng(82);
  Matrix p(2, dim);
  for (size_t k = 0; k < dim; ++k) {
    p(0, k) = std::nan("");
    p(1, k) = 1e-160 * rng.Normal();
  }
  auto built = ServingModel::FromFactors(
      std::move(p), Matrix::RandomNormal(items, dim, 1.0, &rng), Matrix(),
      Matrix(), std::vector<double>(items, 1.0));
  ASSERT_TRUE(built.ok()) << built.status();
  const ServingModel& model = built.value();
  std::vector<int8_t> codes(dim, 1);
  for (size_t user : {size_t{0}, size_t{1}}) {
    const ServingModel::RowCode code = model.QuantizeUser(user, codes.data());
    EXPECT_EQ(code.residual, std::numeric_limits<double>::infinity());
    EXPECT_EQ(code.scale, 0.0);
    for (const int8_t c : codes) EXPECT_EQ(c, 0);
  }
  TopKScorer scorer(ScoreCacheConfig{.capacity = 0});
  EXPECT_EQ(scorer.ScoreFresh(model, 0, 10).size(), 10u);
  const auto got = scorer.ScoreFresh(model, 1, 10);
  const auto want = BruteForceTopK(model, 1, 10);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].item, want[i].item) << "rank " << i;
    EXPECT_EQ(got[i].score, want[i].score) << "rank " << i;
  }
}

TEST(SubLinearTopKTest, SweepScoreMatchesScoreAllItemsBitForBit) {
  // The primitive behind the pruned sweep's tail fix-up: re-scoring must
  // reproduce the dense kernel's accumulation (body-group vs ragged-tail
  // order, fused bias add) exactly, including across the tail boundary.
  for (const size_t items : {size_t{157}, size_t{160}}) {  // tail of 1, 0
    const ServingModel model =
        RandomModel(6, items, 12, 41, /*with_bias=*/true);
    std::vector<double> dense;
    for (size_t user = 0; user < model.num_users(); ++user) {
      model.ScoreAllItems(user, &dense);
      for (size_t i = 0; i < items; ++i) {
        ASSERT_EQ(model.SweepScore(user, i), dense[i])
            << "items " << items << " user " << user << " item " << i;
      }
    }
  }
}

TEST(SubLinearTopKTest, ModesAgreeThroughTheFullTopKPath) {
  // Same slates through TopK() (cache enabled) as through ScoreFresh —
  // the cache stores whatever the sweep computed, tagged by generation.
  const ServingModel model = RandomModel(10, 200, 8, 55, /*with_bias=*/true);
  TopKScorer scorer(ScoreCacheConfig{.capacity = 16});
  bool hit = true;
  const auto cold = scorer.TopK(model, 3, 12, &hit);
  EXPECT_FALSE(hit);
  const auto warm = scorer.TopK(model, 3, 12, &hit);
  EXPECT_TRUE(hit);
  ASSERT_EQ(cold.size(), warm.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i].item, warm[i].item);
    EXPECT_EQ(cold[i].score, warm[i].score);
  }
}

// ------------------------------------------------- hot-path bug fixes

TEST(TopKScorerTest, ZeroKIsNeverACacheHitAndLeavesLruUntouched) {
  const ServingModel model = RandomModel(6, 30, 4, 33);
  TopKScorer scorer(ScoreCacheConfig{.capacity = 2});
  bool hit = true;
  scorer.TopK(model, 0, 5, &hit);  // cache: {0}
  scorer.TopK(model, 1, 5, &hit);  // cache: {1, 0}

  // k == 0 used to report a hit whenever *any* entry existed for the user
  // (slate.size() < 0 is never true), inflating the hit rate the SLO gate
  // reads, and its lookup refreshed the user's LRU slot as a side effect.
  const auto empty = scorer.TopK(model, 0, 0, &hit);
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(hit);
  std::vector<ScoredItem> out;
  EXPECT_FALSE(scorer.CachedSlate(model.generation(), 0, 0, &out));
  EXPECT_EQ(scorer.cache_size(), 2u);

  // Had the k=0 lookup spliced user 0 to the LRU front, user 1 would now
  // be the eviction victim. Inserting user 2 must evict user 0 instead.
  scorer.TopK(model, 2, 5, &hit);  // evicts 0 → {2, 1}
  scorer.TopK(model, 1, 5, &hit);
  EXPECT_TRUE(hit) << "user 1 must survive the k=0 lookup";
  scorer.TopK(model, 0, 5, &hit);
  EXPECT_FALSE(hit) << "user 0 must have been the LRU victim";
}

TEST(ServingModelTest, OversizedCatalogueIsRejected) {
  // ScoredItem::item and the sweep orders are uint32: FromFactors must
  // reject catalogues that would silently wrap instead of truncating.
  EXPECT_TRUE(ServingModel::ValidateCatalogueSize(0).ok());
  EXPECT_TRUE(ServingModel::ValidateCatalogueSize(1u << 20).ok());
  EXPECT_TRUE(
      ServingModel::ValidateCatalogueSize(ServingModel::kMaxCatalogueItems)
          .ok());
  const Status st = ServingModel::ValidateCatalogueSize(
      ServingModel::kMaxCatalogueItems + 1);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(ServingModelTest, FusedBiasPassMatchesPointScore) {
  // ScoreAllItems folds user+item bias in one pass; Score() remains the
  // sequential reference. They agree to rounding (the fused pass adds
  // (ub + bi) as one term), and bit-exactly when either bias is absent.
  const ServingModel biased = RandomModel(8, 60, 8, 61, /*with_bias=*/true);
  std::vector<double> scores;
  for (size_t u = 0; u < biased.num_users(); ++u) {
    biased.ScoreAllItems(u, &scores);
    for (size_t i = 0; i < biased.num_items(); ++i) {
      EXPECT_NEAR(scores[i], biased.Score(u, i), 1e-12);
    }
  }
  const ServingModel plain = RandomModel(8, 60, 8, 62, /*with_bias=*/false);
  for (size_t u = 0; u < plain.num_users(); ++u) {
    plain.ScoreAllItems(u, &scores);
    for (size_t i = 0; i < plain.num_items(); ++i) {
      EXPECT_EQ(scores[i], plain.SweepScore(u, i));
    }
  }
}

// -------------------------------------------------------- ModelRegistry

TEST(ModelRegistryTest, PublishAssignsMonotonicGenerations) {
  ModelRegistry registry;
  EXPECT_EQ(registry.generation(), 0u);
  EXPECT_EQ(registry.Acquire(), nullptr);
  EXPECT_EQ(registry.Publish(ConstantModel(2, 4, 2, 1.0)), 1u);
  EXPECT_EQ(registry.Publish(ConstantModel(2, 4, 2, 2.0)), 2u);
  auto model = registry.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->generation(), 2u);
  EXPECT_TRUE(model->IntegrityOk());
}

TEST(ModelRegistryTest, AcquiredModelSurvivesSwap) {
  ModelRegistry registry;
  registry.Publish(ConstantModel(2, 4, 2, 1.0));
  auto pinned = registry.Acquire();
  registry.Publish(ConstantModel(2, 4, 2, 9.0));
  EXPECT_EQ(pinned->generation(), 1u);
  EXPECT_DOUBLE_EQ(pinned->Score(0, 0), 2.0);  // still the old parameters
}

TEST(ModelRegistryTest, CheckpointRoundTripPublishes) {
  Rng rng(5);
  DisentangledEmbeddings emb = DisentangledEmbeddings::Create(
      12, 17, 8, 6, 0.1, 0.0, &rng, /*use_rating_bias=*/false);
  const std::string path = ::testing::TempDir() + "serve_registry.ckpt";
  ASSERT_TRUE(SaveDisentangledEmbeddings(emb, path).ok());

  ModelRegistry registry;
  DisentangledShape shape;
  shape.num_users = 12;
  shape.num_items = 17;
  shape.total_dim = 8;
  shape.primary_dim = 6;
  uint64_t generation = 0;
  const Status st = registry.PublishDisentangledCheckpoint(
      path, shape, std::vector<double>(17, 1.0), &generation);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(generation, 1u);
  auto model = registry.Acquire();
  ASSERT_NE(model, nullptr);
  EXPECT_EQ(model->num_users(), 12u);
  EXPECT_EQ(model->num_items(), 17u);
  EXPECT_EQ(model->dim(), 6u);
  // Serving scores == the trained rating head, bit for bit.
  for (size_t u = 0; u < 12; ++u) {
    for (size_t i = 0; i < 17; ++i) {
      EXPECT_DOUBLE_EQ(model->Score(u, i), emb.RatingLogit(u, i));
    }
  }
}

// ------------------------------------------------------ LatencyHistogram

TEST(LatencyHistogramTest, PercentilesAreOrderedAndInRange) {
  LatencyHistogram hist;
  for (int us = 1; us <= 1000; ++us) hist.Record(us);
  const auto s = hist.Summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_NEAR(s.mean_us, 500.5, 1.0);
  EXPECT_LE(s.p50_us, s.p95_us);
  EXPECT_LE(s.p95_us, s.p99_us);
  EXPECT_LE(s.p99_us, s.max_us * 1.25);
  // Geometric buckets have ≤25% width: percentile error is bounded.
  EXPECT_NEAR(s.p50_us, 500.0, 130.0);
  EXPECT_NEAR(s.p99_us, 990.0, 250.0);
  EXPECT_NEAR(s.max_us, 1000.0, 1e-6);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Summarize().count, 0u);
  hist.Record(10.0);
  EXPECT_EQ(hist.Summarize().count, 1u);
  hist.Reset();
  EXPECT_EQ(hist.Summarize().count, 0u);
}

// ------------------------------------------------------ RecommendServer

ServerConfig TestConfig(size_t threads) {
  ServerConfig config;
  config.num_threads = threads;
  config.default_k = 5;
  config.default_deadline_ms = -1;  // no deadline unless a test asks
  config.cache.capacity = 64;
  return config;
}

TEST(RecommendServerTest, ServesExactSlatesConcurrently) {
  ModelRegistry registry;
  const ServingModel reference = RandomModel(30, 120, 8, 11);
  registry.Publish(RandomModel(30, 120, 8, 11));  // same seed → same params

  RecommendServer server(&registry, TestConfig(4));
  std::vector<std::future<Recommendation>> futures;
  for (size_t r = 0; r < 300; ++r) {
    futures.push_back(server.Submit({.user = r % 30, .k = 10}));
  }
  for (size_t r = 0; r < futures.size(); ++r) {
    const Recommendation rec = futures[r].get();
    EXPECT_FALSE(rec.degraded());
    const auto expected = BruteForceTopK(reference, r % 30, 10);
    ASSERT_EQ(rec.items.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(rec.items[i].item, expected[i].item);
    }
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 300u);
  EXPECT_EQ(stats.degraded(), 0u);
  EXPECT_EQ(stats.rung_full + stats.rung_cached, 300u);
  // 30 distinct users each miss cold at least once; repeats hit. (Two
  // in-flight requests for the same user may both miss, so the split is
  // bounded, not exact.)
  EXPECT_GE(stats.cache_misses, 30u);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 300u);
  EXPECT_GE(stats.cache_hits, 200u);
  EXPECT_EQ(stats.total_us.count, 300u);
  EXPECT_GT(stats.total_us.p99_us, 0.0);
}

#if defined(DTREC_TRACING_ENABLED)
TEST(RecommendServerTest, TraceHeadSamplingRecordsEveryNthRequest) {
  ModelRegistry registry;
  registry.Publish(RandomModel(10, 50, 8, 17));

  obs::MetricsRegistry metrics;
  ServerConfig config = TestConfig(1);
  config.metrics = &metrics;
  config.trace_sample_every = 2;
  RecommendServer server(&registry, config);

  obs::ClearTrace();
  obs::EnableTracing();
  for (size_t r = 0; r < 6; ++r) {
    server.Recommend({.user = r % 10, .k = 5});  // sync: sampling is the
  }                                              // server's, not the pool's
  obs::DisableTracing();

  size_t events = 0;
  std::set<std::string> names;
  std::map<std::string, size_t> id_events;
  const std::string json = obs::FlushTraceJson();
  ASSERT_TRUE(obs::ValidateTraceJson(json, &events, &names, &id_events).ok())
      << json;
  // Ticks 0, 2, 4 sample — exactly 3 of 6 requests leave span trees, and
  // each sampled request's events all resolve to its minted id
  // (serve_handle + serve_score + the rung annotation note).
  EXPECT_EQ(id_events.size(), 3u);
  EXPECT_EQ(names.count("serve_handle"), 1u);
  EXPECT_EQ(names.count("serve_score"), 1u);
  size_t tagged = 0;
  for (const auto& [id, n] : id_events) {
    EXPECT_GE(n, 3u) << id;
    tagged += n;
  }
  EXPECT_EQ(tagged, events);  // nothing recorded outside a sampled request
  obs::ClearTrace();
}
#endif  // DTREC_TRACING_ENABLED

TEST(RecommendServerTest, ZeroDeadlineDegradesDeterministically) {
  ModelRegistry registry;
  registry.Publish(RandomModel(10, 50, 8, 13));
  auto model = registry.Acquire();

  ServerConfig config = TestConfig(2);
  config.default_deadline_ms = 0.0;  // every request is born expired
  RecommendServer server(&registry, config);

  for (int round = 0; round < 20; ++round) {
    const Recommendation rec = server.Recommend({.user = 3, .k = 4});
    ASSERT_TRUE(rec.degraded());
    EXPECT_EQ(rec.rung, ServeRung::kPopularity);
    EXPECT_EQ(rec.reason, DegradeReason::kDeadlineMiss);
    ASSERT_EQ(rec.items.size(), 4u);
    const auto& ranking = model->popularity_ranking();
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(rec.items[i].item, ranking[i]);
      EXPECT_DOUBLE_EQ(rec.items[i].score, model->popularity(ranking[i]));
    }
  }
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.degraded(), 20u);
  EXPECT_EQ(stats.deadline_miss, 20u);
  EXPECT_EQ(stats.rung_popularity, 20u);
  EXPECT_DOUBLE_EQ(stats.degraded_rate(), 1.0);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 0u);
}

TEST(RecommendServerTest, FullQueueShedsWithEmptySlate) {
  ModelRegistry registry;
  registry.Publish(RandomModel(20, 2000, 16, 17));

  ServerConfig config = TestConfig(1);
  config.max_queue = 1;
  config.cache.capacity = 0;  // every pooled request runs a full pass
  RecommendServer server(&registry, config);

  // One worker, backlog cap 1: a burst of submissions far outpaces the
  // 2000-item scoring passes, so most of the burst must shed. Shed
  // responses come back immediately with an empty slate (the bottom
  // ladder rung is an O(1) refusal, not a popularity fallback).
  std::vector<std::future<Recommendation>> futures;
  for (size_t r = 0; r < 64; ++r) {
    futures.push_back(server.Submit({.user = r % 20, .k = 5}));
  }
  size_t shed_count = 0;
  for (auto& future : futures) {
    const Recommendation rec = future.get();
    if (rec.shed()) {
      ++shed_count;
      EXPECT_TRUE(rec.degraded());
      EXPECT_EQ(rec.rung, ServeRung::kShed);
      EXPECT_EQ(rec.reason, DegradeReason::kQueueShed);
      EXPECT_TRUE(rec.items.empty());
    } else {
      ASSERT_EQ(rec.items.size(), 5u);
    }
  }
  EXPECT_GT(shed_count, 0u);

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 64u);
  EXPECT_EQ(stats.rung_shed, shed_count);
  EXPECT_EQ(stats.queue_shed, shed_count);
  EXPECT_GE(stats.degraded(), stats.rung_shed);  // shed ⊆ degraded
  EXPECT_NE(stats.Summary().find("shed="), std::string::npos);

  server.ResetStats();
  EXPECT_EQ(server.Snapshot().rung_shed, 0u);
}

TEST(RecommendServerTest, AdmissionRateLimitShedsExcessTraffic) {
  ModelRegistry registry;
  registry.Publish(RandomModel(10, 40, 4, 23));

  ServerConfig config = TestConfig(2);
  config.admission.rate_per_s = 100.0;
  config.admission.burst = 8.0;
  RecommendServer server(&registry, config);

  std::vector<std::future<Recommendation>> futures;
  for (size_t r = 0; r < 40; ++r) {
    futures.push_back(server.Submit({.user = r % 10, .k = 3}));
  }
  size_t shed = 0;
  for (auto& future : futures) {
    if (future.get().shed()) ++shed;
  }
  // The bucket starts full (burst 8) and refills at 100/s; the burst of
  // 40 submits lands in well under a second, so at least 40 - 8 - (slack
  // for refill during the loop) requests must shed.
  EXPECT_GE(shed, 24u);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 40u);
  EXPECT_EQ(stats.queue_shed, shed);
  EXPECT_GE(server.admission().rejected_rate(), shed);
  // Shed requests never reach the cache or the scorer: only the admitted
  // ones made a cache lookup.
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, stats.requests - shed);
}

TEST(RecommendServerTest, UnknownUserGetsPopularitySlateAfterSwap) {
  ModelRegistry registry;
  registry.Publish(RandomModel(30, 40, 4, 31));
  RecommendServer server(&registry, TestConfig(2));
  EXPECT_EQ(server.Recommend({.user = 20, .k = 5}).rung, ServeRung::kFullTopK);

  // A hot swap to a model with fewer users (as a smaller checkpoint
  // through PublishDisentangledCheckpoint would be): user 20 has no row
  // any more. The answer is the cold-start popularity slate, on both the
  // sync and the pooled path, and the scorer never sees the id.
  registry.Publish(RandomModel(10, 40, 4, 32));
  const auto model = registry.Acquire();
  const auto& ranking = model->popularity_ranking();
  for (const size_t user : {size_t{20}, std::numeric_limits<size_t>::max()}) {
    const RecommendRequest request{.user = user, .k = 5};
    for (const Recommendation& rec :
         {server.Recommend(request), server.Submit(request).get()}) {
      EXPECT_EQ(rec.rung, ServeRung::kPopularity) << user;
      EXPECT_EQ(rec.reason, DegradeReason::kUnknownUser) << user;
      EXPECT_EQ(rec.generation, 2u);
      ASSERT_EQ(rec.items.size(), 5u);
      for (size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(rec.items[i].item, ranking[i]);
        EXPECT_DOUBLE_EQ(rec.items[i].score, model->popularity(ranking[i]));
      }
    }
  }

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 5u);
  EXPECT_EQ(stats.rung_full, 1u);
  EXPECT_EQ(stats.unknown_user, 4u);
  EXPECT_EQ(stats.rung_popularity, stats.deadline_miss + stats.unknown_user);
  EXPECT_EQ(stats.requests, stats.rung_full + stats.rung_cached +
                                stats.rung_popularity + stats.rung_shed);
  EXPECT_EQ(stats.cache_hits + stats.cache_misses, 1u);
  EXPECT_NE(stats.Summary().find("unknown_user=4"), std::string::npos);
}

TEST(RecommendServerTest, PerRequestDeadlineOverridesDefault) {
  ModelRegistry registry;
  registry.Publish(RandomModel(10, 50, 8, 13));
  RecommendServer server(&registry, TestConfig(1));
  const Recommendation expired =
      server.Recommend({.user = 1, .k = 3, .deadline_ms = 0.0});
  EXPECT_TRUE(expired.degraded());
  const Recommendation fine =
      server.Recommend({.user = 1, .k = 3, .deadline_ms = 1e6});
  EXPECT_FALSE(fine.degraded());
}

TEST(RecommendServerTest, HotSwapNeverServesTornModelUnderLoad) {
  constexpr size_t kDim = 8;
  constexpr size_t kItems = 60;
  ModelRegistry registry;
  registry.Publish(ConstantModel(16, kItems, kDim, 1.0));

  ServerConfig config = TestConfig(4);
  RecommendServer server(&registry, config);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> served{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(900 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const Recommendation rec =
            server.Recommend({.user = rng.UniformIndex(16), .k = 5});
        served.fetch_add(1, std::memory_order_relaxed);
        // Every score of generation g's model is kDim·g: the slate tells
        // us exactly which generation produced it. A torn model or a
        // stale cache slate shows up as a mismatched score.
        for (const ScoredItem& item : rec.items) {
          if (item.score != static_cast<double>(kDim) * rec.generation) {
            violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  uint64_t last_generation = 1;
  for (int swap = 2; swap <= 12; ++swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    last_generation = registry.Publish(
        ConstantModel(16, kItems, kDim, static_cast<double>(swap)));
    auto model = registry.Acquire();
    EXPECT_TRUE(model->IntegrityOk());  // generation tag head == tail
    EXPECT_EQ(model->generation(), last_generation);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(served.load(), 0u);
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.generation, last_generation);
  EXPECT_EQ(stats.requests, served.load());
}

TEST(RecommendServerTest, SwapInvalidatesCacheEntries) {
  ModelRegistry registry;
  registry.Publish(ConstantModel(8, 30, 4, 1.0));
  RecommendServer server(&registry, TestConfig(2));

  Recommendation rec = server.Recommend({.user = 2, .k = 3});
  EXPECT_FALSE(rec.cache_hit);
  EXPECT_DOUBLE_EQ(rec.items[0].score, 4.0);
  rec = server.Recommend({.user = 2, .k = 3});
  EXPECT_TRUE(rec.cache_hit);

  registry.Publish(ConstantModel(8, 30, 4, 3.0));
  rec = server.Recommend({.user = 2, .k = 3});
  EXPECT_FALSE(rec.cache_hit) << "swap must invalidate the cached slate";
  EXPECT_DOUBLE_EQ(rec.items[0].score, 12.0);
  EXPECT_EQ(rec.generation, 2u);
  EXPECT_EQ(server.Snapshot().model_swaps, 1u);
}

TEST(RecommendServerTest, ResetStatsClearsCounters) {
  ModelRegistry registry;
  registry.Publish(RandomModel(5, 20, 4, 2));
  RecommendServer server(&registry, TestConfig(1));
  server.Recommend({.user = 0});
  EXPECT_EQ(server.Snapshot().requests, 1u);
  server.ResetStats();
  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.total_us.count, 0u);
}

TEST(RecommendServerTest, StatsLiveInTheMetricsRegistry) {
  // ServerStats is now a view over obs::MetricsRegistry counters — the
  // same numbers must be visible through the registry's export path
  // (names under the configured prefix), not just via Snapshot().
  obs::MetricsRegistry metrics;
  ModelRegistry registry;
  registry.Publish(RandomModel(6, 24, 4, 3));
  ServerConfig config = TestConfig(2);
  config.metrics = &metrics;
  config.metrics_prefix = "serve_parity";
  RecommendServer server(&registry, config);
  for (size_t r = 0; r < 40; ++r) server.Recommend({.user = r % 6});

  const ServerStats stats = server.Snapshot();
  EXPECT_EQ(stats.requests, 40u);
  EXPECT_EQ(metrics.GetCounter("serve_parity.requests")->Value(),
            stats.requests);
  EXPECT_EQ(metrics.GetCounter("serve_parity.cache_hits")->Value(),
            stats.cache_hits);
  EXPECT_EQ(metrics.GetCounter("serve_parity.cache_misses")->Value(),
            stats.cache_misses);
  EXPECT_EQ(metrics.GetHistogram("serve_parity.total_us")->Summarize().count,
            stats.total_us.count);
  EXPECT_DOUBLE_EQ(metrics.GetGauge("serve_parity.generation")->Value(), 1.0);

  const std::string json = metrics.DumpJson();
  EXPECT_TRUE(obs::ValidateMetricsJson(json).ok());
  EXPECT_NE(json.find("\"serve_parity.requests\""), std::string::npos);
  EXPECT_NE(json.find("\"serve_parity.total_us\""), std::string::npos);
}

TEST(RecommendServerTest, StatsDumpThreadStartsAndStopsCleanly) {
  obs::MetricsRegistry metrics;
  ModelRegistry registry;
  registry.Publish(RandomModel(5, 20, 4, 2));
  ServerConfig config = TestConfig(1);
  config.metrics = &metrics;
  config.metrics_prefix = "serve_dump";
  config.stats_dump_period_s = 0.01;
  {
    RecommendServer server(&registry, config);
    server.Recommend({.user = 0});
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_EQ(server.Snapshot().requests, 1u);
  }  // destructor must join the dump thread without hanging
}

}  // namespace
}  // namespace dtrec::serve
