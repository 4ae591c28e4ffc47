#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "data/rating_dataset.h"
#include "data/samplers.h"
#include "data/splits.h"
#include "util/random.h"

namespace dtrec {
namespace {

RatingDataset SmallDataset() {
  RatingDataset ds(3, 4);
  ds.AddTrain(0, 0, 5.0);
  ds.AddTrain(0, 1, 2.0);
  ds.AddTrain(1, 2, 4.0);
  ds.AddTrain(2, 3, 1.0);
  ds.AddTest(0, 3, 3.0);
  ds.AddTest(1, 0, 4.0);
  return ds;
}

TEST(RatingDatasetTest, BasicAccessors) {
  RatingDataset ds = SmallDataset();
  EXPECT_EQ(ds.num_users(), 3u);
  EXPECT_EQ(ds.num_items(), 4u);
  EXPECT_EQ(ds.train().size(), 4u);
  EXPECT_EQ(ds.test().size(), 2u);
  EXPECT_NEAR(ds.TrainDensity(), 4.0 / 12.0, 1e-12);
}

TEST(RatingDatasetTest, Counts) {
  RatingDataset ds = SmallDataset();
  const auto user_counts = ds.UserCounts();
  EXPECT_EQ(user_counts[0], 2u);
  EXPECT_EQ(user_counts[1], 1u);
  EXPECT_EQ(user_counts[2], 1u);
  const auto item_counts = ds.ItemCounts();
  EXPECT_EQ(item_counts[0], 1u);
  EXPECT_EQ(item_counts[3], 1u);
}

TEST(RatingDatasetTest, BinarizeAppliesToBothSplits) {
  RatingDataset ds = SmallDataset();
  ds.BinarizeRatings(3.0);
  EXPECT_DOUBLE_EQ(ds.train()[0].rating, 1.0);  // 5 -> 1
  EXPECT_DOUBLE_EQ(ds.train()[1].rating, 0.0);  // 2 -> 0
  EXPECT_DOUBLE_EQ(ds.test()[0].rating, 1.0);   // 3 -> 1
}

TEST(RatingDatasetTest, ValidateCatchesBadIds) {
  RatingDataset ds(2, 2);
  ds.AddTrain(0, 0, 1.0);
  EXPECT_TRUE(ds.Validate().ok());
  ds.AddTrain(5, 0, 1.0);
  const Status st = ds.Validate();
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
}

TEST(RatingDatasetTest, ValidateCatchesEmptyAndNonFinite) {
  RatingDataset empty(2, 2);
  EXPECT_EQ(empty.Validate().code(), StatusCode::kFailedPrecondition);

  RatingDataset zero_dims;
  EXPECT_EQ(zero_dims.Validate().code(), StatusCode::kInvalidArgument);

  RatingDataset nan_ds(2, 2);
  nan_ds.AddTrain(0, 0, std::nan(""));
  EXPECT_EQ(nan_ds.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(RatingDatasetTest, DebugString) {
  EXPECT_EQ(SmallDataset().DebugString(),
            "RatingDataset(users=3, items=4, train=4, test=2)");
}

// ----------------------------------------------------------------- splits

TEST(SplitsTest, RandomSplitSizesAndContents) {
  RatingDataset ds = SmallDataset();
  Rng rng(3);
  auto [first, second] = RandomSplit(ds.train(), 0.5, &rng);
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 2u);
  // Union preserves multiset of items.
  std::multiset<uint32_t> items;
  for (const auto& t : first) items.insert(t.item);
  for (const auto& t : second) items.insert(t.item);
  EXPECT_EQ(items.size(), 4u);
}

TEST(SplitsTest, PerUserHoldout) {
  std::vector<RatingTriple> triples;
  for (uint32_t i = 0; i < 10; ++i) triples.push_back({0, i, 1.0});
  triples.push_back({1, 0, 1.0});  // user 1 has only one rating
  Rng rng(5);
  auto [kept, held] = PerUserHoldout(triples, 2, 3, &rng);
  EXPECT_EQ(held.size(), 3u);
  EXPECT_EQ(kept.size(), 8u);
  for (const auto& t : held) EXPECT_EQ(t.user, 0u);
}

TEST(SplitsTest, MakeValidationSplitRejectsBadFraction) {
  RatingDataset ds = SmallDataset();
  Rng rng(7);
  EXPECT_FALSE(MakeValidationSplit(ds, 0.0, &rng).ok());
  EXPECT_FALSE(MakeValidationSplit(ds, 1.0, &rng).ok());
  // Too small train split.
  EXPECT_EQ(MakeValidationSplit(ds, 0.5, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SplitsTest, MakeValidationSplitWorks) {
  RatingDataset ds(5, 10);
  for (uint32_t u = 0; u < 5; ++u) {
    for (uint32_t i = 0; i < 10; ++i) ds.AddTrain(u, i, 1.0);
  }
  Rng rng(9);
  auto result = MakeValidationSplit(ds, 0.2, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().train().size(), 40u);
  EXPECT_EQ(result.value().test().size(), 10u);
}

// ---------------------------------------------------------------- samplers

TEST(ObservedBatchSamplerTest, CoversEpochExactlyOnce) {
  RatingDataset ds(10, 10);
  for (uint32_t i = 0; i < 25; ++i) ds.AddTrain(i % 10, i % 7, 1.0);
  ObservedBatchSampler sampler(ds, 8, 42);
  EXPECT_EQ(sampler.batches_per_epoch(), 4u);
  Batch batch;
  size_t total = 0;
  while (sampler.NextBatch(&batch)) {
    total += batch.size();
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_DOUBLE_EQ(batch.observed(i, 0), 1.0);
    }
  }
  EXPECT_EQ(total, 25u);
  // Next epoch restarts.
  sampler.NewEpoch();
  EXPECT_TRUE(sampler.NextBatch(&batch));
}

TEST(FullMatrixBatchSamplerTest, LookupAndLabels) {
  RatingDataset ds(4, 5);
  ds.AddTrain(1, 2, 1.0);
  ds.AddTrain(3, 0, 0.0);
  FullMatrixBatchSampler sampler(ds, 11);
  double r = -1.0;
  EXPECT_TRUE(sampler.Lookup(1, 2, &r));
  EXPECT_DOUBLE_EQ(r, 1.0);
  EXPECT_FALSE(sampler.Lookup(0, 0, &r));

  const Batch batch = sampler.Sample(256);
  EXPECT_EQ(batch.size(), 256u);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_LT(batch.users[i], 4u);
    EXPECT_LT(batch.items[i], 5u);
    if (batch.observed(i, 0) == 0.0) {
      EXPECT_DOUBLE_EQ(batch.ratings(i, 0), 0.0);
    }
  }
}

TEST(FullMatrixBatchSamplerTest, LookupMatchesLastRatingPerCell) {
  // Reference: the cell → rating map that repeated assignment builds, so
  // a cell listed twice in train reads its last rating.
  RatingDataset ds(30, 40);
  Rng rng(19);
  std::map<std::pair<size_t, size_t>, double> expected;
  for (int n = 0; n < 500; ++n) {
    const auto u = static_cast<uint32_t>(rng.UniformIndex(30));
    const auto i = static_cast<uint32_t>(rng.UniformIndex(40));
    const double rating = static_cast<double>(rng.UniformIndex(5) + 1);
    ds.AddTrain(u, i, rating);
    expected[{u, i}] = rating;
  }
  ASSERT_LT(expected.size(), 500u);  // the draw includes duplicate cells
  const FullMatrixBatchSampler sampler(ds, 23);
  for (const auto& [cell, rating] : expected) {
    double found = -1.0;
    ASSERT_TRUE(sampler.Lookup(cell.first, cell.second, &found));
    EXPECT_EQ(found, rating);
  }
  size_t unobserved = 0;
  for (int n = 0; n < 2000; ++n) {
    const size_t u = rng.UniformIndex(30);
    const size_t i = rng.UniformIndex(40);
    if (expected.count({u, i}) > 0) continue;
    ++unobserved;
    double untouched = -1.0;
    EXPECT_FALSE(sampler.Lookup(u, i, &untouched));
    EXPECT_EQ(untouched, -1.0);
  }
  EXPECT_GT(unobserved, 1000u);
  EXPECT_FALSE(sampler.Lookup(30, 0, nullptr));  // user out of range
}

TEST(FullMatrixBatchSamplerTest, ObservedRateMatchesDensity) {
  RatingDataset ds(20, 20);
  Rng rng(13);
  for (uint32_t u = 0; u < 20; ++u) {
    for (uint32_t i = 0; i < 20; ++i) {
      if (rng.Bernoulli(0.25)) ds.AddTrain(u, i, 1.0);
    }
  }
  FullMatrixBatchSampler sampler(ds, 17);
  double observed = 0.0;
  const size_t n = 20000;
  const Batch batch = sampler.Sample(n);
  for (size_t i = 0; i < n; ++i) observed += batch.observed(i, 0);
  EXPECT_NEAR(observed / static_cast<double>(n), ds.TrainDensity(), 0.02);
}

TEST(MakeFullObservedBatchTest, AllTrainTriples) {
  RatingDataset ds = SmallDataset();
  const Batch batch = MakeFullObservedBatch(ds);
  EXPECT_EQ(batch.size(), 4u);
  EXPECT_DOUBLE_EQ(batch.ratings(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(batch.observed.Sum(), 4.0);
}

}  // namespace
}  // namespace dtrec
