#include <gtest/gtest.h>

#include <cmath>

#include "baselines/dr.h"
#include "baselines/ips.h"
#include "baselines/mf_naive.h"
#include "baselines/mr.h"
#include "baselines/registry.h"
#include "experiments/evaluator.h"
#include "synth/mnar_generator.h"

namespace dtrec {
namespace {

TrainConfig TinyConfig(uint64_t seed = 77) {
  TrainConfig config;
  config.epochs = 4;
  config.batch_size = 512;
  config.max_steps_per_epoch = 15;
  config.embedding_dim = 4;
  config.learning_rate = 0.05;
  config.seed = seed;
  return config;
}

SimulatedData TinyWorld(uint64_t seed = 5) {
  MnarGeneratorConfig config;
  config.num_users = 50;
  config.num_items = 60;
  config.base_logit = -1.6;
  config.test_per_user = 10;
  config.seed = seed;
  return MnarGenerator(config).Generate();
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  const auto result = MakeTrainer("NoSuchMethod", TinyConfig());
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, AllNamesConstructible) {
  for (const std::string& name : AllMethodNames()) {
    const auto result = MakeTrainer(name, TinyConfig());
    ASSERT_TRUE(result.ok()) << name;
    EXPECT_EQ(result.value()->name(), name);
  }
}

TEST(RegistryTest, SemiSyntheticSubsetIsSubset) {
  const auto all = AllMethodNames();
  for (const std::string& name : SemiSyntheticMethodNames()) {
    EXPECT_NE(std::find(all.begin(), all.end(), name), all.end()) << name;
  }
}

// Every method trains on a tiny MNAR world and emits valid probabilities.
class AllMethodsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AllMethodsTest, FitsAndPredictsProbabilities) {
  const SimulatedData world = TinyWorld();
  auto trainer_or = MakeTrainer(GetParam(), TinyConfig());
  ASSERT_TRUE(trainer_or.ok());
  auto trainer = std::move(trainer_or).value();
  ASSERT_TRUE(trainer->Fit(world.dataset).ok()) << GetParam();

  for (size_t u = 0; u < 50; u += 9) {
    for (size_t i = 0; i < 60; i += 13) {
      const double p = trainer->Predict(u, i);
      EXPECT_TRUE(std::isfinite(p)) << GetParam();
      EXPECT_GE(p, 0.0) << GetParam();
      EXPECT_LE(p, 1.0) << GetParam();
    }
  }
  EXPECT_GT(trainer->NumParameters(), 0u);
  EXPECT_GT(trainer->Budget().total(), 0u);
}

TEST_P(AllMethodsTest, BeatsCoinFlipAuc) {
  const SimulatedData world = TinyWorld(31);
  TrainConfig config = TinyConfig(92);
  config.epochs = 10;
  config.embedding_dim = 8;
  auto trainer = std::move(MakeTrainer(GetParam(), config).value());
  ASSERT_TRUE(trainer->Fit(world.dataset).ok());
  const RankingMetrics metrics =
      EvaluateRanking(*trainer, world.dataset, 5);
  EXPECT_GT(metrics.auc, 0.52) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Everything, AllMethodsTest, ::testing::ValuesIn(AllMethodNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(TrainerBaseTest, FitIsReentrant) {
  // Fitting the same trainer twice (different datasets) must fully reset
  // model and optimizer state.
  MfNaiveTrainer trainer(TinyConfig());
  const SimulatedData first = TinyWorld(61);
  ASSERT_TRUE(trainer.Fit(first.dataset).ok());
  const double before = trainer.Predict(0, 0);
  const SimulatedData second = TinyWorld(62);
  ASSERT_TRUE(trainer.Fit(second.dataset).ok());
  const double after = trainer.Predict(0, 0);
  EXPECT_TRUE(std::isfinite(before));
  EXPECT_TRUE(std::isfinite(after));
  // Same trainer refit on the same data reproduces itself (determinism).
  MfNaiveTrainer twin(TinyConfig());
  ASSERT_TRUE(twin.Fit(second.dataset).ok());
  EXPECT_DOUBLE_EQ(twin.Predict(0, 0), after);
}

TEST(ExtensionMethodsTest, DtMrdrTrainsAndPredicts) {
  const SimulatedData world = TinyWorld(51);
  for (const std::string& name : ExtensionMethodNames()) {
    auto trainer = std::move(MakeTrainer(name, TinyConfig()).value());
    ASSERT_TRUE(trainer->Fit(world.dataset).ok()) << name;
    const double p = trainer->Predict(1, 1);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(MfNaiveTest, FitRejectsInvalidDataset) {
  RatingDataset empty(3, 3);
  MfNaiveTrainer trainer(TinyConfig());
  EXPECT_FALSE(trainer.Fit(empty).ok());
}

TEST(MfNaiveTest, ReducesObservedError) {
  const SimulatedData world = TinyWorld(8);
  TrainConfig config = TinyConfig();
  config.epochs = 10;
  MfNaiveTrainer trainer(config);
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  // Observed squared error after training is far below the 0.25 a constant
  // 0.5 predictor would give.
  double total = 0.0;
  for (const auto& t : world.dataset.train()) {
    const double diff = trainer.Predict(t.user, t.item) - t.rating;
    total += diff * diff;
  }
  EXPECT_LT(total / static_cast<double>(world.dataset.train().size()),
            0.24);
}

TEST(IpsTest, OraclePropensityOverrideIsUsed) {
  const SimulatedData world = TinyWorld(12);
  IpsTrainer trainer(TinyConfig());
  size_t calls = 0;
  trainer.set_propensity_fn(
      [&world, &calls](size_t u, size_t i, double) {
        ++calls;
        return world.oracle.mnar_propensity(u, i);
      });
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  EXPECT_GT(calls, 0u);
}

TEST(IpsTest, MfPropensityVariantTrains) {
  const SimulatedData world = TinyWorld(14);
  TrainConfig config = TinyConfig();
  config.mf_propensity = true;
  IpsTrainer trainer(config);
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  // The MF propensity's own tables are counted: 2x an identity model.
  TrainConfig plain = TinyConfig();
  IpsTrainer baseline(plain);
  ASSERT_TRUE(baseline.Fit(world.dataset).ok());
  EXPECT_GT(trainer.NumParameters(), baseline.NumParameters());
}

TEST(DrTest, TargetingDeltaStaysFinite) {
  const SimulatedData world = TinyWorld(21);
  auto trainer = std::move(MakeTrainer("TDR-JL", TinyConfig()).value());
  ASSERT_TRUE(trainer->Fit(world.dataset).ok());
}

TEST(DrTest, ParameterCountsDoubleVsIps) {
  TrainConfig config = TinyConfig();
  config.use_bias = true;  // count the full MF head incl. biases
  const SimulatedData world = TinyWorld(23);
  auto ips = std::move(MakeTrainer("IPS", config).value());
  auto dr = std::move(MakeTrainer("DR-JL", config).value());
  ASSERT_TRUE(ips->Fit(world.dataset).ok());
  ASSERT_TRUE(dr->Fit(world.dataset).ok());
  // The DR family carries a second (imputation) MF on top of IPS's
  // prediction MF + logistic propensity: one extra MF of tables+biases.
  const size_t one_mf = 50 * 4 + 60 * 4 + 50 + 60;  // tables + biases
  EXPECT_EQ(dr->NumParameters(), ips->NumParameters() + one_mf);
  EXPECT_GT(dr->NumParameters(), ips->NumParameters());
}

TEST(MrTest, MixtureStaysOnSimplex) {
  const SimulatedData world = TinyWorld(29);
  MrTrainer trainer(TinyConfig());
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  const auto mix = trainer.PropensityMixture();
  ASSERT_EQ(mix.size(), 3u);
  double total = 0.0;
  for (double w : mix) {
    EXPECT_GE(w, 0.0);
    total += w;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LossInventoryTest, MatchesTable2Structure) {
  TrainConfig config = TinyConfig();
  EXPECT_TRUE(MakeTrainer("ESMM", config).value()->Losses().ctcvr_loss);
  EXPECT_TRUE(
      MakeTrainer("DT-IPS", config).value()->Losses().disentangle_loss);
  EXPECT_TRUE(
      MakeTrainer("DT-IPS", config).value()->Losses().propensity_loss);
  EXPECT_FALSE(MakeTrainer("IPS", config).value()->Losses().ctcvr_loss);
  EXPECT_FALSE(
      MakeTrainer("DR-JL", config).value()->Losses().disentangle_loss);
}

}  // namespace
}  // namespace dtrec
