#include <gtest/gtest.h>

#include "baselines/registry.h"
#include "experiments/evaluator.h"
#include "experiments/runner.h"
#include "synth/coat_like.h"
#include "synth/movielens_like.h"

namespace dtrec {
namespace {

TrainConfig FastConfig() {
  TrainConfig config;
  config.epochs = 5;
  config.batch_size = 1024;
  config.max_steps_per_epoch = 20;
  config.embedding_dim = 6;
  config.disentangle_dim = 3;
  return config;
}

TEST(IntegrationTest, SemiSyntheticPipelineEndToEnd) {
  SemiSyntheticConfig world_config;
  world_config.num_users = 80;
  world_config.num_items = 100;
  world_config.rho = 1.25;
  world_config.seed = 21;
  const SemiSyntheticData world =
      MovieLensLikeGenerator(world_config).Generate();
  ASSERT_TRUE(world.dataset.Validate().ok());

  auto mf = std::move(MakeTrainer("MF", FastConfig()).value());
  auto dt = std::move(MakeTrainer("DT-DR", FastConfig()).value());
  ASSERT_TRUE(mf->Fit(world.dataset).ok());
  ASSERT_TRUE(dt->Fit(world.dataset).ok());

  const SemiSyntheticMetrics mf_metrics = EvaluateSemiSynthetic(*mf, world);
  const SemiSyntheticMetrics dt_metrics = EvaluateSemiSynthetic(*dt, world);
  // Both produce sane MSE against η ∈ [ε, 1] — far below the trivial 1.0.
  EXPECT_LT(mf_metrics.mse, 0.3);
  EXPECT_LT(dt_metrics.mse, 0.3);
  EXPECT_GT(dt_metrics.ndcg_at_50, 0.3);
}

TEST(IntegrationTest, RunComparisonProducesPairedResults) {
  DatasetProfile profile;
  profile.train = FastConfig();
  profile.ranking_k = 5;

  auto factory = [](uint64_t seed) {
    MnarGeneratorConfig config;
    config.num_users = 50;
    config.num_items = 60;
    config.base_logit = -1.6;
    config.test_per_user = 10;
    config.seed = seed;
    return MnarGenerator(config).Generate().dataset;
  };

  const std::vector<MethodResult> results = RunComparison(
      {"MF", "IPS", "DT-IPS"}, factory, profile, {1, 2, 3}, /*quiet=*/true);
  ASSERT_EQ(results.size(), 3u);
  for (const auto& res : results) {
    EXPECT_EQ(res.auc_samples.size(), 3u);
    EXPECT_GT(res.auc.mean, 0.5);
    EXPECT_GT(res.parameters, 0u);
    EXPECT_GT(res.train_seconds, 0.0);
  }

  TableWriter table = MakeComparisonTable("test", 5, results);
  EXPECT_EQ(table.num_rows(), 3u);
  std::ostringstream os;
  table.RenderConsole(os);
  EXPECT_NE(os.str().find("DT-IPS"), std::string::npos);
}

TEST(IntegrationTest, CoatLikeTrainEvalRoundTrip) {
  const SimulatedData world = MakeCoatLike(77);
  TrainConfig config = FastConfig();
  config.epochs = 6;
  config.embedding_dim = 8;
  config.disentangle_dim = 0;
  auto trainer = std::move(MakeTrainer("DR-JL", config).value());
  ASSERT_TRUE(trainer->Fit(world.dataset).ok());
  const RankingMetrics metrics = EvaluateRanking(*trainer, world.dataset, 5);
  EXPECT_GT(metrics.auc, 0.5);
  EXPECT_GT(metrics.users_scored, 100u);
  EXPECT_GE(metrics.recall_at_k, 0.0);
  EXPECT_LE(metrics.recall_at_k, 1.0);

  const double infer_ms =
      MeasureInferenceMillisPerSample(*trainer, world.dataset);
  EXPECT_GT(infer_ms, 0.0);
  EXPECT_LT(infer_ms, 10.0);
}

TEST(IntegrationTest, ProfilesAndOverrides) {
  DatasetProfile profile = DefaultProfile(DatasetKind::kKuaiRec);
  EXPECT_EQ(profile.ranking_k, 50u);
  ASSERT_TRUE(ApplyOverride("epochs", "3", &profile).ok());
  EXPECT_EQ(profile.train.epochs, 3u);
  ASSERT_TRUE(ApplyOverride("scale", "0.05", &profile).ok());
  EXPECT_DOUBLE_EQ(profile.dataset_scale, 0.05);
  EXPECT_FALSE(ApplyOverride("bogus", "1", &profile).ok());
  EXPECT_FALSE(ApplyOverride("epochs", "abc", &profile).ok());
  // A negative or non-finite count would be cast to size_t (undefined).
  EXPECT_FALSE(ApplyOverride("epochs", "-1", &profile).ok());
  EXPECT_FALSE(ApplyOverride("epochs", "inf", &profile).ok());
  EXPECT_FALSE(ApplyOverride("lr", "nan", &profile).ok());
  EXPECT_EQ(profile.train.epochs, 3u);
  ASSERT_TRUE(ApplyOverride("lr", "-0.5", &profile).ok());
  EXPECT_DOUBLE_EQ(profile.train.learning_rate, -0.5);
  EXPECT_FALSE(ApplyOverride("epochs", "1", nullptr).ok());
}

TEST(IntegrationTest, MethodTuningAdjustsKnobs) {
  TrainConfig base;
  base.beta = 0.0;
  const TrainConfig dt = TuneForMethod("DT-DR", base);
  EXPECT_GT(dt.beta, 0.0);
  const TrainConfig cvib = TuneForMethod("CVIB", base);
  EXPECT_DOUBLE_EQ(cvib.alpha, 0.1);
  const TrainConfig plain = TuneForMethod("IPS", base);
  EXPECT_DOUBLE_EQ(plain.beta, 0.0);
}

}  // namespace
}  // namespace dtrec
