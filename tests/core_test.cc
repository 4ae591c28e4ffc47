#include <gtest/gtest.h>

#include <cmath>

#include "baselines/ips.h"
#include "core/disentangled_embeddings.h"
#include "core/dt_dr.h"
#include "core/dt_ips.h"
#include "core/losses.h"
#include "data/samplers.h"
#include "experiments/evaluator.h"
#include "obs/prop_stats.h"
#include "synth/mnar_generator.h"
#include "tensor/ops.h"
#include "util/math_util.h"
#include "util/random.h"

namespace dtrec {
namespace {

DisentangledEmbeddings SmallEmb(uint64_t seed = 4) {
  Rng rng(seed);
  return DisentangledEmbeddings::Create(12, 15, 6, 2, 0.3, -1.0, &rng);
}

TEST(DisentangledEmbeddingsTest, ShapesAndCounts) {
  DisentangledEmbeddings emb = SmallEmb();
  EXPECT_EQ(emb.primary_dim(), 2u);
  EXPECT_EQ(emb.auxiliary_dim(), 4u);
  EXPECT_EQ(emb.total_dim(), 6u);
  EXPECT_EQ(emb.NumParameters(),
            12u * 6u + 15u * 6u + 6u + 1u);
  EXPECT_EQ(emb.Params().size(), 6u);
}

TEST(DisentangledEmbeddingsTest, RatingLogitUsesPrimaryBlockOnly) {
  DisentangledEmbeddings emb = SmallEmb();
  const double expected = RowDot(emb.p_primary, 3, emb.q_primary, 7);
  EXPECT_DOUBLE_EQ(emb.RatingLogit(3, 7), expected);
  // Mutating the auxiliary block must not change the rating logit.
  emb.p_auxiliary(3, 0) += 100.0;
  EXPECT_DOUBLE_EQ(emb.RatingLogit(3, 7), expected);
}

TEST(DisentangledEmbeddingsTest, PropensityLogitUsesFullEmbedding) {
  DisentangledEmbeddings emb = SmallEmb();
  const double before = emb.PropensityLogit(3, 7);
  emb.p_auxiliary(3, 0) += 1.0;
  EXPECT_NE(emb.PropensityLogit(3, 7), before);
}

TEST(DisentangledEmbeddingsTest, GraphMatchesScalarForward) {
  DisentangledEmbeddings emb = SmallEmb();
  ag::Tape tape;
  const std::vector<size_t> users{0, 5, 11};
  const std::vector<size_t> items{14, 2, 7};
  DisentangledGraph graph =
      BuildDisentangledGraph(&tape, emb, users, items);
  AddGlmPropensityHead(&graph);
  for (size_t i = 0; i < users.size(); ++i) {
    EXPECT_NEAR(graph.rating_logits.value()(i, 0),
                emb.RatingLogit(users[i], items[i]), 1e-12);
    EXPECT_NEAR(graph.prop_logits.value()(i, 0),
                emb.PropensityLogit(users[i], items[i]), 1e-12);
  }
}

TEST(CoreLossesTest, GramEqualsNaiveRegularization) {
  DisentangledEmbeddings emb = SmallEmb(9);
  const double naive = RegularizationLossNaive(emb);
  const double gram = RegularizationLossGram(emb);
  EXPECT_NEAR(gram, naive, 1e-9 * (1.0 + naive));
}

TEST(CoreLossesTest, DisentangleLossValueMatchesGraph) {
  DisentangledEmbeddings emb = SmallEmb(10);
  ag::Tape tape;
  DisentangledGraph graph = BuildDisentangledGraph(&tape, emb, {0}, {0});
  // The graph losses are the paper's F-norms normalized by table sizes
  // (12 users, 15 items here) — see core/losses.h.
  const double user_raw =
      MatMulTransA(emb.p_primary, emb.p_auxiliary).FrobeniusNormSquared();
  const double item_raw =
      MatMulTransA(emb.q_primary, emb.q_auxiliary).FrobeniusNormSquared();
  EXPECT_NEAR(DisentangleLoss(graph).value()(0, 0),
              user_raw / 12.0 + item_raw / 15.0, 1e-9);
  EXPECT_NEAR(RegularizationLoss(graph).value()(0, 0),
              RegularizationLossGram(emb) / (12.0 * 15.0), 1e-9);
}

TEST(CoreLossesTest, DisentangleLossZeroForOrthogonalBlocks) {
  DisentangledEmbeddings emb = SmallEmb();
  // Make P″, Q″ exactly zero: outer products vanish.
  emb.p_auxiliary.SetZero();
  emb.q_auxiliary.SetZero();
  EXPECT_DOUBLE_EQ(emb.DisentangleLossValue(), 0.0);
}

// ------------------------------------------------------------- DT training

TrainConfig DtConfig(uint64_t seed = 55) {
  TrainConfig config;
  config.epochs = 6;
  config.batch_size = 512;
  config.max_steps_per_epoch = 20;
  config.embedding_dim = 6;
  config.disentangle_dim = 3;
  config.learning_rate = 0.05;
  config.alpha = 1.0;
  config.beta = 1e-3;
  config.gamma = 1e-5;
  config.seed = seed;
  return config;
}

SimulatedData DtWorld(uint64_t seed = 3) {
  MnarGeneratorConfig config;
  config.num_users = 60;
  config.num_items = 70;
  config.base_logit = -1.8;
  config.test_per_user = 12;
  config.seed = seed;
  return MnarGenerator(config).Generate();
}

TEST(DtIpsTest, RejectsBadDisentangleDim) {
  TrainConfig config = DtConfig();
  config.disentangle_dim = config.embedding_dim;  // no auxiliary block
  DtIpsTrainer trainer(config);
  EXPECT_FALSE(trainer.Fit(DtWorld().dataset).ok());
}

TEST(DtIpsTest, TrainsAndRecordsDisentangleHistory) {
  TrainConfig config = DtConfig();
  config.beta = 5e-2;  // strong disentangling so the recorded loss falls
  DtIpsTrainer trainer(config);
  const SimulatedData world = DtWorld();
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  ASSERT_EQ(trainer.disentangle_history().size(), 6u);
  ASSERT_EQ(trainer.normalized_disentangle_history().size(), 6u);
  // The (scale-invariant) disentangling must shrink over training — the
  // Figure 4c/4d trend. (The raw F-norm can transiently grow while the
  // embeddings themselves grow from their small init.)
  EXPECT_LT(trainer.normalized_disentangle_history().back(),
            trainer.normalized_disentangle_history().front());
  // Valid probabilities everywhere.
  const double p = trainer.Predict(0, 0);
  EXPECT_GE(p, 0.0);
  EXPECT_LE(p, 1.0);
}

TEST(DtIpsTest, LargerBetaDrivesBlocksMoreOrthogonal) {
  const SimulatedData world = DtWorld(17);
  TrainConfig weak = DtConfig(91);
  weak.beta = 0.0;
  TrainConfig strong = DtConfig(91);
  strong.beta = 1e-1;
  DtIpsTrainer weak_trainer(weak), strong_trainer(strong);
  ASSERT_TRUE(weak_trainer.Fit(world.dataset).ok());
  ASSERT_TRUE(strong_trainer.Fit(world.dataset).ok());
  EXPECT_LT(strong_trainer.embeddings().DisentangleLossValue(),
            weak_trainer.embeddings().DisentangleLossValue());
}

TEST(DtWorkspaceTest, FitsInOneProcessShareNoState) {
  // Every trainer owns its autograd workspace, and the GEMM pack buffers
  // are per thread: a stale buffer leaking from one fit into the next
  // would make the second DT-IPS fit differ from the first.
  const SimulatedData world = DtWorld(29);
  const TrainConfig config = DtConfig(7);
  DtIpsTrainer first(config);
  ASSERT_TRUE(first.Fit(world.dataset).ok());
  DtDrTrainer dr(config);
  ASSERT_TRUE(dr.Fit(world.dataset).ok());
  IpsTrainer ips(config);
  ASSERT_TRUE(ips.Fit(world.dataset).ok());
  DtIpsTrainer second(config);
  ASSERT_TRUE(second.Fit(world.dataset).ok());
  size_t differing = 0;
  for (size_t u = 0; u < world.dataset.num_users(); ++u) {
    for (size_t i = 0; i < world.dataset.num_items(); ++i) {
      if (first.Predict(u, i) != second.Predict(u, i)) ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
}

TEST(DtIpsTest, PropensityEstimatesTrackOracle) {
  const SimulatedData world = DtWorld(23);
  TrainConfig config = DtConfig(101);
  config.epochs = 10;
  DtIpsTrainer trainer(config);
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  // The learned MNAR propensity should correlate positively with the true
  // one across cells.
  double mean_est = 0.0, mean_true = 0.0;
  const size_t m = world.dataset.num_users(), n = world.dataset.num_items();
  for (size_t u = 0; u < m; ++u) {
    for (size_t i = 0; i < n; ++i) {
      mean_est += trainer.PropensityEstimate(u, i);
      mean_true += world.oracle.mnar_propensity(u, i);
    }
  }
  mean_est /= static_cast<double>(m * n);
  mean_true /= static_cast<double>(m * n);
  double cov = 0.0, var_e = 0.0, var_t = 0.0;
  for (size_t u = 0; u < m; ++u) {
    for (size_t i = 0; i < n; ++i) {
      const double de = trainer.PropensityEstimate(u, i) - mean_est;
      const double dt = world.oracle.mnar_propensity(u, i) - mean_true;
      cov += de * dt;
      var_e += de * de;
      var_t += dt * dt;
    }
  }
  // Variance of propensity estimates, not an inverse weight — clipping
  // the denominator here would bias the correlation being tested.
  // dtrec-analyze: allow(propensity-taint)
  const double corr = cov / std::sqrt(var_e * var_t);
  EXPECT_GT(corr, 0.2);
  // And the average estimate matches the marginal rate.
  EXPECT_NEAR(mean_est, world.dataset.TrainDensity(), 0.1);
}

TEST(DtIpsTest, GlmPropensityAblationTrains) {
  // dt_mlp_propensity=false falls back to the per-dimension GLM head.
  TrainConfig config = DtConfig(71);
  config.dt_mlp_propensity = false;
  DtIpsTrainer trainer(config);
  const SimulatedData world = DtWorld(41);
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  const double p = trainer.PropensityEstimate(2, 3);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 1.0);
  // GLM path excludes the tower parameters.
  TrainConfig with_mlp = DtConfig(71);
  DtIpsTrainer mlp_trainer(with_mlp);
  ASSERT_TRUE(mlp_trainer.Fit(world.dataset).ok());
  EXPECT_GT(mlp_trainer.NumParameters(), trainer.NumParameters());
}

TEST(DtDrTest, HasImputationModelParams) {
  const SimulatedData world = DtWorld(31);
  DtIpsTrainer ips(DtConfig(7));
  DtDrTrainer dr(DtConfig(7));
  ASSERT_TRUE(ips.Fit(world.dataset).ok());
  ASSERT_TRUE(dr.Fit(world.dataset).ok());
  EXPECT_GT(dr.NumParameters(), ips.NumParameters());
  EXPECT_GT(dr.Budget().embedding_params, ips.Budget().embedding_params);
}

TEST(DtDrTest, TrainsToValidProbabilities) {
  DtDrTrainer trainer(DtConfig(13));
  const SimulatedData world = DtWorld(37);
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  const RankingMetrics metrics =
      EvaluateRanking(trainer, world.dataset, 5);
  EXPECT_GT(metrics.auc, 0.5);
}

/// Exposes one TrainStep of a DT trainer.
template <typename Trainer>
class StepProbe : public Trainer {
 public:
  using Trainer::Trainer;
  void Step(const Batch& batch) { this->TrainStep(batch); }
};

/// Clip sites one TrainStep adds to the process-wide total.
template <typename Trainer>
uint64_t ClipsPerStep(const SimulatedData& world, const Batch& batch) {
  TrainConfig config;
  config.epochs = 0;  // Fit only sets the trainer up
  config.embedding_dim = 8;
  config.disentangle_dim = 6;
  config.seed = 9;
  StepProbe<Trainer> trainer(config);
  EXPECT_TRUE(trainer.Fit(world.dataset).ok());
  const obs::PropensityClipSnapshot before = obs::GetPropensityClipSnapshot();
  trainer.Step(batch);
  return obs::GetPropensityClipSnapshot().DeltaSince(before).total;
}

TEST(DtTest, TrainStepCountsEachEvaluatedRowOnce) {
  // The estimator loops count their clips in a local and add them once
  // per batch: DT-IPS clips the observed rows, DT-DR every row.
  MnarGeneratorConfig gen;
  gen.num_users = 50;
  gen.num_items = 60;
  gen.seed = 5;
  const SimulatedData world = MnarGenerator(gen).Generate();
  FullMatrixBatchSampler sampler(world.dataset, 3);
  const Batch batch = sampler.Sample(256);
  uint64_t observed = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch.observed(i, 0) != 0.0) ++observed;
  }
  ASSERT_GT(observed, 0u);
  ASSERT_LT(observed, batch.size());
  EXPECT_EQ(ClipsPerStep<DtIpsTrainer>(world, batch), observed);
  EXPECT_EQ(ClipsPerStep<DtDrTrainer>(world, batch), batch.size());
}

TEST(DtTest, AblationOrderOnMnarWorld) {
  // With both losses on, DT-IPS should do at least as well as with both
  // off (averaged over a few worlds to damp noise) — the Table V trend.
  double with_both = 0.0, without = 0.0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    const SimulatedData world = DtWorld(seed);
    TrainConfig on = DtConfig(200 + seed);
    TrainConfig off = DtConfig(200 + seed);
    off.beta = 0.0;
    off.gamma = 0.0;
    DtIpsTrainer trainer_on(on), trainer_off(off);
    ASSERT_TRUE(trainer_on.Fit(world.dataset).ok());
    ASSERT_TRUE(trainer_off.Fit(world.dataset).ok());
    with_both += EvaluateRanking(trainer_on, world.dataset, 5).auc;
    without += EvaluateRanking(trainer_off, world.dataset, 5).auc;
  }
  EXPECT_GT(with_both, without - 0.03);
}

}  // namespace
}  // namespace dtrec
