#include <gtest/gtest.h>

#include <cmath>

#include "experiments/oracle_bias.h"
#include "obs/prop_stats.h"
#include "synth/mnar_generator.h"
#include "util/random.h"

namespace dtrec {
namespace {

/// World fixture: a fully-known MCAR/MAR/MNAR world plus a fixed (bad but
/// fixed) prediction model whose errors the estimators must average.
struct World {
  Matrix errors;            // e_ui of the fixed prediction model
  Matrix imputed_exact;     // ê = e (perfect imputation)
  Matrix imputed_wrong;     // ê badly misspecified
  Matrix mnar_propensity;   // truth
  Matrix mar_propensity;    // E[truth | x]
  Matrix mcar_propensity;   // constant matrix
};

World MakeWorld(MissingMechanism mechanism, uint64_t seed) {
  MnarGeneratorConfig config;
  config.num_users = 60;
  config.num_items = 60;
  config.mechanism = mechanism;
  config.base_logit = -1.2;
  config.feature_coef = 1.0;
  config.rating_coef = 1.1;
  config.seed = seed;
  const SimulatedData data = MnarGenerator(config).Generate();

  World world;
  const size_t m = config.num_users, n = config.num_items;
  world.errors = Matrix(m, n);
  // Fixed prediction model: constant 0.4, so the error (label − 0.4)²
  // is a deterministic function of the label — the situation in which
  // selection bias distorts the estimate maximally.
  for (size_t u = 0; u < m; ++u) {
    for (size_t i = 0; i < n; ++i) {
      const double diff = data.oracle.label(u, i) - 0.4;
      world.errors(u, i) = diff * diff;
    }
  }
  world.imputed_exact = world.errors;
  world.imputed_wrong = Matrix(m, n, 0.05);
  world.mnar_propensity = data.oracle.mnar_propensity;
  world.mar_propensity = data.oracle.mar_propensity;
  world.mcar_propensity =
      Matrix(m, n, data.oracle.mcar_propensity);
  return world;
}

constexpr size_t kTrials = 200;

double AbsBias(EstimatorKind kind, const World& world,
               const Matrix& weighting, const Matrix* imputed = nullptr,
               uint64_t seed = 99) {
  Rng rng(seed);
  const Matrix& imp = imputed != nullptr ? *imputed : world.imputed_wrong;
  const BiasReport report =
      MonteCarloBias(kind, world.errors, imp, world.mnar_propensity,
                     weighting, kTrials, &rng);
  return std::fabs(report.bias);
}

// Tolerance: a few Monte-Carlo standard errors of the mean estimate.
constexpr double kTol = 3e-3;

// ---------------------------------------------------- Lemma 1 (MCAR/MAR)

TEST(EstimatorBiasTest, NaiveUnbiasedUnderMcar) {
  const World world = MakeWorld(MissingMechanism::kMcar, 1);
  EXPECT_LT(AbsBias(EstimatorKind::kNaive, world, world.mcar_propensity),
            kTol);
}

TEST(EstimatorBiasTest, IpsWithMarPropensityUnbiasedUnderMar) {
  const World world = MakeWorld(MissingMechanism::kMar, 2);
  EXPECT_LT(AbsBias(EstimatorKind::kIps, world, world.mar_propensity),
            kTol);
}

TEST(EstimatorBiasTest, NaiveBiasedUnderMar) {
  const World world = MakeWorld(MissingMechanism::kMar, 3);
  EXPECT_GT(AbsBias(EstimatorKind::kNaive, world, world.mar_propensity),
            5 * kTol);
}

TEST(EstimatorBiasTest, DrWithExactImputationUnbiasedUnderMar) {
  const World world = MakeWorld(MissingMechanism::kMar, 4);
  // Propensity deliberately wrong (constant), imputation exact: DR's
  // double robustness carries it.
  EXPECT_LT(AbsBias(EstimatorKind::kDr, world, world.mcar_propensity,
                    &world.imputed_exact),
            kTol);
}

// --------------------------------------------------- Lemma 2(a): MNAR bias

TEST(EstimatorBiasTest, NaiveBiasedUnderMnar) {
  const World world = MakeWorld(MissingMechanism::kMnar, 5);
  EXPECT_GT(AbsBias(EstimatorKind::kNaive, world, world.mnar_propensity),
            5 * kTol);
}

TEST(EstimatorBiasTest, IpsWithMarPropensityBiasedUnderMnar) {
  // The paper's central negative result: even the ORACLE MAR propensity
  // P(o=1|x) leaves the IPS estimator biased when data are MNAR.
  const World world = MakeWorld(MissingMechanism::kMnar, 6);
  EXPECT_GT(AbsBias(EstimatorKind::kIps, world, world.mar_propensity),
            5 * kTol);
}

TEST(EstimatorBiasTest, DrWithMarPropensityAndWrongImputationBiasedUnderMnar) {
  const World world = MakeWorld(MissingMechanism::kMnar, 7);
  EXPECT_GT(AbsBias(EstimatorKind::kDr, world, world.mar_propensity,
                    &world.imputed_wrong),
            5 * kTol);
}

// ------------------------------------------------ Lemma 2(b): MNAR rescue

TEST(EstimatorBiasTest, IpsWithMnarPropensityUnbiasedUnderMnar) {
  const World world = MakeWorld(MissingMechanism::kMnar, 8);
  EXPECT_LT(AbsBias(EstimatorKind::kIps, world, world.mnar_propensity),
            kTol);
}

TEST(EstimatorBiasTest, DrWithMnarPropensityUnbiasedUnderMnar) {
  const World world = MakeWorld(MissingMechanism::kMnar, 9);
  EXPECT_LT(AbsBias(EstimatorKind::kDr, world, world.mnar_propensity,
                    &world.imputed_wrong),
            kTol);
}

TEST(EstimatorBiasTest, DrWithExactImputationUnbiasedUnderMnar) {
  const World world = MakeWorld(MissingMechanism::kMnar, 10);
  EXPECT_LT(AbsBias(EstimatorKind::kDr, world, world.mar_propensity,
                    &world.imputed_exact),
            kTol);
}

// --------------------------------------------------------- Table I matrix

struct TableCase {
  MissingMechanism mechanism;
  int weighting;  // 0 = MCAR prop, 1 = MAR prop, 2 = MNAR prop
  bool unbiased;  // the ✓/× of Table I
};

class TableOneTest : public ::testing::TestWithParam<TableCase> {};

TEST_P(TableOneTest, IpsBiasMatchesTableOne) {
  const TableCase& tc = GetParam();
  const World world = MakeWorld(tc.mechanism, 40 + tc.weighting);
  const Matrix& weighting = tc.weighting == 0   ? world.mcar_propensity
                            : tc.weighting == 1 ? world.mar_propensity
                                                : world.mnar_propensity;
  const double bias = AbsBias(EstimatorKind::kIps, world, weighting);
  if (tc.unbiased) {
    EXPECT_LT(bias, kTol);
  } else {
    EXPECT_GT(bias, 5 * kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableOne, TableOneTest,
    ::testing::Values(
        // MCAR data: every propensity family is correct (column 1).
        TableCase{MissingMechanism::kMcar, 0, true},
        TableCase{MissingMechanism::kMcar, 1, true},
        TableCase{MissingMechanism::kMcar, 2, true},
        // MAR data: MCAR propensity fails, MAR/MNAR succeed (column 2).
        TableCase{MissingMechanism::kMar, 0, false},
        TableCase{MissingMechanism::kMar, 1, true},
        TableCase{MissingMechanism::kMar, 2, true},
        // MNAR data: only the MNAR propensity is unbiased (column 3).
        TableCase{MissingMechanism::kMnar, 0, false},
        TableCase{MissingMechanism::kMnar, 1, false},
        TableCase{MissingMechanism::kMnar, 2, true}));

// Basic estimator sanity.
TEST(EstimatorTest, HandComputedValues) {
  Matrix e{{1.0, 3.0}};
  Matrix o{{1.0, 0.0}};
  Matrix p{{0.5, 0.5}};
  Matrix imp{{2.0, 2.0}};
  EXPECT_DOUBLE_EQ(IdealLoss(e), 2.0);
  EXPECT_DOUBLE_EQ(NaiveEstimate(e, o), 1.0);
  EXPECT_DOUBLE_EQ(IpsEstimate(e, o, p), (1.0 / 0.5) / 2.0);
  // DR: imputed mean 2 + correction (1−2)/0.5 / 2 = 2 − 1 = 1.
  EXPECT_DOUBLE_EQ(DrEstimate(e, imp, o, p), 1.0);
  EXPECT_DOUBLE_EQ(NaiveEstimate(e, Matrix{{0.0, 0.0}}), 0.0);
}

// Regression for the raw-division audit: a degenerate p ≈ 0 must produce a
// finite estimate governed by the kEstimatorPropensityFloor clip, never an
// inf/NaN leaking into the bias tables. (Before the clip was added here,
// p = 0 made IpsEstimate divide by zero outright.)
TEST(EstimatorTest, NearZeroPropensityIsClippedToFiniteEstimate) {
  Matrix e{{1.0, 4.0}};
  Matrix o{{1.0, 1.0}};
  Matrix p{{1e-12, 1.0}};  // far below the 1e-6 floor
  const double ips = IpsEstimate(e, o, p);
  ASSERT_TRUE(std::isfinite(ips));
  // Floored at 1e-6: (1.0/1e-6 + 4.0/1.0) / 2. (The divisor here is the
  // clip floor itself, not a propensity estimate.)
  // dtrec-analyze: allow(propensity-taint)
  const double expected = 0.5 * (1.0 / kEstimatorPropensityFloor + 4.0);
  EXPECT_DOUBLE_EQ(ips, expected);

  Matrix imp{{0.0, 0.0}};
  const double dr = DrEstimate(e, imp, o, p);
  ASSERT_TRUE(std::isfinite(dr));
  EXPECT_DOUBLE_EQ(dr, expected);

  // Exact zero — the fully degenerate case — is clipped the same way.
  Matrix p_zero{{0.0, 1.0}};
  EXPECT_TRUE(std::isfinite(IpsEstimate(e, o, p_zero)));
  EXPECT_DOUBLE_EQ(IpsEstimate(e, o, p_zero), expected);
}

// The process-wide clip counters (obs/prop_stats.h) are the observable
// behind the "propensity.clip" metrics and the per-epoch clip_rate in the
// training event stream. Tests in this binary share the counters, so each
// assertion works on a snapshot delta rather than absolute values.
TEST(PropensityClipRateTest, OraclePropensityNeverFiresTheClip) {
  const World world = MakeWorld(MissingMechanism::kMnar, 7);
  Matrix o(world.errors.rows(), world.errors.cols());
  for (size_t i = 0; i < o.size(); ++i) o.at_flat(i) = 1.0;
  const obs::PropensityClipSnapshot before = obs::GetPropensityClipSnapshot();
  const double ips = IpsEstimate(world.errors, o, world.mnar_propensity);
  const obs::PropensityClipSnapshot delta =
      obs::GetPropensityClipSnapshot().DeltaSince(before);
  ASSERT_TRUE(std::isfinite(ips));
  // Every cell passed through ClipPropensity, but the oracle propensities
  // all live far above the 1e-6 floor: zero clips fired.
  EXPECT_GE(delta.total, o.size());
  EXPECT_EQ(delta.fired, 0u);
  EXPECT_DOUBLE_EQ(delta.rate(), 0.0);
}

TEST(PropensityClipRateTest, CollapsedPropensityFiresTheClip) {
  Matrix e{{1.0, 4.0}};
  Matrix o{{1.0, 1.0}};
  Matrix p{{1e-12, 1.0}};  // first entry far below the 1e-6 floor
  const obs::PropensityClipSnapshot before = obs::GetPropensityClipSnapshot();
  const double ips = IpsEstimate(e, o, p);
  const obs::PropensityClipSnapshot delta =
      obs::GetPropensityClipSnapshot().DeltaSince(before);
  ASSERT_TRUE(std::isfinite(ips));
  EXPECT_GE(delta.total, 2u);
  EXPECT_GE(delta.fired, 1u);
  EXPECT_GT(delta.rate(), 0.0);
}

}  // namespace
}  // namespace dtrec
