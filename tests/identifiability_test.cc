#include <gtest/gtest.h>

#include <cmath>

#include "core/identifiability.h"
#include "util/random.h"

namespace dtrec {
namespace {

TEST(Example1Test, ModelsAreDistinct) {
  const Example1Model a = Example1ModelA();
  const Example1Model b = Example1ModelB();
  // Different propensities and different outcome models...
  EXPECT_NE(Example1Propensity(a, 2.5), Example1Propensity(b, 2.5));
  EXPECT_NE(Example1OutcomeDensity(a, 2.5),
            Example1OutcomeDensity(b, 2.5));
}

TEST(Example1Test, ObservedDensitiesCoincideEverywhere) {
  // ...yet the observed-data density is IDENTICAL (the paper's Eq. 6):
  // the MNAR propensity is unidentifiable from observed data alone.
  const Example1Model a = Example1ModelA();
  const Example1Model b = Example1ModelB();
  for (double r = -4.0; r <= 8.0; r += 0.1) {
    const double da = Example1ObservedDensity(a, r);
    const double db = Example1ObservedDensity(b, r);
    EXPECT_NEAR(da, db, 1e-12 + 1e-9 * db) << "r = " << r;
  }
}

TEST(Example1Test, AlgebraicIdentityBehindTheExample) {
  // σ(−4+2r)·φ(r−1) = σ(4−2r)·φ(r−3) reduces to
  // exp(2r−4)+1 = 1+exp(2r−4); spot-check the two factors' ratio.
  for (double r : {0.0, 1.7, 3.0, 5.2}) {
    // Closed-form oracle propensities, bounded away from zero by design.
    // dtrec-analyze: allow(propensity-taint)
    const double ratio_prop = Example1Propensity(Example1ModelA(), r) /
                              Example1Propensity(Example1ModelB(), r);
    const double ratio_out =
        Example1OutcomeDensity(Example1ModelB(), r) /
        Example1OutcomeDensity(Example1ModelA(), r);
    EXPECT_NEAR(ratio_prop, ratio_out, 1e-9 * ratio_out);
  }
}

// ------------------------------------------------- separable logistic fits

SeparableLogisticParams TrueParams() {
  SeparableLogisticParams p;
  p.alpha0 = -1.0;
  p.alpha1 = 1.5;
  p.beta1 = 1.2;
  p.eta = 0.4;
  return p;
}

TEST(SeparableLogisticTest, SimulationMatchesMoments) {
  Rng rng(3);
  const auto samples = SimulateSeparableLogistic(TrueParams(), 50000, &rng);
  // P(r=1) among *observed* exceeds η (positives are over-selected when
  // β₁ > 0): the MNAR signature.
  double obs = 0.0, obs_pos = 0.0;
  for (const auto& s : samples) {
    if (s.observed) {
      obs += 1.0;
      obs_pos += s.rating;
    }
  }
  EXPECT_GT(obs_pos / obs, 0.45);  // vs true η = 0.4
}

TEST(SeparableLogisticTest, NllRejectsEmpty) {
  EXPECT_FALSE(FitSeparableLogistic({}, true, TrueParams()).ok());
  SeparableLogisticParams bad = TrueParams();
  bad.eta = 0.0;
  std::vector<MnarSample> one(1);
  EXPECT_FALSE(FitSeparableLogistic(one, true, bad).ok());
}

TEST(SeparableLogisticTest, TrueParamsMinimizeNll) {
  Rng rng(7);
  const auto samples = SimulateSeparableLogistic(TrueParams(), 30000, &rng);
  const double nll_true = ObservedDataNll(TrueParams(), samples, true);
  SeparableLogisticParams off = TrueParams();
  off.beta1 = -1.2;
  off.eta = 0.7;
  EXPECT_LT(nll_true, ObservedDataNll(off, samples, true));
}

TEST(SeparableLogisticTest, WithAuxiliaryTheFitRecoversTruth) {
  // Theorem 1: with the auxiliary variable, the observed-data likelihood
  // identifies (α₀, α₁, β₁, η).
  Rng rng(11);
  const auto samples = SimulateSeparableLogistic(TrueParams(), 40000, &rng);
  SeparableLogisticParams init;
  init.alpha0 = 0.0;
  init.alpha1 = 0.5;
  init.beta1 = 0.0;
  init.eta = 0.5;
  const auto fit =
      FitSeparableLogistic(samples, /*use_aux=*/true, init, 6000, 0.5);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit.value().beta1, 1.2, 0.25);
  EXPECT_NEAR(fit.value().alpha1, 1.5, 0.25);
  EXPECT_NEAR(fit.value().eta, 0.4, 0.05);
}

TEST(SeparableLogisticTest, WithoutAuxiliaryDistinctSolutionsTie) {
  // Without z the likelihood cannot distinguish "high η, negative β₁"
  // from "low η, positive β₁" (Example 1's ambiguity): two fits from
  // opposite starting points reach (near-)equal NLL with different
  // parameters.
  Rng rng(13);
  const auto samples = SimulateSeparableLogistic(TrueParams(), 40000, &rng);

  SeparableLogisticParams init_pos;
  init_pos.alpha0 = -1.0;
  init_pos.beta1 = 2.0;
  init_pos.eta = 0.3;
  SeparableLogisticParams init_neg;
  init_neg.alpha0 = 0.0;
  init_neg.beta1 = -2.0;
  init_neg.eta = 0.7;

  const auto fit_pos =
      FitSeparableLogistic(samples, /*use_aux=*/false, init_pos, 6000, 0.5);
  const auto fit_neg =
      FitSeparableLogistic(samples, /*use_aux=*/false, init_neg, 6000, 0.5);
  ASSERT_TRUE(fit_pos.ok());
  ASSERT_TRUE(fit_neg.ok());

  const double nll_pos = ObservedDataNll(fit_pos.value(), samples, false);
  const double nll_neg = ObservedDataNll(fit_neg.value(), samples, false);
  // Both are (near-)optimal...
  EXPECT_NEAR(nll_pos, nll_neg, 5e-3);
  // ...but the recovered rating effects disagree substantially — the
  // estimand is not identified.
  EXPECT_GT(std::fabs(fit_pos.value().beta1 - fit_neg.value().beta1), 0.5);
}

TEST(SeparableLogisticTest, DeterministicSimulation) {
  Rng rng1(5), rng2(5);
  const auto a = SimulateSeparableLogistic(TrueParams(), 100, &rng1);
  const auto b = SimulateSeparableLogistic(TrueParams(), 100, &rng2);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].observed, b[i].observed);
    EXPECT_EQ(a[i].rating, b[i].rating);
    EXPECT_DOUBLE_EQ(a[i].z, b[i].z);
  }
}

}  // namespace
}  // namespace dtrec
