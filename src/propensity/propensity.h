#ifndef DTREC_PROPENSITY_PROPENSITY_H_
#define DTREC_PROPENSITY_PROPENSITY_H_

#include <string>

#include "data/rating_dataset.h"
#include "obs/prop_stats.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/status.h"

namespace dtrec {

/// Interface for observation-propensity estimators P(o=1 | ·).
///
/// Section III-C of the paper distinguishes three target propensities:
///  - the MCAR propensity P(o=1)            (constant),
///  - the MAR propensity  P(o=1 | x)        (features only),
///  - the MNAR propensity P(o=1 | x, r)     (features and rating).
/// Estimators that cannot use the rating simply ignore it in
/// PropensityGivenRating. The disentangled MNAR propensity of the proposed
/// method lives in core/ (it is learned jointly with the recommender).
class PropensityModel {
 public:
  virtual ~PropensityModel() = default;

  /// Fits the estimator on the dataset's observation pattern.
  virtual Status Fit(const RatingDataset& dataset) = 0;

  /// P(o=1 | x_{u,i}) — must be callable for every cell.
  virtual double Propensity(size_t user, size_t item) const = 0;

  /// P(o=1 | x_{u,i}, r) for estimators that model the rating channel;
  /// defaults to the rating-free propensity.
  virtual double PropensityGivenRating(size_t user, size_t item,
                                       double rating) const {
    (void)rating;
    return Propensity(user, item);
  }

  virtual std::string name() const = 0;
};

/// Clips a propensity from below; every IPS-family estimator divides by a
/// propensity, and clipping bounds the variance blow-up at tiny values
/// (the failure mode StableDR targets).
double ClipPropensity(double p, double min_p);

/// ClipPropensity for a loop over a batch: the same clip, counted into
/// `tally` rather than the process-wide counters, which the loop then
/// updates once with obs::RecordPropensityClips.
inline double ClipPropensity(double p, double min_p,
                             obs::PropensityClipTally* tally) {
  DTREC_CHECK_GT(min_p, 0.0);
  // `fired` = below the floor (the variance failure mode the clip rate
  // tracks); the benign clamp toward 1 from above does not count.
  ++tally->total;
  if (p < min_p) ++tally->fired;
  return Clamp(p, min_p, 1.0);
}

/// The MCAR propensity: P(o=1) = |O| / |D|.
class ConstantPropensity : public PropensityModel {
 public:
  Status Fit(const RatingDataset& dataset) override;
  double Propensity(size_t user, size_t item) const override;
  std::string name() const override { return "constant"; }

  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Naive-Bayes MNAR propensity (Schnabel et al. 2016): uses the MCAR test
/// slice to estimate P(r) and the biased train slice for P(r | o=1), then
///   P(o=1 | r) = P(r | o=1) · P(o=1) / P(r).
/// Ratings must be binary {0,1}. This is the classical way to target the
/// *rating-dependent* propensity without the identifiability machinery —
/// it cheats by consuming unbiased data the proposed method does not need.
class NaiveBayesPropensity : public PropensityModel {
 public:
  Status Fit(const RatingDataset& dataset) override;
  double Propensity(size_t user, size_t item) const override;
  double PropensityGivenRating(size_t user, size_t item,
                               double rating) const override;
  std::string name() const override { return "naive_bayes"; }

 private:
  double p_o_ = 0.0;            // P(o=1)
  double p_r1_given_o_ = 0.0;   // P(r=1 | o=1)
  double p_r1_marginal_ = 0.0;  // P(r=1) from the unbiased slice
};

}  // namespace dtrec

#endif  // DTREC_PROPENSITY_PROPENSITY_H_
