#include "propensity/propensity.h"

#include "obs/prop_stats.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"

namespace dtrec {

double ClipPropensity(double p, double min_p) {
  obs::PropensityClipTally tally;
  const double clipped = ClipPropensity(p, min_p, &tally);
  obs::RecordPropensityClips(tally);
  return clipped;
}

Status ConstantPropensity::Fit(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  const double cells = static_cast<double>(dataset.num_users()) *
                       static_cast<double>(dataset.num_items());
  value_ = static_cast<double>(dataset.train().size()) / cells;
  return Status::OK();
}

double ConstantPropensity::Propensity(size_t, size_t) const {
  DTREC_ASSERT_PROPENSITY(value_);
  return value_;
}

Status NaiveBayesPropensity::Fit(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  if (dataset.test().empty()) {
    return Status::FailedPrecondition(
        "naive-Bayes propensity needs an unbiased (MCAR) test slice for "
        "the marginal rating distribution");
  }
  for (const auto& t : dataset.train()) {
    if (t.rating != 0.0 && t.rating != 1.0) {
      return Status::InvalidArgument(
          "naive-Bayes propensity requires binary ratings; call "
          "BinarizeRatings first");
    }
  }
  const double cells = static_cast<double>(dataset.num_users()) *
                       static_cast<double>(dataset.num_items());
  p_o_ = static_cast<double>(dataset.train().size()) / cells;

  double pos_train = 0.0;
  for (const auto& t : dataset.train()) pos_train += t.rating;
  p_r1_given_o_ = pos_train / static_cast<double>(dataset.train().size());

  double pos_test = 0.0;
  for (const auto& t : dataset.test()) pos_test += t.rating >= 0.5 ? 1 : 0;
  p_r1_marginal_ = pos_test / static_cast<double>(dataset.test().size());
  if (p_r1_marginal_ <= 0.0 || p_r1_marginal_ >= 1.0) {
    return Status::FailedPrecondition(
        "degenerate marginal rating distribution in the unbiased slice");
  }
  return Status::OK();
}

double NaiveBayesPropensity::Propensity(size_t, size_t) const {
  // Without the rating, fall back to the marginal observation rate.
  DTREC_ASSERT_PROPENSITY(p_o_);
  return p_o_;
}

double NaiveBayesPropensity::PropensityGivenRating(size_t, size_t,
                                                   double rating) const {
  const double r1 = rating >= 0.5 ? 1.0 : 0.0;
  const double p_r_given_o =
      r1 == 1.0 ? p_r1_given_o_ : 1.0 - p_r1_given_o_;
  const double p_r = r1 == 1.0 ? p_r1_marginal_ : 1.0 - p_r1_marginal_;
  // The plug-in estimate P(r|o)·P(o)/P(r) is not guaranteed to land in
  // (0, 1]; clamp so downstream inverse weights stay bounded.
  const double p = ClipPropensity(p_r_given_o * p_o_ / p_r, 1e-6);
  DTREC_ASSERT_PROPENSITY(p);
  return p;
}

}  // namespace dtrec
