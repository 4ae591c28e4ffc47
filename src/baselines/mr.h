#ifndef DTREC_BASELINES_MR_H_
#define DTREC_BASELINES_MR_H_

#include <memory>
#include <string>
#include <vector>

#include "baselines/trainer_base.h"
#include "propensity/logistic_propensity.h"
#include "propensity/popularity_propensity.h"

namespace dtrec {

/// Multiple-robust learning (Li et al., AAAI 2023), structured form.
///
/// MR maintains a *set* of candidate propensity models {constant,
/// popularity, logistic} and candidate imputations {global mean error,
/// MF pseudo-labels} and learns simplex mixture weights over both, so the
/// estimator stays unbiased whenever any candidate (or a linear
/// combination) is accurate. We realize the mixture with learnable softmax
/// logits trained end-to-end through the DR-style loss; the pseudo-label
/// model trains alternately, as in DR-JL. This keeps MR's defining
/// relaxation — correctness of one candidate suffices — in a form that
/// trains with the same SGD stack as every other method (see DESIGN.md).
class MrTrainer : public MfJointTrainerBase {
 public:
  explicit MrTrainer(const TrainConfig& config)
      : MfJointTrainerBase(config) {}

  std::string name() const override { return "MR"; }

  size_t NumParameters() const override;
  LossInventory Losses() const override {
    LossInventory inv;
    inv.propensity_loss = true;  // candidate propensities are trained
    return inv;
  }

  /// Current mixture over propensity candidates (softmax of logits).
  std::vector<double> PropensityMixture() const;

 protected:
  Status Setup(const RatingDataset& dataset) override;
  void TrainStep(const Batch& batch) override;
  std::vector<CheckpointGroup> CheckpointGroups() override {
    // Mixture logits ride in group 0 (stepped by opt_ alongside pred_);
    // the alternating pseudo-label model keeps its own optimizer.
    auto groups = MfJointTrainerBase::CheckpointGroups();
    groups[0].params.push_back(&prop_logits_);
    groups[0].params.push_back(&imp_logits_);
    groups.push_back(CheckpointGroup{imp_.Params(), imp_opt_.get()});
    return groups;
  }

 private:
  void ImputationStep(const Batch& batch, const Matrix& inv_p);

  std::vector<std::unique_ptr<PropensityModel>> propensity_candidates_;
  MfModel imp_;
  std::unique_ptr<Adam> imp_opt_;
  Matrix prop_logits_;  // 1×J mixture logits
  Matrix imp_logits_;   // 1×2 mixture logits (mean vs MF pseudo-labels)
  double mean_label_ = 0.0;
};

}  // namespace dtrec

#endif  // DTREC_BASELINES_MR_H_
