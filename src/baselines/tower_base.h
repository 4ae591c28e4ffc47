#ifndef DTREC_BASELINES_TOWER_BASE_H_
#define DTREC_BASELINES_TOWER_BASE_H_

#include <string>
#include <vector>

#include "baselines/trainer_base.h"
#include "models/mlp.h"

namespace dtrec {

/// Scaffolding for the shared-embedding multi-task methods (Multi-IPS/DR,
/// ESMM, ESCM²-IPS/DR, IPS-V2, DR-V2).
///
/// These methods share ONE user/item embedding pair (the base MfModel's
/// tables, whose dot product is unused) feeding shallow MLP towers:
///  - ctr tower:   observation propensity P(o=1 | u,i)
///  - cvr tower:   the rating/conversion prediction (evaluation target)
///  - imp tower:   error imputation (DR flavors only)
/// matching the paper's Section VI-D note that parameter-sharing baselines
/// need a shallow MLP head on top of MF embeddings.
class TowerTrainerBase : public MfJointTrainerBase {
 public:
  explicit TowerTrainerBase(const TrainConfig& config, bool has_imputation)
      : MfJointTrainerBase(config), has_imputation_(has_imputation) {}

  /// Prediction comes from the cvr tower, not the MF dot product.
  double Predict(size_t user, size_t item) const override;

  size_t NumParameters() const override;
  ParamBudget Budget() const override;

 protected:
  Status Setup(const RatingDataset& dataset) override;

  std::vector<CheckpointGroup> CheckpointGroups() override {
    // All towers are stepped by opt_ together with the shared embeddings,
    // so everything lives in group 0.
    auto groups = MfJointTrainerBase::CheckpointGroups();
    for (Matrix* param : ctr_tower_.Params()) groups[0].params.push_back(param);
    for (Matrix* param : cvr_tower_.Params()) groups[0].params.push_back(param);
    if (has_imputation_) {
      for (Matrix* param : imp_tower_.Params()) {
        groups[0].params.push_back(param);
      }
    }
    return groups;
  }

  /// Hook for subclasses needing extra setup after the towers exist.
  virtual Status TowerSetup(const RatingDataset& /*dataset*/) {
    return Status::OK();
  }

  /// Per-step graph pieces available to subclasses.
  struct TowerGraph {
    ag::Var p, q;                      // shared embedding leaves
    MlpHead::Leaves ctr_leaves;        // ctr tower params
    MlpHead::Leaves cvr_leaves;        // cvr tower params
    MlpHead::Leaves imp_leaves;        // imp tower params (iff imputation)
    ag::Var features;                  // B×3K [p_u, q_i, p_u∘q_i]
    ag::Var ctr_logits;                // B×1
    ag::Var cvr_logits;                // B×1
    ag::Var imp_logits;                // B×1 (valid iff has_imputation)
  };

  /// Builds embeddings + towers on `tape` for `batch`.
  TowerGraph BuildGraph(ag::Tape* tape, const Batch& batch) const;

  /// All (leaf, param) pairs of `graph`, for the optimizer step.
  void StepAll(ag::Tape* tape, ag::Var loss, const TowerGraph& graph);

  /// Probability clamped into (eps, 1−eps) for log-safety.
  static ag::Var SafeProb(ag::Var prob);

  /// Mean binary cross entropy of probability Var vs constant labels.
  static ag::Var BceMean(ag::Tape* tape, ag::Var prob, const Matrix& labels);

  MlpHead ctr_tower_;
  MlpHead cvr_tower_;
  MlpHead imp_tower_;
  bool has_imputation_;
};

}  // namespace dtrec

#endif  // DTREC_BASELINES_TOWER_BASE_H_
