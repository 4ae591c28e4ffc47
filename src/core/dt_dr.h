#ifndef DTREC_CORE_DT_DR_H_
#define DTREC_CORE_DT_DR_H_

#include <string>
#include <vector>

#include "core/dt_ips.h"
#include "models/mf_model.h"

namespace dtrec {

/// DT-DR — the paper's proposed method, doubly-robust flavor.
///
/// Replaces DT-IPS's L_IPS by the DR pair of Section IV-B:
///   L_DR^err on (P′,Q′; θ_r):  mean[ ê + o·(e−ê)/p̂ ]
///   L_DR^imp on (U,V; θ_e):    mean[ o·(e−ê)²/p̂ ]
/// with the same propensity/disentangling/regularization terms as DT-IPS
/// and a *separate* MF imputation model (U, V) — the 2× embedding cost
/// the paper reports in Table II.
class DtDrTrainer : public DtIpsTrainer {
 public:
  explicit DtDrTrainer(const TrainConfig& config) : DtIpsTrainer(config) {}

  std::string name() const override { return "DT-DR"; }

  size_t NumParameters() const override;
  ParamBudget Budget() const override;

 protected:
  Status Setup(const RatingDataset& dataset) override;
  void TrainStep(const Batch& batch) override;
  ag::Var EstimatorLoss(ag::Tape* tape, const Batch& batch,
                        const DisentangledGraph& graph) override;
  const char* estimator_name() const override { return "dr"; }
  std::vector<CheckpointGroup> CheckpointGroups() override;

 protected:
  /// Weight of the squared imputation residual for a cell with observation
  /// indicator `o` and clipped propensity `p`. DT-DR default: o/p̂ (the
  /// paper's L_DR^imp). DT-MRDR overrides with the variance-reduced form.
  virtual double ImputationWeight(double o, double p) const { return o / p; }

 private:
  /// Steps the imputation model against the prediction model just
  /// updated, weighting cells by the step's clipped propensities.
  void ImputationStep(const Batch& batch);

  MfModel imp_;
  std::unique_ptr<Adam> imp_opt_;

  // Constants of the prediction step, kept across steps: clipped learned
  // propensities (also read by ImputationStep), pseudo-labels, DR weights.
  Matrix clipped_p_;
  Matrix pseudo_;
  Matrix w_imputed_;
  Matrix w_observed_;

  // The imputation step's buffers, kept across steps so it allocates
  // nothing: the imputation model's parameters (fixed by Setup) and their
  // leaves, the prediction model's probabilities, the squared errors and
  // the cell weights.
  std::vector<Matrix*> imp_params_;
  std::vector<ag::Var> imp_leaves_;
  Matrix imp_pred_probs_;
  Matrix imp_target_e_;
  Matrix imp_weights_;
};

/// Extension (DESIGN.md §5): DT with MRDR's variance-targeting imputation
/// weight o·(1−p̂)/p̂² — the paper's disentangled MNAR propensity combined
/// with Guo et al.'s variance reduction. Not part of the paper's tables;
/// exposed to show the framework composes.
class DtMrdrTrainer : public DtDrTrainer {
 public:
  explicit DtMrdrTrainer(const TrainConfig& config) : DtDrTrainer(config) {}

  std::string name() const override { return "DT-MRDR"; }

 protected:
  double ImputationWeight(double o, double p) const override {
    return o * (1.0 - p) / (p * p);
  }
};

}  // namespace dtrec

#endif  // DTREC_CORE_DT_DR_H_
