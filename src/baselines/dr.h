#ifndef DTREC_BASELINES_DR_H_
#define DTREC_BASELINES_DR_H_

#include <string>

#include "baselines/ips.h"

namespace dtrec {

/// Shared machinery of the doubly-robust family (paper Eq. 4).
///
/// The imputation model is an MF producing pseudo-labels r̃; the imputed
/// error is ê = (σ(pred) − r̃)², so prediction-model gradients flow through
/// both the observed error e and ê (Wang et al. 2019 joint learning).
/// Subclasses choose the imputation-loss weighting, targeting, and
/// self-normalization, which is all that distinguishes DR-JL, MRDR-JL,
/// DR-BIAS, DR-MSE, TDR(-JL), and StableDR.
class DrTrainerBase : public IpsTrainer {
 public:
  DrTrainerBase(const TrainConfig& config, bool joint_learning);

  size_t NumParameters() const override;
  ParamBudget Budget() const override;

 protected:
  Status Setup(const RatingDataset& dataset) override;
  void TrainStep(const Batch& batch) final;
  std::vector<CheckpointGroup> CheckpointGroups() override;

  /// Weight of the squared imputation residual for a cell with observation
  /// indicator `o` and clipped propensity `p`. DR-JL default: o/p.
  virtual double ImputationWeight(double o, double p) const { return o / p; }

  /// TDR-style targeting: shifts ê by the batch bias-zeroing constant δ.
  virtual bool UseTargeting() const { return false; }

  /// StableDR-style self-normalization of the correction term.
  virtual bool SelfNormalized() const { return false; }


  void PredictionStep(const Batch& batch);
  void ImputationStep(const Batch& batch);

  /// Pseudo-label r̃ for one cell from the imputation model.
  double PseudoLabel(size_t user, size_t item) const;

  MfModel imp_;
  std::unique_ptr<Adam> imp_opt_;
  bool joint_learning_;
  double last_delta_ = 0.0;  ///< most recent targeting shift (tests)
};

/// Vanilla DR: the imputation model is pre-trained on the observed ratings
/// and then frozen; only the prediction model trains on the DR loss.
class DrTrainer : public DrTrainerBase {
 public:
  explicit DrTrainer(const TrainConfig& config)
      : DrTrainerBase(config, /*joint_learning=*/false) {}

  std::string name() const override { return "DR"; }
};

}  // namespace dtrec

#endif  // DTREC_BASELINES_DR_H_
