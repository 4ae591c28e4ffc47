#ifndef DTREC_BASELINES_TRAINER_BASE_H_
#define DTREC_BASELINES_TRAINER_BASE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "core/train_checkpoint.h"
#include "data/rating_dataset.h"
#include "data/samplers.h"
#include "models/mf_model.h"
#include "models/param_count.h"
#include "optim/optimizer.h"
#include "propensity/propensity.h"
#include "util/random.h"
#include "util/status.h"

namespace dtrec {

/// Hyper-parameters shared by every trainer. Method-specific knobs are
/// grouped at the bottom; a method reads only the ones it documents.
struct TrainConfig {
  size_t epochs = 20;
  size_t batch_size = 2048;
  size_t steps_per_epoch = 0;  ///< 0 → ceil(|D|/batch), capped below
  size_t max_steps_per_epoch = 120;
  double learning_rate = 0.05;
  double lr_decay = 0.0;  ///< inverse-time decay rate per epoch (0 = off)
  double weight_decay = 1e-5;
  OptimizerKind optimizer = OptimizerKind::kAdam;
  size_t embedding_dim = 8;
  bool use_bias = false;  ///< user/item bias terms in MF heads
  double init_scale = 0.1;
  double propensity_clip = 0.05;  ///< lower clip for inverse weights
  bool mf_propensity = false;  ///< IPS/DR: MF propensity instead of the
                               ///< logistic identity model (paper Table II)
  uint64_t seed = 123;

  // -- multi-task / method-specific weights ---------------------------
  double alpha = 1.0;    ///< propensity-loss weight (DT, ESCM², Multi-*)
  double beta = 1e-4;    ///< disentangling-loss weight (DT, DIB)
  double gamma = 1e-5;   ///< regularization-loss weight (DT)
  size_t disentangle_dim = 0;  ///< A in the paper; 0 → dim/2
  double lambda1 = 0.5;  ///< ESCM² counterfactual-risk weight
  double lambda2 = 0.5;  ///< ESCM² CTCVR weight / CVIB confidence weight
  size_t mlp_hidden = 16;  ///< tower width for shared-embedding methods
  bool dt_mlp_propensity = true;  ///< DT: MLP propensity head (paper Table
                                  ///< II charges DT-IPS 1× hidden); false
                                  ///< falls back to the per-dim GLM head
};

/// Checkpointing / resume controls for Fit. Default-constructed options
/// mean "train from scratch, never touch disk" — the historical behavior.
struct FitOptions {
  /// Directory for the training checkpoint (`<dir>/train_state.ckpt`,
  /// written crash-atomically). Empty disables checkpointing.
  std::string checkpoint_dir;
  /// Save after every N completed epochs (and always after the last).
  size_t checkpoint_every = 1;
  /// Restore from an existing checkpoint in `checkpoint_dir` and continue
  /// at the epoch it recorded. A missing checkpoint file is a cold start,
  /// not an error, so retry wrappers can pass resume=true unconditionally.
  bool resume = false;
  /// Path of a JSONL training event stream: one "dtrec-train-events-v1"
  /// record per completed epoch (loss components, grad norm, propensity
  /// clip rate, wall time, RNG cursor — see obs/event_log.h). Empty
  /// disables the stream. A fresh run truncates the file; a resumed run
  /// appends, so earlier epochs' records survive the restart.
  std::string events_path;
};

/// Interface every debiasing method implements. Training reads only
/// dataset.train() (the biased observations); the unbiased test slice is
/// reserved for evaluation.
class RecommenderTrainer {
 public:
  explicit RecommenderTrainer(const TrainConfig& config) : config_(config) {}
  virtual ~RecommenderTrainer() = default;

  RecommenderTrainer(const RecommenderTrainer&) = delete;
  RecommenderTrainer& operator=(const RecommenderTrainer&) = delete;

  virtual std::string name() const = 0;
  virtual Status Fit(const RatingDataset& dataset) = 0;

  /// Checkpoint-aware variant. The default rejects any request that needs
  /// disk state (so a method without resume support cannot silently ignore
  /// it) and otherwise behaves exactly like Fit(dataset). Every trainer
  /// derived from MfJointTrainerBase — i.e. every method in the registry —
  /// supports the full option set.
  virtual Status Fit(const RatingDataset& dataset, const FitOptions& options) {
    if (!options.checkpoint_dir.empty()) {
      return Status::NotSupported(name() +
                                  " does not support training checkpoints");
    }
    return Fit(dataset);
  }

  /// Predicted probability that (user, item) is a positive interaction.
  virtual double Predict(size_t user, size_t item) const = 0;

  virtual size_t NumParameters() const = 0;

  /// Itemized budget for Table II / Table VI; default attributes all
  /// parameters to embeddings.
  virtual ParamBudget Budget() const;

  /// Which auxiliary losses the method trains (Table II inventory).
  virtual LossInventory Losses() const { return {}; }

  /// Predictions aligned with `triples`.
  std::vector<double> PredictMany(
      const std::vector<RatingTriple>& triples) const;

  /// Dense prediction matrix (semi-synthetic pointwise evaluation).
  Matrix PredictFullMatrix(size_t num_users, size_t num_items) const;

  const TrainConfig& config() const { return config_; }

 protected:
  TrainConfig config_;
};

/// Scaffolding shared by all MF-based joint trainers: owns the prediction
/// MF model and the optimizer, and drives the epoch/step loop over uniform
/// full-matrix batches (the stochastic form of the paper's 1/|D| Σ_D
/// losses). Subclasses implement Setup() and TrainStep().
class MfJointTrainerBase : public RecommenderTrainer {
 public:
  explicit MfJointTrainerBase(const TrainConfig& config)
      : RecommenderTrainer(config), rng_(config.seed) {}

  Status Fit(const RatingDataset& dataset) final {
    return Fit(dataset, FitOptions());
  }

  /// Runs the epoch/step loop with optional periodic checkpointing and
  /// resume (see core/train_checkpoint.h for the protocol). Failpoint
  /// sites: "train/epoch_begin" before each epoch's steps,
  /// "train/epoch_end" after its checkpoint save.
  Status Fit(const RatingDataset& dataset, const FitOptions& options) final;

  double Predict(size_t user, size_t item) const override {
    return pred_.PredictProbability(user, item);
  }

  size_t NumParameters() const override { return pred_.NumParameters(); }

 protected:
  /// Builds method-specific state (extra models, pre-fit propensities).
  /// The prediction model and optimizer already exist.
  virtual Status Setup(const RatingDataset& dataset) = 0;

  /// One SGD step on a uniform full-matrix batch.
  virtual void TrainStep(const Batch& batch) = 0;

  /// Optional per-epoch hook (e.g. decayed schedules, recalibration).
  virtual void EpochEnd(size_t epoch) { (void)epoch; }

  /// Called when the per-epoch learning rate changes (inverse-time decay,
  /// TrainConfig::lr_decay); subclasses owning extra optimizers forward it.
  virtual void OnLearningRate(double lr) { opt_->set_learning_rate(lr); }

  /// Everything the epoch loop mutates, grouped with the optimizer that
  /// steps it — the contents of a training checkpoint. The base covers the
  /// prediction model and main optimizer; subclasses owning extra trained
  /// state (disentangled embeddings, towers, imputation models and their
  /// optimizers) append to group 0 or add groups, keeping a stable order.
  /// Called only after Setup(), so subclass state exists.
  virtual std::vector<CheckpointGroup> CheckpointGroups() {
    return {CheckpointGroup{pred_.Params(), opt_.get()}};
  }

  /// Resets the trainer's autograd workspace and returns it for the next
  /// graph. One tape lives for the whole Fit; every graph a step builds
  /// starts with this call, so the nodes of the previous graph hand their
  /// value and gradient buffers to the next instead of being freed.
  ag::Tape* FreshTape() {
    tape_.Reset();
    return &tape_;
  }

  /// Runs backward from `loss` and applies one optimizer step for each
  /// (leaf, parameter) pair. When the event stream is on, also records
  /// the scalar loss value as the "total" component and accumulates the
  /// global gradient L2 norm for the epoch's event record.
  void BackwardAndStep(ag::Tape* tape, ag::Var loss,
                       const std::vector<ag::Var>& leaves,
                       const std::vector<Matrix*>& params);

  /// Accumulates one per-step observation of a named loss component; the
  /// epoch's event record reports the per-step mean. No-op unless Fit was
  /// given FitOptions::events_path (check collect_epoch_stats_ before
  /// doing non-trivial work to compute `value`).
  void RecordEpochLoss(const char* name, double value);

  /// True while Fit is emitting the per-epoch event stream.
  bool collect_epoch_stats_ = false;

  /// Per-cell inverse-propensity weights o_i / clip(p̂_i) / B, the batch
  /// estimate of the IPS loss weights. `propensity(i)` returns p̂ for
  /// batch index i.
  Matrix IpsWeights(const Batch& batch,
                    const std::function<double(size_t)>& propensity) const;

  MfModelConfig PredModelConfig(const RatingDataset& dataset,
                                uint64_t seed) const;

  MfModel pred_;
  std::unique_ptr<Optimizer> opt_;
  Rng rng_;

 private:
  ag::Tape tape_;

  // Per-epoch telemetry accumulators (cleared at each epoch start).
  std::map<std::string, std::pair<double, uint64_t>> epoch_losses_;
  double grad_norm_sum_ = 0.0;
  uint64_t grad_norm_steps_ = 0;
};

}  // namespace dtrec

#endif  // DTREC_BASELINES_TRAINER_BASE_H_
