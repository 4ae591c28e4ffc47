#include "baselines/trainer_base.h"

#include <algorithm>
#include <cmath>

#include "obs/event_log.h"
#include "obs/prop_stats.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/math_util.h"
#include "util/numeric_guard.h"
#include "util/stopwatch.h"

namespace dtrec {

ParamBudget RecommenderTrainer::Budget() const {
  ParamBudget budget;
  budget.embedding_params = NumParameters();
  return budget;
}

std::vector<double> RecommenderTrainer::PredictMany(
    const std::vector<RatingTriple>& triples) const {
  std::vector<double> out;
  out.reserve(triples.size());
  for (const auto& t : triples) out.push_back(Predict(t.user, t.item));
  return out;
}

Matrix RecommenderTrainer::PredictFullMatrix(size_t num_users,
                                             size_t num_items) const {
  Matrix out(num_users, num_items);
  for (size_t u = 0; u < num_users; ++u) {
    for (size_t i = 0; i < num_items; ++i) out(u, i) = Predict(u, i);
  }
  return out;
}

Status MfJointTrainerBase::Fit(const RatingDataset& dataset,
                               const FitOptions& options) {
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  if (!options.checkpoint_dir.empty() && options.checkpoint_every == 0) {
    return Status::InvalidArgument("checkpoint_every must be >= 1");
  }
  // Deterministic preamble: identical on a fresh run and on resume, so any
  // state it produces that the epoch loop never mutates needs no snapshot.
  rng_ = Rng(config_.seed);
  pred_ = MfModel(PredModelConfig(dataset, rng_.NextUint64()));
  opt_ = MakeAdam();
  DTREC_RETURN_IF_ERROR(Setup(dataset));

  FullMatrixBatchSampler sampler(dataset, rng_.NextUint64());
  const size_t cells = dataset.num_users() * dataset.num_items();
  const size_t steps =
      std::min((cells + config_.batch_size - 1) / config_.batch_size,
               config_.max_steps_per_epoch);

  const std::string ckpt_path =
      options.checkpoint_dir.empty()
          ? std::string()
          : options.checkpoint_dir + "/train_state.ckpt";
  size_t start_epoch = 0;
  if (options.resume && !ckpt_path.empty()) {
    TrainState state;
    const Status st = LoadTrainCheckpoint(ckpt_path, &state,
                                          CheckpointGroups());
    if (st.ok()) {
      if (state.method != name()) {
        return Status::FailedPrecondition(
            "checkpoint in " + options.checkpoint_dir + " belongs to '" +
            state.method + "', not '" + name() + "'");
      }
      if (state.next_epoch > config_.epochs) {
        return Status::FailedPrecondition(
            "checkpoint is at epoch " + std::to_string(state.next_epoch) +
            " but the config trains only " + std::to_string(config_.epochs));
      }
      rng_.set_state(state.trainer_rng);
      sampler.mutable_rng()->set_state(state.sampler_rng);
      start_epoch = static_cast<size_t>(state.next_epoch);
    } else if (st.code() != StatusCode::kNotFound) {
      // A corrupt checkpoint must surface, not silently train from scratch.
      return st;
    }
  }

  // Per-epoch event stream (obs/event_log.h). On resume the file is
  // opened in append mode so records for epochs [0, start_epoch) survive.
  obs::TrainEventLog event_log;
  collect_epoch_stats_ = !options.events_path.empty();
  if (collect_epoch_stats_) {
    DTREC_RETURN_IF_ERROR(
        event_log.Open(options.events_path, /*append=*/start_epoch > 0));
  }

  for (size_t epoch = start_epoch; epoch < config_.epochs; ++epoch) {
    DTREC_FAILPOINT("train/epoch_begin");
    const Stopwatch epoch_watch;
    const obs::PropensityClipSnapshot clip_begin =
        obs::GetPropensityClipSnapshot();
    epoch_losses_.clear();
    grad_norm_sum_ = 0.0;
    grad_norm_steps_ = 0;
    {
      DTREC_TRACE_SPAN("epoch");
      for (size_t step = 0; step < steps; ++step) {
        DTREC_TRACE_SPAN("train_step");
        TrainStep(sampler.Sample(config_.batch_size));
      }
      EpochEnd(epoch);
    }
    if (collect_epoch_stats_) {
      obs::TrainEvent event;
      event.method = name();
      event.epoch = epoch;
      event.steps = steps;
      event.wall_seconds = epoch_watch.ElapsedSeconds();
      event.learning_rate = config_.learning_rate;
      for (const auto& [loss_name, acc] : epoch_losses_) {
        event.losses.emplace_back(
            loss_name, acc.second == 0
                           ? 0.0
                           : acc.first / static_cast<double>(acc.second));
      }
      event.grad_norm =
          grad_norm_steps_ == 0
              ? 0.0
              : grad_norm_sum_ / static_cast<double>(grad_norm_steps_);
      const obs::PropensityClipSnapshot clip_delta =
          obs::GetPropensityClipSnapshot().DeltaSince(clip_begin);
      event.clip_total = clip_delta.total;
      event.clip_fired = clip_delta.fired;
      event.clip_rate = clip_delta.rate();
      // Fingerprint of every RNG the epoch loop advances (the sampler is
      // the one that actually moves per step; the trainer RNG covers
      // method-specific draws). Two runs that diverge stop matching here.
      const Rng::State trainer_rng = rng_.state();
      const Rng::State sampler_rng = sampler.mutable_rng()->state();
      event.rng_cursor = trainer_rng.s[0] ^ trainer_rng.s[1] ^
                         trainer_rng.s[2] ^ trainer_rng.s[3] ^
                         sampler_rng.s[0] ^ sampler_rng.s[1] ^
                         sampler_rng.s[2] ^ sampler_rng.s[3];
      DTREC_RETURN_IF_ERROR(event_log.Append(event));
    }
    if (!ckpt_path.empty() && ((epoch + 1) % options.checkpoint_every == 0 ||
                               epoch + 1 == config_.epochs)) {
      TrainState state;
      state.method = name();
      state.next_epoch = epoch + 1;
      state.trainer_rng = rng_.state();
      state.sampler_rng = sampler.mutable_rng()->state();
      DTREC_RETURN_IF_ERROR(
          SaveTrainCheckpoint(ckpt_path, state, CheckpointGroups()));
    }
    DTREC_FAILPOINT("train/epoch_end");
  }
  collect_epoch_stats_ = false;
  return Status::OK();
}

void MfJointTrainerBase::BackwardAndStep(ag::Tape* tape, ag::Var loss,
                                         const std::vector<ag::Var>& leaves,
                                         const std::vector<Matrix*>& params) {
  DTREC_CHECK(tape != nullptr);
  DTREC_CHECK_EQ(leaves.size(), params.size());
  {
    DTREC_TRACE_SPAN("backward");
    tape->Backward(loss);
  }
  if (collect_epoch_stats_) {
    const Matrix& loss_value = loss.value();
    if (loss_value.size() == 1) RecordEpochLoss("total", loss_value(0, 0));
    double sq_sum = 0.0;
    for (const ag::Var& leaf : leaves) {
      const Matrix& grad = tape->GradOf(leaf);
      for (size_t i = 0; i < grad.size(); ++i) {
        sq_sum += grad.at_flat(i) * grad.at_flat(i);
      }
    }
    grad_norm_sum_ += std::sqrt(sq_sum);
    ++grad_norm_steps_;
  }
  {
    DTREC_TRACE_SPAN("optimizer_step");
    for (size_t i = 0; i < leaves.size(); ++i) {
      opt_->Step(params[i], tape->GradOf(leaves[i]));
    }
  }
}

void MfJointTrainerBase::RecordEpochLoss(const char* name, double value) {
  if (!collect_epoch_stats_) return;
  auto& slot = epoch_losses_[name];
  slot.first += value;
  ++slot.second;
}

Matrix MfJointTrainerBase::IpsWeights(
    const Batch& batch,
    const std::function<double(size_t)>& propensity) const {
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  Matrix w(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch.observed(i, 0) == 0.0) continue;
    const double p = ClipPropensity(propensity(i), config_.propensity_clip);
    DTREC_ASSERT_PROPENSITY(p);
    w(i, 0) = inv_b / p;
  }
  DTREC_ASSERT_FINITE(w, "MfJointTrainerBase::IpsWeights");
  return w;
}

std::unique_ptr<Adam> MfJointTrainerBase::MakeAdam() const {
  return std::make_unique<Adam>(config_.learning_rate, 0.9, 0.999, 1e-8,
                                config_.weight_decay);
}

MfModelConfig MfJointTrainerBase::PredModelConfig(
    const RatingDataset& dataset, uint64_t seed) const {
  MfModelConfig mc;
  mc.num_users = dataset.num_users();
  mc.num_items = dataset.num_items();
  mc.dim = config_.embedding_dim;
  mc.use_bias = config_.use_bias;
  mc.init_scale = config_.init_scale;
  mc.seed = seed;
  return mc;
}

}  // namespace dtrec
