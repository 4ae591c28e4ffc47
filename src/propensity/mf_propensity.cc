#include "propensity/mf_propensity.h"

#include <algorithm>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "data/samplers.h"
#include "optim/adam.h"
#include "util/numeric_guard.h"

namespace dtrec {

Status MfPropensity::Fit(const RatingDataset& dataset) {
  DTREC_RETURN_IF_ERROR(dataset.Validate());
  if (config_.dim == 0) {
    return Status::InvalidArgument("propensity dim must be positive");
  }
  MfModelConfig mc;
  mc.num_users = dataset.num_users();
  mc.num_items = dataset.num_items();
  mc.dim = config_.dim;
  mc.use_bias = true;  // the marginal rate lives in the biases
  mc.init_scale = config_.init_scale;
  mc.seed = config_.seed;
  model_ = MfModel(mc);

  Adam optimizer(config_.learning_rate, 0.9, 0.999, 1e-8,
                 config_.weight_decay);
  FullMatrixBatchSampler sampler(dataset, config_.seed ^ 0x9e3779b9ULL);
  const size_t cells = dataset.num_users() * dataset.num_items();
  size_t steps = config_.steps_per_epoch;
  if (steps == 0) {
    // At least 20 steps per epoch so small datasets still converge.
    steps = std::clamp<size_t>(cells / config_.batch_cells, 20, 200);
  }

  // One autograd workspace for the whole fit, reset before each step's
  // graph so its node buffers are reused.
  ag::Tape tape;
  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (size_t step = 0; step < steps; ++step) {
      const Batch batch = sampler.Sample(config_.batch_cells);
      const Matrix weights(batch.size(), 1,
                           1.0 / static_cast<double>(batch.size()));
      tape.Reset();
      std::vector<ag::Var> leaves = model_.MakeLeaves(&tape);
      ag::Var logits =
          model_.BatchLogits(&tape, leaves, batch.users, batch.items);
      ag::Var loss = ag::SigmoidBceSum(logits, batch.observed, weights);
      tape.Backward(loss);
      const std::vector<Matrix*> params = model_.Params();
      for (size_t i = 0; i < leaves.size(); ++i) {
        optimizer.Step(params[i], tape.GradOf(leaves[i]));
      }
    }
  }
  return Status::OK();
}

double MfPropensity::Propensity(size_t user, size_t item) const {
  const double p = model_.PredictProbability(user, item);
  DTREC_ASSERT_PROPENSITY(p);
  return p;
}

}  // namespace dtrec
