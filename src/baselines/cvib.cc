#include "baselines/cvib.h"

#include "util/math_util.h"

namespace dtrec {

void CvibTrainer::TrainStep(const Batch& batch) {
  const size_t b = batch.size();
  double observed_count = 0.0;
  for (size_t i = 0; i < b; ++i) observed_count += batch.observed(i, 0);
  const double unobserved_count = static_cast<double>(b) - observed_count;
  if (observed_count == 0.0 || unobserved_count == 0.0) return;

  // Averaging weights for the factual / counterfactual groups.
  Matrix w_obs(b, 1), w_unobs(b, 1), w_loss(b, 1), w_conf(b, 1);
  for (size_t i = 0; i < b; ++i) {
    const double o = batch.observed(i, 0);
    w_obs(i, 0) = o / observed_count;
    w_unobs(i, 0) = (1.0 - o) / unobserved_count;
    w_loss(i, 0) = o / observed_count;
    w_conf(i, 0) = 1.0 / static_cast<double>(b);
  }

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var probs = ag::Sigmoid(logits);
  constexpr double kEps = 1e-6;
  ag::Var safe = ag::AddScalar(ag::Scale(probs, 1.0 - 2.0 * kEps), kEps);

  // Factual loss: squared error on the observed cells.
  ag::Var e =
      ag::Square(ag::Sub(tape.Constant(batch.ratings), safe));
  ag::Var factual = ag::WeightedSumElems(e, w_loss);

  // Contrastive balancing: cross entropy of the counterfactual mean
  // prediction against the (stop-gradient) factual mean prediction.
  ag::Var mean_obs = ag::Detach(ag::WeightedSumElems(safe, w_obs));  // 1×1
  ag::Var mean_unobs = ag::WeightedSumElems(safe, w_unobs);          // 1×1
  const double q = Clamp(mean_obs.value()(0, 0), kEps, 1.0 - kEps);
  ag::Var one = tape.Constant(Matrix::Ones(1, 1));
  ag::Var align = ag::Scale(
      ag::Add(ag::Scale(ag::Log(mean_unobs), q),
              ag::Scale(ag::Log(ag::Sub(one, mean_unobs)), 1.0 - q)),
      -1.0);

  // Confidence penalty: negative entropy of every prediction.
  ag::Var ones_b = tape.Constant(Matrix::Ones(b, 1));
  ag::Var neg_entropy =
      ag::Add(ag::Mul(safe, ag::Log(safe)),
              ag::Mul(ag::Sub(ones_b, safe),
                      ag::Log(ag::Sub(ones_b, safe))));
  ag::Var conf = ag::WeightedSumElems(neg_entropy, w_conf);

  ag::Var loss = ag::Add(
      factual,
      ag::Add(ag::Scale(align, config_.alpha),
              ag::Scale(conf, config_.lambda2)));
  BackwardAndStep(&tape, loss, leaves, pred_.Params());
}

}  // namespace dtrec
