#include "baselines/mf_naive.h"

namespace dtrec {

Status MfNaiveTrainer::Setup(const RatingDataset& dataset) {
  (void)dataset;
  return Status::OK();
}

void MfNaiveTrainer::TrainStep(const Batch& batch) {
  double observed_count = 0.0;
  for (size_t i = 0; i < batch.size(); ++i) {
    observed_count += batch.observed(i, 0);
  }
  if (observed_count == 0.0) return;

  // Weights realize E_Naive: average error over the observed subset.
  Matrix w(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    w(i, 0) = batch.observed(i, 0) / observed_count;
  }

  ag::Tape& tape = *FreshTape();
  std::vector<ag::Var> leaves = pred_.MakeLeaves(&tape);
  ag::Var logits = pred_.BatchLogits(&tape, leaves, batch.users, batch.items);
  ag::Var loss = ag::SigmoidSquaredErrorSum(logits, batch.ratings, w);
  BackwardAndStep(&tape, loss, leaves, pred_.Params());
}

}  // namespace dtrec
