#include "baselines/esmm.h"

namespace dtrec {

void EsmmTrainer::TrainStep(const Batch& batch) {
  ag::Tape& tape = *FreshTape();
  TowerGraph graph = BuildGraph(&tape, batch);
  ag::Var ctr_prob = ag::Sigmoid(graph.ctr_logits);
  ag::Var cvr_prob = ag::Sigmoid(graph.cvr_logits);
  ag::Var ctcvr_prob = ag::Mul(ctr_prob, cvr_prob);

  // Joint label o·r: observed-and-positive over the entire space.
  Matrix joint(batch.size(), 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    joint(i, 0) = batch.observed(i, 0) * batch.ratings(i, 0);
  }

  ag::Var ctr_loss = BceMean(&tape, ctr_prob, batch.observed);
  ag::Var ctcvr_loss = BceMean(&tape, ctcvr_prob, joint);
  ag::Var loss = ag::Add(ctr_loss, ctcvr_loss);
  StepAll(&tape, loss, graph);
}

}  // namespace dtrec
