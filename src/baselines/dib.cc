#include "baselines/dib.h"

#include "tensor/ops.h"
#include "util/math_util.h"

namespace dtrec {

Status DibTrainer::Setup(const RatingDataset& dataset) {
  const size_t a = unbiased_dim();
  if (a == 0 || a >= config_.embedding_dim) {
    return Status::InvalidArgument(
        "DIB needs 0 < unbiased_dim < embedding_dim");
  }
  const size_t rest = config_.embedding_dim - a;
  Rng init_rng(rng_.NextUint64());
  p1_ = Matrix::RandomNormal(dataset.num_users(), a, config_.init_scale,
                             &init_rng);
  p2_ = Matrix::RandomNormal(dataset.num_users(), rest, config_.init_scale,
                             &init_rng);
  q1_ = Matrix::RandomNormal(dataset.num_items(), a, config_.init_scale,
                             &init_rng);
  q2_ = Matrix::RandomNormal(dataset.num_items(), rest, config_.init_scale,
                             &init_rng);
  return Status::OK();
}

double DibTrainer::Predict(size_t user, size_t item) const {
  return Sigmoid(RowDot(p1_, user, q1_, item));
}

size_t DibTrainer::NumParameters() const {
  return p1_.size() + p2_.size() + q1_.size() + q2_.size();
}

void DibTrainer::TrainStep(const Batch& batch) {
  const size_t b = batch.size();
  double observed_count = 0.0;
  for (size_t i = 0; i < b; ++i) observed_count += batch.observed(i, 0);
  if (observed_count == 0.0) return;
  Matrix w(b, 1);
  for (size_t i = 0; i < b; ++i) {
    w(i, 0) = batch.observed(i, 0) / observed_count;
  }

  ag::Tape& tape = *FreshTape();
  ag::Var p1 = tape.Leaf(p1_), p2 = tape.Leaf(p2_);
  ag::Var q1 = tape.Leaf(q1_), q2 = tape.Leaf(q2_);
  ag::Var pu1 = ag::GatherRows(p1, batch.users);
  ag::Var pu2 = ag::GatherRows(p2, batch.users);
  ag::Var qi1 = ag::GatherRows(q1, batch.items);
  ag::Var qi2 = ag::GatherRows(q2, batch.items);

  ag::Var unbiased_logits = ag::RowwiseDot(pu1, qi1);
  ag::Var full_logits =
      ag::Add(unbiased_logits, ag::RowwiseDot(pu2, qi2));

  // Compression term: the two components must carry independent
  // information (outer-product orthogonality on the full tables),
  // normalized by table height so beta is dataset-size independent.
  ag::Var ortho = ag::Add(
      ag::Scale(ag::FrobeniusSq(ag::MatMul(ag::Transpose(p1), p2)),
                1.0 / static_cast<double>(p1_.rows())),
      ag::Scale(ag::FrobeniusSq(ag::MatMul(ag::Transpose(q1), q2)),
                1.0 / static_cast<double>(q1_.rows())));

  ag::Var loss = ag::Add(
      ag::SigmoidSquaredErrorSum(full_logits, batch.ratings, w),
      ag::Add(ag::Scale(ag::SigmoidSquaredErrorSum(unbiased_logits,
                                                   batch.ratings, w),
                        config_.alpha),
              ag::Scale(ortho, config_.beta)));
  BackwardAndStep(&tape, loss, {p1, p2, q1, q2}, {&p1_, &p2_, &q1_, &q2_});
}

}  // namespace dtrec
