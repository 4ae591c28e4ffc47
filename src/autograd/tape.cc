#include "autograd/tape.h"

#include <limits>

#include "util/logging.h"
#include "util/numeric_guard.h"

namespace dtrec::ag {

Var Tape::NewNode(Op op, size_t rows, size_t cols) {
  if (size_ == nodes_.size()) nodes_.push_back(std::make_unique<Node>());
  Node& node = *nodes_[size_];
  node.op = op;
  node.num_parents = 0;
  node.value.Resize(rows, cols);
  node.grad.Resize(rows, cols);
  node.grad_fresh = true;
  // A rule that read a fresh gradient, or wrote only part of one, would
  // see whatever the buffer held, which on a new tape's pages is zero:
  // poison it so Backward's finiteness check names the node.
  if constexpr (kNumericChecksEnabled) {
    node.grad.Fill(std::numeric_limits<double>::quiet_NaN());
  }
  return Var(this, size_++, generation_);
}

Var Tape::Leaf(const Matrix& value) {
  const Var v = NewNode(Op::kLeaf, value.rows(), value.cols());
  nodes_[v.id()]->value = value;
  return v;
}

Var Tape::Constant(const Matrix& value) {
  const Var v = NewNode(Op::kConstant, value.rows(), value.cols());
  nodes_[v.id()]->value = value;
  return v;
}

Var Tape::AddNode(Op op, size_t rows, size_t cols, Var a, Var b) {
  CheckLive(a);
  if (b.valid()) CheckLive(b);
  const Var v = NewNode(op, rows, cols);
  Node& node = *nodes_[v.id()];
  node.parents[0] = a.id();
  node.parents[1] = b.id();
  node.num_parents = b.valid() ? 2 : 1;
  return v;
}

Tape::Node& Tape::MutableNode(Var v) {
  CheckLive(v);
  return *nodes_[v.id()];
}

void Tape::Backward(Var loss) {
  CheckLive(loss);
  DTREC_CHECK_EQ(ValueOf(loss).rows(), 1u);
  DTREC_CHECK_EQ(ValueOf(loss).cols(), 1u);

  // Mark nodes reachable from the loss so unrelated graph segments (e.g. a
  // second head built on the same tape) do not run their backward rules.
  for (size_t i = 0; i <= loss.id(); ++i) nodes_[i]->reachable = false;
  nodes_[loss.id()]->reachable = true;
  for (size_t i = loss.id() + 1; i-- > 0;) {
    const Node& node = *nodes_[i];
    if (!node.reachable) continue;
    for (size_t p = 0; p < node.num_parents; ++p) {
      nodes_[node.parents[p]]->reachable = true;
    }
  }

  nodes_[loss.id()]->grad(0, 0) = 1.0;
  nodes_[loss.id()]->grad_fresh = false;
  for (size_t i = loss.id() + 1; i-- > 0;) {
    const Node& node = *nodes_[i];
    if (!node.reachable || node.op == Op::kLeaf ||
        node.op == Op::kConstant) {
      continue;
    }
    Node* a = nodes_[node.parents[0]].get();
    Node* b = node.num_parents > 1 ? nodes_[node.parents[1]].get() : nullptr;
    internal::Backprop(node, a, b, &scratch_);
    // Under numeric checks, catch a gradient going non-finite at the node
    // whose backward rule produced it rather than at the optimizer step.
    if constexpr (kNumericChecksEnabled) {
      for (Node* parent : {a, b}) {
        if (parent == nullptr || parent->op == Op::kConstant) continue;
        DTREC_ASSERT_FINITE(parent->grad, "Tape::Backward gradient");
      }
    }
  }
}

const Matrix& Tape::ValueOf(Var v) const {
  CheckLive(v);
  return nodes_[v.id()]->value;
}

const Matrix& Tape::GradOf(Var v) {
  CheckLive(v);
  Node& node = *nodes_[v.id()];
  if (node.grad_fresh) {
    node.grad.SetZero();
    node.grad_fresh = false;
  }
  return node.grad;
}

void Tape::Reset() {
  size_ = 0;
  ++generation_;
}

void Tape::CheckLive(Var v) const {
  DTREC_CHECK(v.valid() && v.tape() == this) << "Var of another tape";
  DTREC_CHECK(v.generation_ == generation_)
      << "Var used after its tape was Reset()";
  DTREC_CHECK_LT(v.id(), size_);
}

}  // namespace dtrec::ag
