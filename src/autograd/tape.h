#ifndef DTREC_AUTOGRAD_TAPE_H_
#define DTREC_AUTOGRAD_TAPE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace dtrec::ag {

class Tape;

/// The operation that made a tape node. Backward dispatches on it; each
/// op's forward and backward rule live side by side in autograd/ops.cc.
enum class Op : uint8_t {
  kLeaf,
  kConstant,
  kAdd,
  kSub,
  kMul,
  kDiv,
  kDivScalar,
  kMatMul,
  kTranspose,
  kScale,
  kAddScalar,
  kSigmoid,
  kExp,
  kLog,
  kSquare,
  kSum,
  kFrobeniusSq,
  kGatherRows,
  kHConcat,
  kRowwiseDot,
  kMulConst,
  kWeightedSumElems,
  kAddRowBroadcast,
  kRelu,
  kGramFrobeniusSq,
  kSigmoidBceSum,
  kPairFeatures,
  kSigmoidSquaredErrorSum,
};

/// Lightweight handle to a node on a Tape: the tape, the node's index and
/// the tape's reset generation when the node was made. Copyable. Reading
/// through a Var after its tape's next Reset() is a checked error, not a
/// read of whatever node reuses the index.
class Var {
 public:
  Var() = default;

  Tape* tape() const { return tape_; }
  size_t id() const { return id_; }
  bool valid() const { return tape_ != nullptr; }

  /// Value / gradient of the underlying node (convenience forwarding).
  const Matrix& value() const;
  const Matrix& grad() const;

 private:
  friend class Tape;
  Var(Tape* tape, size_t id, uint64_t generation)
      : tape_(tape), id_(id), generation_(generation) {}

  Tape* tape_ = nullptr;
  size_t id_ = 0;
  uint64_t generation_ = 0;
};

/// Records a dynamic computation graph and runs reverse-mode
/// differentiation over it. A tape is a workspace meant to outlive many
/// graphs: trainers keep one for a whole Fit and Reset() it before each
/// graph a step builds.
///
/// Usage per training step:
///   tape.Reset();
///   Var p = tape.Leaf(params.p);            // copies the current value in
///   Var loss = ...ops over p...;            // see autograd/ops.h
///   tape.Backward(loss);                    // fills gradients
///   optimizer.Step(&params.p, tape.GradOf(p));
///
/// Nodes are stored in creation order, which is a valid topological order
/// for a tape (every op's inputs precede it), so Backward is a single
/// reverse sweep. The Tape owns all values and gradients; Vars are indices.
/// Reset() keeps every node with its buffers, and the node made at the
/// same index of the next graph resizes them in place, so a step that
/// builds the same graph shapes as the one before allocates nothing.
class Tape {
 public:
  /// One recorded operation. Every buffer survives Reset().
  struct Node {
    Op op = Op::kLeaf;
    uint8_t num_parents = 0;
    bool reachable = false;  // Backward's scratch mark
    /// True while no backward rule has written `grad` since the node was
    /// made: its contents are unspecified (quiet NaN under numeric
    /// checks), and the first rule to reach it stores `0.0 + t` — the
    /// bits adding t into a zero fill gave — instead of adding, then
    /// clears the flag. A rule that writes only part of a fresh gradient
    /// zero-fills it first. GradOf zero-fills a gradient still fresh.
    /// False on a hand-built node, whose grad holds what the builder put.
    bool grad_fresh = false;
    size_t parents[2] = {0, 0};
    double scalar = 0.0;  // Scale's alpha
    Matrix value;
    Matrix grad;  // value's shape; see grad_fresh
    /// Constant operands copied in at construction (labels, IPS/BCE
    /// weights, Gram matrices), so backward needs nothing from the caller.
    Matrix operand[2];
    std::vector<size_t> indices;  // GatherRows' row list
  };

  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  /// Creates a leaf holding a copy of `value`. Leaves accumulate gradients
  /// like any other node; the caller reads them back after Backward().
  Var Leaf(const Matrix& value);

  /// Creates a constant leaf: it takes part in forward values, and its
  /// children's backward rules write its gradient like any other (Sub's
  /// −g, for one), but Backward never propagates past it.
  Var Constant(const Matrix& value);

  /// Op implementations only: makes a node of kind `op` with a rows×cols
  /// value (contents unspecified, for the op to fill through MutableNode)
  /// and a fresh gradient (see Node::grad_fresh). `a` and `b` are its
  /// parents; pass an invalid Var for an absent one. Both must be live
  /// Vars of this tape.
  Var AddNode(Op op, size_t rows, size_t cols, Var a, Var b = Var());

  /// Op implementations only: the node behind a live Var.
  Node& MutableNode(Var v);

  /// Runs the reverse sweep from `loss`, which must be a 1×1 node. Seeds
  /// d(loss)/d(loss) = 1. Gradients of all reachable nodes are accumulated;
  /// call GradOf on the leaves you care about afterwards.
  void Backward(Var loss);

  const Matrix& ValueOf(Var v) const;
  /// The node's gradient; one no backward rule reached reads zero (a
  /// still-fresh gradient is zero-filled here).
  const Matrix& GradOf(Var v);

  /// Number of nodes in the current graph.
  size_t num_nodes() const { return size_; }

  /// Starts a new graph: drops all nodes and invalidates every Var made so
  /// far, keeping the node buffers for reuse.
  void Reset();

 private:
  /// Takes the next node slot (reusing a retained node if there is one)
  /// and returns its Var.
  Var NewNode(Op op, size_t rows, size_t cols);
  void CheckLive(Var v) const;

  // Nodes are held by pointer so a reference to one stays valid while the
  // graph grows; an empty tape owns no memory.
  std::vector<std::unique_ptr<Node>> nodes_;
  size_t size_ = 0;
  uint64_t generation_ = 0;
  Matrix scratch_;  // products backward adds into parent gradients
};

namespace internal {

/// Backward rule of `node` (defined in autograd/ops.cc beside the forward
/// rules): adds its contribution into the gradients of parents `a` and
/// `b` (null when absent), storing it into a fresh one (see
/// Node::grad_fresh). `scratch` holds intermediate products.
void Backprop(const Tape::Node& node, Tape::Node* a, Tape::Node* b,
              Matrix* scratch);

}  // namespace internal

}  // namespace dtrec::ag

#endif  // DTREC_AUTOGRAD_TAPE_H_
