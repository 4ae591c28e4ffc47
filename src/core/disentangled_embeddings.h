#ifndef DTREC_CORE_DISENTANGLED_EMBEDDINGS_H_
#define DTREC_CORE_DISENTANGLED_EMBEDDINGS_H_

#include <cstdint>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace dtrec {

class Rng;

/// The disentangled embedding parameterization of Section IV-B.
///
/// The full user embedding p_u = [p'_u, p''_u] and item embedding
/// q_i = [q'_i, q''_i] are split at dimension A:
///  - the *primary* part (p', q') realizes x_{u,i} and alone predicts the
///    rating:            r̂ = σ( p'_u · q'_i )
///  - the full embedding realizes [x_{u,i}, z_{u,i}] and predicts the
///    observation through a per-dimension-weighted CF head θ_o:
///        p̂ = σ( Σ_k w_k · p_{u,k} · q_{i,k} + b )
/// The auxiliary columns (p'', q'') are the learned auxiliary variable z
/// whose identifiability conditions (Assumption 1) the disentangling loss
/// enforces: z must carry no rating information (orthogonality to the
/// primary block) while the propensity head keeps z ⟂̸ o | x.
struct DisentangledEmbeddings {
  Matrix p_primary;    ///< |U|×A            (P′)
  Matrix p_auxiliary;  ///< |U|×(K−A)        (P″)
  Matrix q_primary;    ///< |I|×A            (Q′)
  Matrix q_auxiliary;  ///< |I|×(K−A)        (Q″)
  Matrix prop_weights; ///< 1×K   per-dimension propensity head weights
  Matrix prop_bias;    ///< 1×1
  Matrix user_bias;    ///< |U|×1 rating-head bias (empty when disabled)
  Matrix item_bias;    ///< |I|×1 rating-head bias (empty when disabled)

  /// Initializes all tables with N(0, init_scale); the propensity head
  /// starts at uniform weights 1 and bias `bias_init` (set it near the
  /// marginal observation log-odds for fast convergence).
  static DisentangledEmbeddings Create(size_t num_users, size_t num_items,
                                       size_t total_dim, size_t primary_dim,
                                       double init_scale, double bias_init,
                                       Rng* rng, bool use_rating_bias = false);

  bool has_rating_bias() const { return !user_bias.empty(); }

  size_t primary_dim() const { return p_primary.cols(); }
  size_t auxiliary_dim() const { return p_auxiliary.cols(); }
  size_t total_dim() const { return primary_dim() + auxiliary_dim(); }

  /// Rating logit p′_u · q′_i [+ bu_u + bi_i when biases are enabled].
  double RatingLogit(size_t user, size_t item) const;

  /// Propensity logit Σ_k w_k p_{u,k} q_{i,k} + b over the full embedding.
  double PropensityLogit(size_t user, size_t item) const;

  /// Parameter matrices in a stable order (for optimizers/leaves).
  std::vector<Matrix*> Params();
  std::vector<const Matrix*> Params() const;

  size_t NumParameters() const;

  /// Value of the disentangling loss ‖P′ᵀP″‖_F² + ‖Q′ᵀQ″‖_F² at the
  /// current tables (no autograd; for instrumentation — Figure 4c/4d).
  double DisentangleLossValue() const;

  /// Scale-invariant orthogonality between the blocks:
  ///   ‖P′ᵀP″‖_F²/(‖P′‖_F²·‖P″‖_F²) + same for Q — a normalized cosine
  /// that isolates the *direction* of the blocks from their growing
  /// magnitude during training. 0 = perfectly disentangled.
  double NormalizedDisentangleValue() const;
};

/// Leaves + gathered per-batch Vars for one training step.
struct DisentangledGraph {
  ag::Var p_primary, p_auxiliary, q_primary, q_auxiliary;
  ag::Var prop_weights, prop_bias;
  ag::Var user_bias, item_bias;  // valid iff the embeddings carry biases
  ag::Var pu_primary, pu_auxiliary, qi_primary, qi_auxiliary;  // gathered
  ag::Var rating_logits;  // B×1
  ag::Var prop_logits;    // B×1
};

/// Builds the forward graph for `users`/`items` on `tape`: every leaf, the
/// gathered batch rows and the rating head. `prop_logits` stays unset; a
/// propensity head over the gathered rows sets it (the per-dimension GLM
/// head of AddGlmPropensityHead, or DT's MLP head).
DisentangledGraph BuildDisentangledGraph(ag::Tape* tape,
                                         const DisentangledEmbeddings& emb,
                                         const std::vector<size_t>& users,
                                         const std::vector<size_t>& items);

/// Sets graph->prop_logits to the per-dimension GLM propensity head
///   Σ_k w_k · p_{u,k} · q_{i,k} + b   over the full embedding [x, z].
void AddGlmPropensityHead(DisentangledGraph* graph);

/// Appends the graph's leaves to `leaves` in DisentangledEmbeddings::Params
/// order, pairing them with the parameters for the optimizer step.
void AppendDisentangledLeaves(const DisentangledGraph& graph,
                              std::vector<ag::Var>* leaves);

}  // namespace dtrec

#endif  // DTREC_CORE_DISENTANGLED_EMBEDDINGS_H_
