#ifndef DTREC_SERVE_SERVING_MODEL_H_
#define DTREC_SERVE_SERVING_MODEL_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/disentangled_embeddings.h"
#include "models/mf_model.h"
#include "tensor/matrix.h"
#include "util/status.h"

namespace dtrec::serve {

/// An immutable scoring snapshot built from trained parameters.
///
/// Serving never touches trainer state: the registry copies the rating
/// head (user/item factors + optional biases) out of a trained model into
/// one of these, and readers score through a `shared_ptr<const
/// ServingModel>` — so a hot swap can never mutate a model a request is
/// mid-way through scoring.
///
/// The model also carries the *popularity prior* (train-split interaction
/// counts): the degraded slate served when a request blows its deadline,
/// and the classic MNAR-biased baseline a debiased top-K should beat.
///
/// `generation()` is the registry-assigned version tag. It is stored
/// twice (head and tail of the object) and `IntegrityOk()` cross-checks
/// them, so a torn/partially-published model is detectable in tests.
class ServingModel {
 public:
  ServingModel() = default;

  /// Hard ceiling on catalogue size. Slate entries (`ScoredItem::item`)
  /// and the precomputed sweep orders store item ids as uint32_t, so a
  /// catalogue beyond 2³²−1 items would silently wrap the id — FromFactors
  /// rejects it with InvalidArgument instead (see ValidateCatalogueSize).
  static constexpr size_t kMaxCatalogueItems =
      std::numeric_limits<uint32_t>::max();

  /// InvalidArgument when `num_items` exceeds kMaxCatalogueItems. Exposed
  /// separately from FromFactors so the bound is testable without
  /// materializing a >2³²-row matrix.
  static Status ValidateCatalogueSize(size_t num_items);

  /// From explicit rating-head factors. `user_bias`/`item_bias` may be
  /// empty; `item_popularity` must have one entry per item (pass zeros if
  /// unknown). Shapes are validated.
  static Result<ServingModel> FromFactors(Matrix user_factors,
                                          Matrix item_factors,
                                          Matrix user_bias, Matrix item_bias,
                                          std::vector<double> item_popularity);

  /// From a trained DT model: the *primary* blocks (P′, Q′) plus rating
  /// biases — exactly the paper's serving-time predictor σ(p′_u·q′_i).
  static Result<ServingModel> FromDisentangled(
      const DisentangledEmbeddings& emb, std::vector<double> item_popularity);

  /// From a plain MF model (baseline trainers).
  static Result<ServingModel> FromMf(const MfModel& model,
                                     std::vector<double> item_popularity);

  size_t num_users() const { return user_factors_.rows(); }
  size_t num_items() const { return item_factors_.rows(); }
  size_t dim() const { return user_factors_.cols(); }

  uint64_t generation() const { return generation_head_; }
  bool IntegrityOk() const { return generation_head_ == generation_tail_; }

  /// Rating logit p_u · q_i [+ bu_u + bi_i].
  double Score(size_t user, size_t item) const;

  /// Scores `user` against every item into `out` (resized to num_items()).
  /// One BatchedRowDot pass over the item rows (the user vector broadcast
  /// against four item rows at a time); biases (when present) are folded
  /// in with a single fused pass over the score buffer. The oracle
  /// BruteForceTopK sorts this.
  void ScoreAllItems(size_t user, std::vector<double>* out) const;

  /// Score of one item, bit-identical to the value ScoreAllItems writes
  /// for it. Routes through BatchedRowDot itself — the item's aligned
  /// 4-row group for body items, the 1-row tail path for ragged-tail
  /// items — so the accumulation order (and the compiler's codegen for
  /// it) is ScoreAllItems' by construction, then mirrors the fused
  /// bias add. Primitive behind the pruned sweep's tail fix-up; costs one
  /// 4-row group dot per call.
  double SweepScore(size_t user, size_t item) const;

  /// Scores the norm_order() window [begin, begin+count) into
  /// `out[0..count)`, each value bit-identical to what ScoreAllItems
  /// produces for that item. `begin` must be a multiple of 4; `count` is
  /// clipped to the catalogue. `out` must have room for count rounded up
  /// to a multiple of 4 (pad lanes are scratch, not results). Internally
  /// sweeps a norm-permuted, 4-row-padded copy of the item factors so the
  /// window is contiguous for BatchedRowDot, then re-scores the (≤3) items
  /// that live in ScoreAllItems' ragged tail via SweepScore. The pruned
  /// top-K sweep's chunk primitive.
  void ScoreNormOrderedRange(size_t user, size_t begin, size_t count,
                             double* out) const;

  // --- norm-bound pruning support (precomputed at build time) -----------

  double user_norm(size_t user) const { return user_norms_[user]; }
  double item_norm(size_t item) const { return item_norms_[item]; }
  double user_bias_or_zero(size_t user) const {
    return user_bias_.empty() ? 0.0 : user_bias_(user, 0);
  }
  double item_bias_or_zero(size_t item) const {
    return item_bias_.empty() ? 0.0 : item_bias_(item, 0);
  }
  /// Item ids sorted by ‖q_i‖ descending (ties by id ascending): the sweep
  /// order for norm-bound pruning.
  const std::vector<uint32_t>& norm_order() const { return norm_order_; }
  /// Suffix maximum of item bias over norm_order(): norm_order_bias_max()[j]
  /// = max over positions ≥ j of bi. Together with ‖p_u‖·‖q‖ it gives an
  /// admissible upper bound on every score still ahead of the sweep.
  const std::vector<double>& norm_order_bias_max() const {
    return norm_order_bias_max_;
  }

  /// Items sorted by popularity descending (ties by id ascending): the
  /// degraded-fallback ranking, precomputed at build time so a fallback
  /// response is O(K).
  const std::vector<uint32_t>& popularity_ranking() const {
    return popularity_ranking_;
  }
  double popularity(size_t item) const { return item_popularity_[item]; }

 private:
  friend class ModelRegistry;  // stamps generation at publish time
  void set_generation(uint64_t generation) {
    generation_head_ = generation;
    generation_tail_ = generation;
  }

  /// Fills every sweep-support table (norms, norm order, bias suffix max,
  /// norm-permuted factors). Called once at the end of FromFactors.
  void BuildSweepIndex();

  uint64_t generation_head_ = 0;
  Matrix user_factors_;  // |U|×d
  Matrix item_factors_;  // |I|×d
  Matrix user_bias_;     // |U|×1 or empty
  Matrix item_bias_;     // |I|×1 or empty
  std::vector<double> item_popularity_;    // |I|
  std::vector<uint32_t> popularity_ranking_;  // |I|, popularity desc
  // Pruned-sweep tables (BuildSweepIndex).
  size_t sweep_tail_begin_ = 0;               // first ragged-tail item
  std::vector<double> user_norms_;            // |U|, ‖p_u‖
  std::vector<double> item_norms_;            // |I|, ‖q_i‖
  std::vector<uint32_t> norm_order_;          // |I|, ‖q‖ desc
  std::vector<double> norm_order_bias_max_;   // |I|, suffix max of bi
  // Item factors permuted into norm_order_ and zero-padded to a multiple
  // of 4 rows: lets the pruned sweep feed contiguous, group-aligned
  // chunks straight to BatchedRowDot (doubles the fp item storage — a
  // deliberate serving-index trade, see DESIGN.md §5j).
  Matrix norm_sorted_factors_;
  uint64_t generation_tail_ = 0;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_SERVING_MODEL_H_
