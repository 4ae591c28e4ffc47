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
  /// bias add. The pruned sweep rescores every item its int8 bound filter
  /// keeps through this; costs one 4-row group dot per call.
  double SweepScore(size_t user, size_t item) const;

  /// Symmetric int8 code of one factor row x ≈ scale·codes, with the
  /// norms the sweep's bounds need. A row with a NaN or ±Inf entry, a sum
  /// of squares that overflows, or a nonzero max|x| below 2^-500 is not
  /// coded: its codes are zero, `scale` and `code_norm` are 0, and `norm`
  /// and `residual` are +∞, so every bound that uses it is +∞ or NaN and
  /// never excludes an item.
  struct RowCode {
    double scale = 0.0;      ///< s = max|x| / 127
    double norm = 0.0;       ///< ‖x‖
    double code_norm = 0.0;  ///< ‖s·c‖
    double residual = 0.0;   ///< ‖x − s·c‖
  };

  /// Quantizes the user's factor row into `codes` (dim() entries): the
  /// per-request half of the sweep's int8 bound filter.
  RowCode QuantizeUser(size_t user, int8_t* codes) const;

  /// Per-item tables of the pruned top-K sweep, every vector in sweep
  /// order: ‖q_i‖ descending, ties by id ascending, with uncoded rows
  /// (norm +∞) first. Built once per model; DESIGN.md §5j has the bound.
  struct SweepIndex {
    std::vector<uint32_t> items;   ///< item id at each position
    std::vector<double> norms;     ///< ‖q_i‖
    /// Suffix maximum of item bias: bias_max[j] = max over positions ≥ j
    /// of bi. With ‖p_u‖·norms[j] it bounds every score from j on.
    std::vector<double> bias_max;
    std::vector<double> bias;      ///< bi; empty when the model has none
    std::vector<int8_t> codes;     ///< |I|×dim() int8 codes c_i
    std::vector<double> scales;    ///< s_i
    std::vector<double> residuals; ///< r_i = ‖q_i − s_i·c_i‖
  };
  const SweepIndex& sweep_index() const { return sweep_; }

  double user_bias_or_zero(size_t user) const {
    return user_bias_.empty() ? 0.0 : user_bias_(user, 0);
  }
  double item_bias_or_zero(size_t item) const {
    return item_bias_.empty() ? 0.0 : item_bias_(item, 0);
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

  /// Fills sweep_ (order, norms, bias tables, int8 codes). Called once at
  /// the end of FromFactors.
  void BuildSweepIndex();

  uint64_t generation_head_ = 0;
  Matrix user_factors_;  // |U|×d
  Matrix item_factors_;  // |I|×d
  Matrix user_bias_;     // |U|×1 or empty
  Matrix item_bias_;     // |I|×1 or empty
  std::vector<double> item_popularity_;    // |I|
  std::vector<uint32_t> popularity_ranking_;  // |I|, popularity desc
  size_t sweep_tail_begin_ = 0;  // first item in BatchedRowDot's ragged tail
  SweepIndex sweep_;
  uint64_t generation_tail_ = 0;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_SERVING_MODEL_H_
