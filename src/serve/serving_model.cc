#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "tensor/kernels.h"
#include "util/string_util.h"

namespace dtrec::serve {
namespace {

std::vector<uint32_t> RankByPopularity(const std::vector<double>& pop) {
  std::vector<uint32_t> ranking(pop.size());
  std::iota(ranking.begin(), ranking.end(), 0u);
  std::stable_sort(ranking.begin(), ranking.end(),
                   [&pop](uint32_t a, uint32_t b) {
                     if (pop[a] != pop[b]) return pop[a] > pop[b];
                     return a < b;
                   });
  return ranking;
}

/// ‖row‖₂ of a length-d row.
double RowNorm(const double* row, size_t d) {
  double sq = 0.0;
  for (size_t p = 0; p < d; ++p) sq += row[p] * row[p];
  return std::sqrt(sq);
}

}  // namespace

Status ServingModel::ValidateCatalogueSize(size_t num_items) {
  if (num_items > kMaxCatalogueItems) {
    return Status::InvalidArgument(StrFormat(
        "catalogue of %zu items exceeds the uint32 slate-id ceiling (%zu); "
        "shard the catalogue instead of letting item ids wrap",
        num_items, kMaxCatalogueItems));
  }
  return Status::OK();
}

Result<ServingModel> ServingModel::FromFactors(
    Matrix user_factors, Matrix item_factors, Matrix user_bias,
    Matrix item_bias, std::vector<double> item_popularity) {
  if (user_factors.empty() || item_factors.empty()) {
    return Status::InvalidArgument("serving model needs non-empty factors");
  }
  if (user_factors.cols() != item_factors.cols()) {
    return Status::InvalidArgument(StrFormat(
        "factor dim mismatch: users %zu vs items %zu", user_factors.cols(),
        item_factors.cols()));
  }
  if (!user_bias.empty() && (user_bias.rows() != user_factors.rows() ||
                             user_bias.cols() != 1)) {
    return Status::InvalidArgument("user bias must be |U|x1");
  }
  if (!item_bias.empty() && (item_bias.rows() != item_factors.rows() ||
                             item_bias.cols() != 1)) {
    return Status::InvalidArgument("item bias must be |I|x1");
  }
  if (item_popularity.size() != item_factors.rows()) {
    return Status::InvalidArgument(StrFormat(
        "popularity has %zu entries for %zu items", item_popularity.size(),
        item_factors.rows()));
  }
  DTREC_RETURN_IF_ERROR(ValidateCatalogueSize(item_factors.rows()));
  ServingModel model;
  model.user_factors_ = std::move(user_factors);
  model.item_factors_ = std::move(item_factors);
  model.user_bias_ = std::move(user_bias);
  model.item_bias_ = std::move(item_bias);
  model.popularity_ranking_ = RankByPopularity(item_popularity);
  model.item_popularity_ = std::move(item_popularity);
  model.BuildSweepIndex();
  return model;
}

Result<ServingModel> ServingModel::FromDisentangled(
    const DisentangledEmbeddings& emb, std::vector<double> item_popularity) {
  // Serving uses only the rating head: the primary blocks and (when
  // enabled) the bias terms. The auxiliary blocks and propensity head are
  // training-time machinery.
  return FromFactors(emb.p_primary, emb.q_primary, emb.user_bias,
                     emb.item_bias, std::move(item_popularity));
}

Result<ServingModel> ServingModel::FromMf(const MfModel& model,
                                          std::vector<double> item_popularity) {
  Matrix user_bias, item_bias;
  // Params() order is P, Q[, bu, bi]; biases only when configured.
  const std::vector<const Matrix*> params = model.Params();
  if (params.size() == 4) {
    user_bias = *params[2];
    item_bias = *params[3];
  }
  return FromFactors(model.p(), model.q(), std::move(user_bias),
                     std::move(item_bias), std::move(item_popularity));
}

double ServingModel::Score(size_t user, size_t item) const {
  DTREC_DCHECK(user < num_users() && item < num_items());
  const double* pu = user_factors_.row(user);
  const double* qi = item_factors_.row(item);
  double dot = 0.0;
  for (size_t k = 0; k < user_factors_.cols(); ++k) dot += pu[k] * qi[k];
  if (!user_bias_.empty()) dot += user_bias_(user, 0);
  if (!item_bias_.empty()) dot += item_bias_(item, 0);
  return dot;
}

void ServingModel::ScoreAllItems(size_t user,
                                 std::vector<double>* out) const {
  DTREC_DCHECK(user < num_users());
  const size_t n = num_items();
  out->resize(n);
  double* scores = out->data();
  const double* pu = user_factors_.row(user);
  // Batched row-dot from the shared kernel layer: the user vector (ldb=0
  // broadcast) against every item row, four rows per pass.
  kernels::BatchedRowDot(n, dim(), item_factors_.data(), dim(), pu, 0,
                         scores);
  // Both biases fold into one fused pass (ub + bi per item); the common
  // no-bias case never re-touches the score buffer at all.
  const double ub = user_bias_.empty() ? 0.0 : user_bias_(user, 0);
  if (!item_bias_.empty()) {
    for (size_t i = 0; i < n; ++i) scores[i] += ub + item_bias_(i, 0);
  } else if (ub != 0.0) {
    for (size_t i = 0; i < n; ++i) scores[i] += ub;
  }
}

double ServingModel::SweepScore(size_t user, size_t item) const {
  DTREC_DCHECK(user < num_users() && item < num_items());
  const size_t d = dim();
  const double* pu = user_factors_.row(user);
  // Reproduce the accumulation the item gets inside ScoreAllItems by
  // running the *same* kernel over the item's own group: body lanes of
  // BatchedRowDot depend only on their own row, so a 4-row call over the
  // item's aligned group yields the identical bits (a re-derived scalar
  // copy would not survive the compiler's per-loop FMA/vectorization
  // choices); a 1-row call lands on the ragged-tail path.
  double dot;
  if (item < sweep_tail_begin_) {
    const size_t group = item & ~size_t{3};
    double lanes[4];
    kernels::BatchedRowDot(4, d, item_factors_.row(group), d, pu, 0, lanes);
    dot = lanes[item - group];
  } else {
    kernels::BatchedRowDot(1, d, item_factors_.row(item), d, pu, 0, &dot);
  }
  // Mirror the fused bias pass exactly, including its rounding order
  // dot + (ub + bi) and its skip conditions.
  if (!item_bias_.empty()) {
    return dot + (user_bias_or_zero(user) + item_bias_(item, 0));
  }
  const double ub = user_bias_or_zero(user);
  if (ub != 0.0) return dot + ub;
  return dot;
}

void ServingModel::ScoreNormOrderedRange(size_t user, size_t begin,
                                         size_t count, double* out) const {
  DTREC_DCHECK(user < num_users() && begin % 4 == 0 &&
               begin <= num_items());
  count = std::min(count, num_items() - begin);
  if (count == 0) return;
  const size_t d = dim();
  const double* pu = user_factors_.row(user);
  // The permuted table is padded to a multiple of 4 rows, so rounding the
  // window up keeps every real item in a body lane of BatchedRowDot —
  // the same lane arithmetic ScoreAllItems gives body items. Pad lanes
  // score the zero row and are simply not emitted.
  const size_t padded = (count + 3) & ~size_t{3};
  kernels::BatchedRowDot(padded, d, norm_sorted_factors_.row(begin), d, pu,
                         0, out);
  const double ub = user_bias_or_zero(user);
  for (size_t t = 0; t < count; ++t) {
    const uint32_t item = norm_order_[begin + t];
    if (item >= sweep_tail_begin_) {
      // ScoreAllItems scores this item in tail order; re-run it down
      // that path.
      out[t] = SweepScore(user, item);
    } else if (!item_bias_.empty()) {
      out[t] += ub + item_bias_(item, 0);
    } else if (ub != 0.0) {
      out[t] += ub;
    }
  }
}

void ServingModel::BuildSweepIndex() {
  const size_t n = num_items();
  const size_t d = dim();
  sweep_tail_begin_ = n - n % 4;

  user_norms_.resize(num_users());
  for (size_t u = 0; u < num_users(); ++u) {
    user_norms_[u] = RowNorm(user_factors_.row(u), d);
  }
  item_norms_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    item_norms_[i] = RowNorm(item_factors_.row(i), d);
  }

  // Sweep order for norm-bound pruning: ‖q‖ descending, ties by id so the
  // order (and therefore the pruned sweep) is deterministic.
  norm_order_.resize(n);
  std::iota(norm_order_.begin(), norm_order_.end(), 0u);
  std::stable_sort(norm_order_.begin(), norm_order_.end(),
                   [this](uint32_t a, uint32_t b) {
                     if (item_norms_[a] != item_norms_[b]) {
                       return item_norms_[a] > item_norms_[b];
                     }
                     return a < b;
                   });
  // Suffix max of item bias over the sweep order: position j bounds the
  // bias of every item the sweep has not reached yet.
  norm_order_bias_max_.resize(n);
  double running = 0.0;
  for (size_t j = n; j-- > 0;) {
    const double bi = item_bias_or_zero(norm_order_[j]);
    running = (j + 1 == n) ? bi : std::max(running, bi);
    norm_order_bias_max_[j] = running;
  }

  // Contiguous, group-aligned copy of the factors in sweep order (padded
  // with zero rows to a multiple of 4) so ScoreNormOrderedRange can hand
  // whole chunks to BatchedRowDot instead of gathering scattered rows.
  norm_sorted_factors_ = Matrix((n + 3) & ~size_t{3}, d);
  for (size_t j = 0; j < n; ++j) {
    const double* src = item_factors_.row(norm_order_[j]);
    std::copy(src, src + d, norm_sorted_factors_.row(j));
  }
}

}  // namespace dtrec::serve
