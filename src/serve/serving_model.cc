#include "serve/serving_model.h"

#include <algorithm>
#include <cmath>
#include <limits>
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

/// Smallest nonzero max|x| the quantizer codes. From there up, every
/// square, scale product and norm the sweep's bounds use is a normal
/// double, so their rounding is relative and kBoundSlack covers it.
constexpr double kMinCodedMax = 0x1p-500;
/// Adding and subtracting 1.5·2^52 rounds |x| < 2^51 to the nearest
/// integer (ties to even) without a branch or a library call.
constexpr double kRoundMagic = 0x1.8p52;
constexpr double kInf = std::numeric_limits<double>::infinity();

/// First quantizer pass over a row: max|x| and ‖x‖ (four partial sums,
/// so the adds pipeline). `norm` is +∞ for a row the quantizer does not
/// code: a NaN or ±Inf entry, or an overflowing square, makes the sum of
/// squares non-finite (max_abs alone would skip a NaN), and a nonzero
/// max|x| below kMinCodedMax is too small.
struct RowMagnitude {
  double max_abs = 0.0;
  double norm = 0.0;
};

RowMagnitude Magnitude(const double* row, size_t d) {
  double max_abs = 0.0;
  double sq[4] = {0.0, 0.0, 0.0, 0.0};
  size_t p = 0;
  for (; p + 4 <= d; p += 4) {
    for (size_t l = 0; l < 4; ++l) {
      sq[l] += row[p + l] * row[p + l];
      max_abs = std::max(max_abs, std::abs(row[p + l]));
    }
  }
  for (; p < d; ++p) {
    sq[0] += row[p] * row[p];
    max_abs = std::max(max_abs, std::abs(row[p]));
  }
  const double sum_sq = (sq[0] + sq[1]) + (sq[2] + sq[3]);
  if (!std::isfinite(sum_sq) || (max_abs > 0.0 && max_abs < kMinCodedMax)) {
    return {max_abs, kInf};
  }
  return {max_abs, std::sqrt(sum_sq)};
}

/// Second pass: writes the row's codes and returns its RowCode. Codes are
/// in [−127, 127] by construction, and only finite, in-range doubles are
/// ever converted to an integer.
ServingModel::RowCode Encode(const double* row, size_t d, RowMagnitude mag,
                             int8_t* codes) {
  if (mag.norm == kInf) {
    std::fill(codes, codes + d, int8_t{0});
    return {.scale = 0.0, .norm = mag.norm, .code_norm = 0.0,
            .residual = mag.norm};
  }
  const double scale = mag.max_abs / 127.0;
  const double inv = mag.max_abs > 0.0 ? 127.0 / mag.max_abs : 0.0;
  double code_sq = 0.0;
  double err_sq = 0.0;
  for (size_t p = 0; p < d; ++p) {
    // |x| ≤ 127·(1 + 2^-52), so c is an integer in [−127, 127], and x − c
    // is exact. The residual is measured in units of `scale`, which keeps
    // its squares clear of underflow.
    const double x = row[p] * inv;
    const double c = (x + kRoundMagic) - kRoundMagic;
    codes[p] = static_cast<int8_t>(c);
    code_sq += c * c;
    err_sq += (x - c) * (x - c);
  }
  return {.scale = scale,
          .norm = mag.norm,
          .code_norm = scale * std::sqrt(code_sq),
          .residual = scale * std::sqrt(err_sq)};
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

ServingModel::RowCode ServingModel::QuantizeUser(size_t user,
                                                 int8_t* codes) const {
  DTREC_DCHECK(user < num_users());
  const double* row = user_factors_.row(user);
  return Encode(row, dim(), Magnitude(row, dim()), codes);
}

void ServingModel::BuildSweepIndex() {
  const size_t n = num_items();
  const size_t d = dim();
  sweep_tail_begin_ = n - n % 4;

  // The quantizer's first pass gives the sort key; the second writes the
  // codes once the sweep order is known, straight into their position.
  std::vector<RowMagnitude> magnitudes(n);
  std::vector<std::pair<double, uint32_t>> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    magnitudes[i] = Magnitude(item_factors_.row(i), d);
    keyed[i] = {magnitudes[i].norm, static_cast<uint32_t>(i)};
  }
  // ‖q‖ descending, ties by id: a total order, so the sweep (and the
  // slates' tie-breaks) are deterministic.
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<double, uint32_t>& a,
               const std::pair<double, uint32_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });

  SweepIndex& index = sweep_;
  index.items.resize(n);
  index.norms.resize(n);
  index.codes.resize(n * d);
  index.scales.resize(n);
  index.residuals.resize(n);
  for (size_t j = 0; j < n; ++j) {
    const uint32_t item = keyed[j].second;
    const RowCode code = Encode(item_factors_.row(item), d, magnitudes[item],
                                index.codes.data() + j * d);
    index.items[j] = item;
    index.norms[j] = code.norm;
    index.scales[j] = code.scale;
    index.residuals[j] = code.residual;
  }

  // Suffix max of item bias over the sweep order: position j bounds the
  // bias of every item the sweep has not reached yet.
  index.bias_max.resize(n);
  double running = 0.0;
  for (size_t j = n; j-- > 0;) {
    const double bi = item_bias_or_zero(index.items[j]);
    running = (j + 1 == n) ? bi : std::max(running, bi);
    index.bias_max[j] = running;
  }
  index.bias.clear();
  if (!item_bias_.empty()) {
    index.bias.resize(n);
    for (size_t j = 0; j < n; ++j) {
      index.bias[j] = item_bias_(index.items[j], 0);
    }
  }
}

}  // namespace dtrec::serve
