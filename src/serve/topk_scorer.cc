#include "serve/topk_scorer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "tensor/kernels.h"

namespace dtrec::serve {
namespace {

/// "a ranks strictly better than b": higher score, ties to lower item id.
inline bool Better(const ScoredItem& a, const ScoredItem& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.item < b.item;
}

/// Bounded top-k selection over Better. With comp = Better ("less" =
/// ranks earlier), the std heap root is the comp-maximum, i.e. the
/// *worst* kept entry; each rejected candidate pays one comparison
/// against the root once the heap is warm.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) { slate_.reserve(k + 1); }

  bool full() const { return slate_.size() >= k_; }
  /// Requires full() (and k > 0): the worst entry currently kept.
  const ScoredItem& worst() const { return slate_.front(); }

  void Offer(const ScoredItem& candidate) {
    if (slate_.size() < k_) {
      slate_.push_back(candidate);
      std::push_heap(slate_.begin(), slate_.end(), Better);
    } else if (k_ > 0 && Better(candidate, slate_.front())) {
      std::pop_heap(slate_.begin(), slate_.end(), Better);
      slate_.back() = candidate;
      std::push_heap(slate_.begin(), slate_.end(), Better);
    }
  }

  /// Consumes the heap into a best-first slate.
  std::vector<ScoredItem> Sorted() && {
    std::sort_heap(slate_.begin(), slate_.end(), Better);
    return std::move(slate_);
  }

 private:
  size_t k_;
  std::vector<ScoredItem> slate_;
};

/// Relative slack on every pruning bound, scaled by the magnitudes that
/// set the rounding error (‖p‖·‖q_head‖, |bu|, |bi|): the bounds and the
/// scores they dominate are computed in different floating-point orders,
/// and the int8 bound also stands in for real-arithmetic identities. The
/// error it covers is under (2d + 20)·2^-53 of those magnitudes, so 1e-9
/// keeps both tests admissible for any dimension below ~4·10^6
/// (DESIGN.md §5j).
constexpr double kBoundSlack = 1e-9;

/// Items per chunk: one chunk-head bound check and one QuantizedRowDot
/// call each. Small enough that a satisfied head bound exits after little
/// wasted work and the chunk's dots and bounds live on the stack; a
/// multiple of 4, so every call runs the kernel's 4-row body.
constexpr size_t kPrunedChunkItems = 64;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

TopKScorer::TopKScorer(ScoreCacheConfig cache_config)
    : config_(cache_config) {}

std::vector<ScoredItem> TopKScorer::TopK(const ServingModel& model,
                                         size_t user, size_t k,
                                         bool* cache_hit) {
  k = std::min(k, model.num_items());
  if (k == 0) {
    // Nothing to look up or store: an empty slate must not count as a
    // cache hit (it used to inflate the cache-hit rate whenever *any*
    // entry existed for the user) and must not touch LRU order.
    if (cache_hit != nullptr) *cache_hit = false;
    return {};
  }
  std::vector<ScoredItem> slate;
  if (CachedSlate(model.generation(), user, k, &slate)) {
    if (cache_hit != nullptr) *cache_hit = true;
    return slate;
  }
  if (cache_hit != nullptr) *cache_hit = false;
  slate = ScoreFresh(model, user, k);
  StoreSlate(model.generation(), user, slate);
  return slate;
}

bool TopKScorer::CachedSlate(uint64_t generation, size_t user, size_t k,
                             std::vector<ScoredItem>* out) {
  // k == 0 is never a hit: `slate.size() >= 0` holds for every cached
  // entry, so without this guard an empty request would both report a hit
  // and refresh the user's LRU position.
  if (config_.capacity == 0 || k == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(user);
  if (it == entries_.end()) return false;
  CacheEntry& entry = it->second;
  if (entry.generation != generation || entry.slate.size() < k) {
    // Stale generation or too-short slate: treat as a miss; the recompute
    // will overwrite the entry.
    return false;
  }
  lru_.splice(lru_.begin(), lru_, entry.lru_pos);
  out->assign(entry.slate.begin(), entry.slate.begin() + k);
  return true;
}

std::vector<ScoredItem> TopKScorer::ScoreFresh(const ServingModel& model,
                                               size_t user, size_t k) {
  k = std::min(k, model.num_items());
  if (k == 0) return {};
  // Norm-bound pruned sweep with an int8 bound filter. Items are visited
  // in ‖q_i‖-descending order, 64 at a time. Before each chunk, the
  // Cauchy–Schwarz bound ‖p_u‖·‖q_head‖ + bu_u + max-suffix-bias bounds
  // every score still ahead: once it (plus slack) drops strictly below the
  // heap root, no remaining item can displace it. Inside a chunk, with
  // p̂ = s_p·c_p and q̂_i = s_i·c_i the int8 codes,
  //   p·q_i ≤ s_p·s_i·(c_p·c_i) + ‖p̂‖·‖q_i − q̂_i‖ + ‖p − p̂‖·‖q_head‖
  // for any codes, and only items whose bound (plus biases and slack) is
  // not strictly below the root are rescored in fp64 through SweepScore,
  // bit-identical to ScoreAllItems. A skipped item's score is strictly
  // below the root, so Offer would have rejected it: the slate is exactly
  // the one scoring every item gives. Comparisons are strict because an
  // item scoring equal to the root could still win its tie on id, and a
  // NaN bound (an uncoded row or user) compares false, so the item stays.
  const ServingModel::SweepIndex& index = model.sweep_index();
  const size_t n = index.items.size();
  const size_t d = model.dim();
  std::vector<int8_t> user_codes(d);
  const ServingModel::RowCode pu = model.QuantizeUser(user, user_codes.data());
  const double ub = model.user_bias_or_zero(user);
  const double ub_with_slack = ub + kBoundSlack * std::abs(ub);
  double dots[kPrunedChunkItems];
  double bounds[kPrunedChunkItems];
  BoundedTopK heap(k);
  for (size_t j = 0; j < n; j += kPrunedChunkItems) {
    const double pq = pu.norm * index.norms[j];
    if (heap.full()) {
      const double bound = pq + (ub + index.bias_max[j]);
      const double slack = kBoundSlack * (std::abs(pq) + std::abs(ub) +
                                          std::abs(index.bias_max[j]));
      if (bound + slack < heap.worst().score) break;
    }
    const size_t count = std::min(kPrunedChunkItems, n - j);
    kernels::QuantizedRowDot(count, d, index.codes.data() + j * d, d,
                             user_codes.data(), dots);
    // Terms shared by the chunk: the user-side error bound, the user bias
    // and their slack.
    const double shared = pu.residual * index.norms[j] +
                          kBoundSlack * std::abs(pq) + ub_with_slack;
    for (size_t t = 0; t < count; ++t) {
      bounds[t] = pu.scale * index.scales[j + t] * dots[t] +
                  pu.code_norm * index.residuals[j + t] + shared;
    }
    if (!index.bias.empty()) {
      for (size_t t = 0; t < count; ++t) {
        const double bi = index.bias[j + t];
        bounds[t] += bi + kBoundSlack * std::abs(bi);
      }
    }
    // -∞ while the heap fills, so every item is kept until it is full.
    double root = heap.full() ? heap.worst().score : -kInf;
    for (size_t t = 0; t < count; ++t) {
      if (bounds[t] < root) continue;
      const uint32_t item = index.items[j + t];
      heap.Offer({item, model.SweepScore(user, item)});
      if (heap.full()) root = heap.worst().score;
    }
  }
  return std::move(heap).Sorted();
}

void TopKScorer::StoreSlate(uint64_t generation, size_t user,
                            const std::vector<ScoredItem>& slate) {
  if (config_.capacity == 0 || slate.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(user);
  if (it != entries_.end()) {
    // Keep the longer slate when generations match (a k=50 result can
    // serve later k<=50 lookups); otherwise overwrite.
    CacheEntry& entry = it->second;
    if (entry.generation != generation ||
        slate.size() > entry.slate.size()) {
      entry.generation = generation;
      entry.slate = slate;
    }
    lru_.splice(lru_.begin(), lru_, entry.lru_pos);
    return;
  }
  if (entries_.size() >= config_.capacity) {
    const size_t victim = lru_.back();
    lru_.pop_back();
    entries_.erase(victim);
  }
  lru_.push_front(user);
  entries_.emplace(user, CacheEntry{generation, slate, lru_.begin()});
}

void TopKScorer::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  lru_.clear();
}

size_t TopKScorer::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<ScoredItem> BruteForceTopK(const ServingModel& model, size_t user,
                                       size_t k) {
  std::vector<double> scores;
  model.ScoreAllItems(user, &scores);
  std::vector<ScoredItem> all(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    all[i] = {static_cast<uint32_t>(i), scores[i]};
  }
  std::sort(all.begin(), all.end(), Better);
  all.resize(std::min(k, all.size()));
  return all;
}

}  // namespace dtrec::serve
