#include "serve/topk_scorer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/failpoint.h"

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

/// Relative slack on the pruning bound: the bound is computed in a
/// different floating-point order than the scores it dominates, so a few
/// ulps of margin keep the early exit admissible despite rounding.
constexpr double kBoundSlack = 1e-9;

/// Items the sweep scores per bound check. A multiple of 4 (every chunk
/// stays group-aligned in the permuted table); small enough that a
/// satisfied bound exits after little wasted work, large enough that
/// BatchedRowDot runs at full blocked throughput, and small enough that
/// the chunk's scores live on the stack.
constexpr size_t kPrunedChunkItems = 64;

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
  return CacheLookup(user, generation, k, out);
}

std::vector<ScoredItem> TopKScorer::ScoreFresh(const ServingModel& model,
                                               size_t user, size_t k) {
  DTREC_FAILPOINT("serve/score");
  k = std::min(k, model.num_items());
  if (k == 0) return {};
  // Norm-bound pruned sweep. Items are visited in ‖q_i‖-descending order;
  // by Cauchy–Schwarz every score still ahead of position j is bounded by
  // ‖p_u‖·‖q_order[j]‖ + bu_u + max-suffix-bias[j]. Each chunk is scored
  // through BatchedRowDot (bit-identical per item to ScoreAllItems),
  // every score is offered to the heap, and between chunks the bound at
  // the chunk head is tested: once it (plus FP slack) drops strictly below
  // the heap root, no remaining item can displace it. Checking per chunk
  // instead of per item only delays the exit by < one chunk of work. The
  // exit must be strict: a remaining item whose bound equals the root
  // could still tie it with a lower id and rank better.
  const std::vector<uint32_t>& order = model.norm_order();
  const std::vector<double>& bias_max = model.norm_order_bias_max();
  const double pu_norm = model.user_norm(user);
  const double ub = model.user_bias_or_zero(user);
  const size_t n = order.size();
  double scores[kPrunedChunkItems] = {};
  BoundedTopK heap(k);
  for (size_t j = 0; j < n; j += kPrunedChunkItems) {
    if (heap.full()) {
      const double pq = pu_norm * model.item_norm(order[j]);
      const double bound = pq + (ub + bias_max[j]);
      const double slack = kBoundSlack * (std::abs(pq) + std::abs(ub) +
                                          std::abs(bias_max[j]));
      if (bound + slack < heap.worst().score) break;
    }
    const size_t count = std::min(kPrunedChunkItems, n - j);
    model.ScoreNormOrderedRange(user, j, count, scores);
    for (size_t t = 0; t < count; ++t) {
      heap.Offer({order[j + t], scores[t]});
    }
  }
  return std::move(heap).Sorted();
}

void TopKScorer::StoreSlate(uint64_t generation, size_t user,
                            const std::vector<ScoredItem>& slate) {
  if (config_.capacity == 0 || slate.empty()) return;
  DTREC_FAILPOINT("serve/cache_fill");
  CacheStore(user, generation, slate);
}

bool TopKScorer::CacheLookup(size_t user, uint64_t generation, size_t k,
                             std::vector<ScoredItem>* out) {
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

void TopKScorer::CacheStore(size_t user, uint64_t generation,
                            const std::vector<ScoredItem>& slate) {
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
