#ifndef DTREC_SERVE_TOPK_SCORER_H_
#define DTREC_SERVE_TOPK_SCORER_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/serving_model.h"
#include "util/thread_annotations.h"

namespace dtrec::serve {

/// One slate entry: an item and its rating logit (or popularity count for
/// degraded slates).
struct ScoredItem {
  uint32_t item = 0;
  double score = 0.0;
};

/// Score-cache knobs. capacity == 0 disables caching entirely.
struct ScoreCacheConfig {
  size_t capacity = 1024;  ///< max users with a cached slate (LRU-evicted)
};

/// Scores a user against the catalogue and keeps the top K.
///
/// One exact sweep: items are visited in ‖q_i‖-descending order, 64 at a
/// time, into a bounded min-heap; the sweep stops once the Cauchy–Schwarz
/// bound on every item not yet visited falls below the heap root. Inside
/// a chunk one kernels::QuantizedBoundMask call over the model's
/// SweepIndex codes gives each item an admissible score bound from its
/// int8 dot and returns the mask of the items whose bound reaches the
/// heap root; only those are rescored in fp64. Worst
/// case (flat norms) is one int8 pass over the catalogue, |I|·(d+16)
/// bytes, plus the fp64 rescoring of the survivors; no full argsort and
/// no heap-allocated score buffer. Slates are bit-identical to
/// BruteForceTopK; DESIGN.md §5j has the math.
///
/// Ordering is deterministic: score descending, ties broken by item id
/// ascending (so results are reproducible and testable against a
/// brute-force argsort).
///
/// The optional per-user LRU cache stores the last computed slate tagged
/// with the model generation that produced it. A lookup only hits when
/// the tag matches the *current* model's generation and the cached slate
/// is at least as long as the requested K — so a stale entry can never be
/// served after a registry hot-swap even if InvalidateAll() has not run
/// yet. InvalidateAll() exists to reclaim the memory eagerly on swap.
class TopKScorer {
 public:
  explicit TopKScorer(ScoreCacheConfig cache_config = {});

  TopKScorer(const TopKScorer&) = delete;
  TopKScorer& operator=(const TopKScorer&) = delete;

  /// Top-`k` slate for `user` under `model` (k clamped to the catalogue
  /// size): a cached slate when one of the model's generation holds at
  /// least k items, else a fresh sweep that is then cached. Thread-safe.
  /// `cache_hit`, when non-null, reports whether the slate came from the
  /// cache. RecommendServer scores only through this call; the staged
  /// calls below stay public for benchmarks and tests that drive or time
  /// one stage alone. `user` must be below model.num_users().
  std::vector<ScoredItem> TopK(const ServingModel& model, size_t user,
                               size_t k, bool* cache_hit = nullptr);

  /// Cache stage, lookup half: true + a k-prefix copy into `out` when a
  /// generation-matching slate of length ≥ k is cached. Never scores.
  bool CachedSlate(uint64_t generation, size_t user, size_t k,
                   std::vector<ScoredItem>* out);

  /// Scoring stage: the pruned sweep above, no cache interaction.
  std::vector<ScoredItem> ScoreFresh(const ServingModel& model, size_t user,
                                     size_t k);

  /// Cache stage, fill half: stores `slate` for `user` under `generation`
  /// (LRU-evicting; no-op when the cache is disabled or the slate is
  /// empty). An entry of the same generation keeps the longer slate.
  void StoreSlate(uint64_t generation, size_t user,
                  const std::vector<ScoredItem>& slate);

  /// Drops every cached slate (called on model hot-swap).
  void InvalidateAll();

  size_t cache_size() const;

 private:
  struct CacheEntry {
    uint64_t generation = 0;
    std::vector<ScoredItem> slate;
    std::list<size_t>::iterator lru_pos;
  };

  const ScoreCacheConfig config_;
  mutable std::mutex mu_;
  std::list<size_t> lru_ DTREC_GUARDED_BY(mu_);  // front = most recent
  std::unordered_map<size_t, CacheEntry> entries_ DTREC_GUARDED_BY(mu_);
};

/// Reference implementation: full argsort of all item scores (score desc,
/// item asc). O(|I|·log|I|); the test oracle for TopKScorer and the
/// honest baseline in the throughput bench.
std::vector<ScoredItem> BruteForceTopK(const ServingModel& model, size_t user,
                                       size_t k);

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_TOPK_SCORER_H_
