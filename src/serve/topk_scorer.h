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
/// a chunk an int8 dot (kernels::QuantizedRowDot over the model's
/// SweepIndex codes) gives each item an admissible score bound, and only
/// items whose bound reaches the heap root are rescored in fp64. Worst
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
  /// size). Thread-safe. `cache_hit`, when non-null, reports whether the
  /// slate came from the cache. Composition of the three staged calls
  /// below — callers that need per-dependency failure handling (the
  /// degradation ladder in RecommendServer) drive the stages themselves.
  std::vector<ScoredItem> TopK(const ServingModel& model, size_t user,
                               size_t k, bool* cache_hit = nullptr);

  /// Cache stage, lookup half: true + a k-prefix copy into `out` when a
  /// generation-matching slate of length ≥ k is cached. Never scores.
  bool CachedSlate(uint64_t generation, size_t user, size_t k,
                   std::vector<ScoredItem>* out);

  /// Scoring stage: the pruned sweep above, no cache interaction.
  /// Failpoint site `serve/score` fires at entry (an
  /// armed `abort` spec throws failpoint::FailpointAbort — the injected
  /// "scorer dependency failed" fault the serving ladder degrades on).
  std::vector<ScoredItem> ScoreFresh(const ServingModel& model, size_t user,
                                     size_t k);

  /// Cache stage, fill half: stores `slate` for `user` under `generation`
  /// (LRU-evicting; no-op when the cache is disabled). Failpoint site
  /// `serve/cache_fill` fires before the cache is touched, so an injected
  /// fault never leaves a half-written entry.
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

  /// Returns a copy of the cached slate prefix on hit.
  bool CacheLookup(size_t user, uint64_t generation, size_t k,
                   std::vector<ScoredItem>* out);
  void CacheStore(size_t user, uint64_t generation,
                  const std::vector<ScoredItem>& slate);

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
