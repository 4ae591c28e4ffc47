#ifndef DTREC_SERVE_SERVER_STATS_H_
#define DTREC_SERVE_SERVER_STATS_H_

#include <cstdint>
#include <string>

#include "obs/histogram.h"

namespace dtrec::serve {

/// The serving latency histogram now lives in src/obs/ as the
/// unit-agnostic obs::Histogram (same geometric buckets, plus Merge() and
/// snapshot-diff), registered through obs::MetricsRegistry so serving and
/// training share one export path. This alias keeps every existing
/// serve:: call site and test source-compatible.
using LatencyHistogram = ::dtrec::obs::Histogram;

/// The degradation ladder: every request resolves to exactly one rung,
/// best rung first. Numeric order IS ladder order, so "response A is no
/// worse than B" is an integer comparison — Recommendation::degraded()
/// relies on it.
enum class ServeRung : uint8_t {
  kFullTopK = 0,     ///< fresh full scoring pass
  kCachedSlate = 1,  ///< served from the per-user score cache
  kPopularity = 2,   ///< popularity fallback (deadline or unknown user)
  kShed = 3,         ///< refused — empty slate, O(1) cost
};

/// Why a request landed below kFullTopK/kCachedSlate. The three causes
/// are disjoint: every degraded request carries exactly one.
enum class DegradeReason : uint8_t {
  kNone = 0,
  kDeadlineMiss = 1,  ///< latency budget burned before scoring could start
  kQueueShed = 2,     ///< refused at admission or by the full worker queue
  kUnknownUser = 3,   ///< user id outside the pinned model's user table
};

const char* ToString(ServeRung rung);
const char* ToString(DegradeReason reason);

/// Point-in-time counters + per-stage latency summaries of a
/// RecommendServer. A snapshot is plain data — safe to copy, print, or
/// diff against an earlier snapshot.
///
/// Invariants (the chaos suite asserts them under concurrent replay):
///   requests == rung_full + rung_cached + rung_popularity + rung_shed
///   rung_popularity == deadline_miss + unknown_user
///   rung_shed == queue_shed
///   cache_hits + cache_misses == rung_full + rung_cached
struct ServerStats {
  uint64_t requests = 0;         ///< completed requests
  uint64_t rung_full = 0;        ///< fresh full-scoring slates
  uint64_t rung_cached = 0;      ///< score-cache slates
  uint64_t rung_popularity = 0;  ///< popularity-fallback slates
  uint64_t rung_shed = 0;        ///< refused requests (empty slate)

  // Degradation causes, disjoint (see DegradeReason).
  uint64_t deadline_miss = 0;
  uint64_t queue_shed = 0;
  uint64_t unknown_user = 0;

  uint64_t cache_hits = 0;    ///< slates served from the score cache
  uint64_t cache_misses = 0;  ///< cache lookups that ran a full pass
  uint64_t model_swaps = 0;   ///< registry generation changes observed
  uint64_t generation = 0;    ///< model generation at snapshot time

  LatencyHistogram::Summary queue_us;  ///< submit → worker pickup
  LatencyHistogram::Summary score_us;  ///< scoring (or fallback) stage
  LatencyHistogram::Summary total_us;  ///< submit → response ready

  /// Requests that landed below the top two rungs.
  uint64_t degraded() const { return rung_popularity + rung_shed; }

  double degraded_rate() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(degraded()) / requests;
  }
  double shed_rate() const {
    return requests == 0 ? 0.0 : static_cast<double>(rung_shed) / requests;
  }
  double cache_hit_rate() const {
    const uint64_t lookups = cache_hits + cache_misses;
    return lookups == 0 ? 0.0 : static_cast<double>(cache_hits) / lookups;
  }

  /// One-line counter digest, e.g. "requests=1000 full=800 cached=150
  /// pop=40 shed=10 deadline_miss=30 queue_shed=10 unknown_user=10
  /// cache_hit=34.0% ...".
  std::string Summary() const;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_SERVER_STATS_H_
