#ifndef DTREC_OBS_PROP_STATS_H_
#define DTREC_OBS_PROP_STATS_H_

#include <atomic>
#include <cstdint>

// Process-wide propensity-clip counters. The clip rate is the project's
// canonical early-warning signal for the extreme inverse-propensity
// variance failure mode: a debiased estimator whose clip rate creeps up is
// quietly trading variance for bias. ClipPropensity() and SafeInverse()
// feed these counters on every call; they are exported through
// obs::MetricsRegistry::DumpJson (via PublishPropensityClipStats in
// obs/metrics.h) and per-epoch through the training event stream.
//
// This header is included from the hottest numeric paths, so it depends on
// nothing but <atomic>/<cstdint> and costs one or two relaxed fetch_adds
// per call; a loop that clips every row of a batch counts in a local and
// adds once per batch instead (PropensityClipTally).

namespace dtrec::obs {

namespace internal {
extern std::atomic<uint64_t> g_propensity_clip_total;
extern std::atomic<uint64_t> g_propensity_clip_fired;
}  // namespace internal

/// Counts one propensity clip/inversion; `fired` means the input was below
/// the floor and actually got clipped (upper clamps toward 1 are benign
/// and do not count as fired).
inline void RecordPropensityClip(bool fired) {
  internal::g_propensity_clip_total.fetch_add(1, std::memory_order_relaxed);
  if (fired) {
    internal::g_propensity_clip_fired.fetch_add(1, std::memory_order_relaxed);
  }
}

/// Clip counts a per-row loop gathers in a local (ClipPropensity's
/// tally overload) and adds once per batch with RecordPropensityClips.
struct PropensityClipTally {
  uint64_t total = 0;  ///< rows clipped
  uint64_t fired = 0;  ///< of which below the floor
};

/// Adds a loop's tally to the counters: what `tally.total`
/// RecordPropensityClip calls, `tally.fired` of them firing, would add,
/// in at most two relaxed fetch_adds.
inline void RecordPropensityClips(const PropensityClipTally& tally) {
  internal::g_propensity_clip_total.fetch_add(tally.total,
                                              std::memory_order_relaxed);
  if (tally.fired != 0) {
    internal::g_propensity_clip_fired.fetch_add(tally.fired,
                                                std::memory_order_relaxed);
  }
}

/// Point-in-time copy of the clip counters; plain data, diffable.
struct PropensityClipSnapshot {
  uint64_t total = 0;  ///< clip/inversion sites evaluated
  uint64_t fired = 0;  ///< inputs below the floor (actually clipped)

  double rate() const {
    return total == 0 ? 0.0
                      : static_cast<double>(fired) / static_cast<double>(total);
  }

  PropensityClipSnapshot DeltaSince(const PropensityClipSnapshot& earlier)
      const {
    return {total - earlier.total, fired - earlier.fired};
  }
};

inline PropensityClipSnapshot GetPropensityClipSnapshot() {
  PropensityClipSnapshot snapshot;
  snapshot.total =
      internal::g_propensity_clip_total.load(std::memory_order_relaxed);
  snapshot.fired =
      internal::g_propensity_clip_fired.load(std::memory_order_relaxed);
  return snapshot;
}

}  // namespace dtrec::obs

#endif  // DTREC_OBS_PROP_STATS_H_
