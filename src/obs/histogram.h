#ifndef DTREC_OBS_HISTOGRAM_H_
#define DTREC_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

namespace dtrec::obs {

/// Lock-free geometric histogram for non-negative samples.
///
/// Fixed geometric buckets (factor 1.25 starting at 1, 96 of them — covers
/// 1 to ~2e9 at ≤12.5% relative error per bucket, which is plenty for
/// p50/p95/p99 reporting). Record() is a couple of relaxed atomic
/// increments, safe to call from every worker concurrently; Summarize()
/// reads a consistent-enough snapshot for monitoring.
///
/// The histogram is unit-agnostic; the serving subsystem records
/// microseconds, which is where the `_us` suffixes in Summary come from.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 96;

  Histogram();

  /// A bucket's link back to the request that produced its worst recent
  /// sample: the trace id threaded through the serving path (see
  /// obs::TraceContext), so a p99 bucket resolves to the full span tree
  /// of an actual slow request in the flushed trace JSON.
  struct Exemplar {
    uint64_t trace_id = 0;     ///< 0 = no exemplar captured
    uint64_t value_milli = 0;  ///< sample value × 1e3

    bool valid() const { return trace_id != 0; }
    double value() const { return static_cast<double>(value_milli) / 1e3; }
  };

  /// Records one observation of `value` (clamped to [0, last bucket]).
  /// A non-zero `exemplar_trace_id` additionally offers (value, id) as the
  /// containing bucket's exemplar; it is kept when `value` ties or beats
  /// the bucket's current exemplar (worst-recent-sample semantics). The
  /// exemplar fast path is one extra relaxed load — the slow path (a
  /// mutex) is taken only when a new per-bucket maximum is observed.
  void Record(double value, uint64_t exemplar_trace_id = 0);

  /// A point-in-time copy of every atomic, loaded once. Plain data: safe
  /// to copy, diff against an earlier snapshot, or summarize without
  /// re-reading the live atomics (so count and sum can never tear against
  /// each other mid-computation).
  struct Snapshot {
    std::array<uint64_t, kNumBuckets> buckets{};
    std::array<Exemplar, kNumBuckets> exemplars{};
    uint64_t count = 0;
    uint64_t sum_milli = 0;  ///< Σ value × 1e3, integral (no FP atomics)
    uint64_t max_milli = 0;

    /// Counter-wise difference vs. an `earlier` snapshot of the same
    /// histogram (no Reset in between). `max_milli` is not diffable from
    /// counts alone, so the later snapshot's max is kept as an upper
    /// bound on the interval max. Exemplars follow the same convention:
    /// a bucket whose count moved in the interval keeps the later
    /// snapshot's exemplar; an untouched bucket's (necessarily stale)
    /// exemplar is dropped.
    Snapshot DeltaSince(const Snapshot& earlier) const;
  };

  struct Summary {
    uint64_t count = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
    double p999_us = 0.0;
    double max_us = 0.0;
  };

  Snapshot TakeSnapshot() const;

  /// Percentiles are interpolated within the containing bucket.
  static Summary Summarize(const Snapshot& snapshot);
  Summary Summarize() const { return Summarize(TakeSnapshot()); }

  /// The exemplar for the bucket containing percentile `p` (0 < p < 1) of
  /// `snapshot`. If that bucket carries none, nearby buckets are tried —
  /// higher (worse) ones first, since the tail is what an exemplar is
  /// for. Invalid exemplar when the snapshot is empty or nothing at or
  /// around the percentile was recorded with a trace id.
  static Exemplar ExemplarNear(const Snapshot& snapshot, double p);

  /// Inclusive upper bound of bucket i: 1.25^i (bucket 0 also absorbs
  /// everything ≤ 1). Exposed for exposition formats that name buckets,
  /// e.g. DumpPrometheus's `le` labels.
  static double BucketUpperBound(size_t i) { return BucketUpper(i); }

  /// Folds every count of `other` into this histogram (relaxed adds; both
  /// sides may keep recording concurrently). Used to aggregate per-shard
  /// or per-thread histograms into one export.
  void Merge(const Histogram& other);

  void Reset();

 private:
  /// Upper bound of bucket i: 1.25^i.
  static double BucketUpper(size_t i);
  static size_t BucketIndex(double value);

  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_;
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_milli_{0};
  std::atomic<uint64_t> max_milli_{0};

  /// Exemplar slots. The per-bucket value lives in an atomic so Record()
  /// can reject non-improving samples with a single relaxed load; the
  /// paired trace id is guarded by exemplar_mu_ (also held for the value
  /// store), so a snapshot can never pair one sample's id with another's
  /// value.
  mutable std::mutex exemplar_mu_;
  std::array<std::atomic<uint64_t>, kNumBuckets> exemplar_value_milli_;
  std::array<uint64_t, kNumBuckets> exemplar_trace_id_
      DTREC_GUARDED_BY(exemplar_mu_);
};

}  // namespace dtrec::obs

#endif  // DTREC_OBS_HISTOGRAM_H_
