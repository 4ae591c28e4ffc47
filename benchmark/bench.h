#ifndef DTREC_BENCHMARK_BENCH_H_
#define DTREC_BENCHMARK_BENCH_H_

// Shared pieces of dtrec_bench: the workload table, the metric catalogue,
// one run's result, span folding and the small statistics the phases share.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "experiments/config.h"

namespace dtrec::perf {

/// The traffic half of a workload.
enum class Traffic {
  /// Distinct users over a catalogue with decaying item norms: every
  /// request misses the slate cache and pays a full sweep.
  kCold,
  /// Zipf(1.1) users over a flat-norm catalogue behind a warmed cache.
  kZipf,
};

/// One workload: DT-IPS + DT-DR training on a synthetic MNAR world and
/// open-loop serving of one traffic mix, alternated block by block.
struct Workload {
  const char* name;
  DatasetKind world;
  size_t epochs;  ///< 0 keeps the dataset profile's default
  Traffic traffic;
};

const std::vector<Workload>& Workloads();
const Workload* FindWorkload(const std::string& name);

/// One entry of the metric catalogue. End-to-end metrics come from the
/// untraced run, per-layer metrics from the traced run. `moves` names the
/// end-to-end metric (and workload) a per-layer change should move.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
  const char* moves;
};

const std::vector<MetricSpec>& Metrics();
const MetricSpec* FindMetric(const std::string& name);

/// Size and duration of one run.
struct RunOptions {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  uint64_t seconds = 55;
  bool traced = false;
  /// About 1/20 of the full size, for the self-test.
  bool smoke = false;
};

/// One complete span parsed back from obs::FlushTraceJson().
struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
};

/// What a run reports: the result line printed last on stdout.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  ///< failed checks; empty = correct
  std::vector<std::pair<std::string, double>> metrics;
  /// The traceEvents of every flush the traced run made, as
  /// obs::FlushTraceJson() wrote them, comma-joined for its Chrome trace.
  std::string trace_events;

  bool correct() const { return errors.empty(); }
  void Set(const std::string& name, double value);
  /// Records a failed check; the run then reports correct=false.
  void Check(bool ok, const std::string& what);
};

/// One half of a workload. A run alternates the two halves' blocks until
/// --seconds have passed, so both sample the whole run window.
class Phase {
 public:
  virtual ~Phase() = default;
  /// One block of measured work.
  virtual void Block() = 0;
  /// Appends the half's metrics to the run result.
  virtual void Finish() = 0;
};

/// The training half: the world and an untimed warm-up fit here; world
/// generation and trainer construction are then timed twice in each
/// block, each time appended to `*setup_s`, which must outlive the phase.
std::unique_ptr<Phase> SetUpTraining(const RunOptions& options,
                                     RunResult* result,
                                     std::vector<double>* setup_s);

/// The serving half: model build, publish and server construction, five
/// times, then an untimed cache warm-up.
std::unique_ptr<Phase> SetUpServing(const RunOptions& options,
                                    RunResult* result,
                                    std::vector<double>* setup_s);

// --- statistics --------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Peak resident set size of this process, MiB.
double PeakRssMiB();

// --- counting allocator (alloc_counter.cc) -----------------------------

struct AllocCount {
  uint64_t calls = 0;
  uint64_t bytes = 0;
};

/// Zeroes and arms, or disarms, counting in the global operator new.
/// Disarmed, the replacement costs one relaxed load per allocation.
void ArmAllocCounter(bool armed);
AllocCount ReadAllocCounter();

// --- JSON, read with bench/bench_common.h's JsonCursor -----------------

using bench::json_internal::JsonCursor;

/// Calls `fn` for each element of the array at the cursor.
template <typename Fn>
void ParseArray(JsonCursor* cur, Fn&& fn) {
  if (!cur->Eat('[')) return;
  if (cur->Peek(']')) {
    cur->Eat(']');
    return;
  }
  while (cur->ok) {
    fn();
    if (cur->Peek(',')) {
      cur->Eat(',');
      continue;
    }
    cur->Eat(']');
    return;
  }
}

bool ParseBool(JsonCursor* cur);

// --- span folding ------------------------------------------------------

/// Parses obs::FlushTraceJson() output, appending to `spans` and the raw
/// text of its traceEvents array (brackets stripped) to `events`; false
/// when malformed or when a ring dropped events (a wrapped ring loses
/// parents).
bool ParseTrace(const std::string& json, std::vector<Span>* spans,
                std::string* events);

/// Self time per span name: duration minus the part its child spans
/// cover on the same thread, found by interval containment.
struct FoldedSpans {
  std::map<std::string, double> self_us;  ///< summed over spans
  std::map<std::string, uint64_t> count;
  /// Sum of self times of train_step spans and everything nested in them.
  double step_tree_self_us = 0.0;
  double step_total_us = 0.0;  ///< summed train_step durations

  double Self(const std::string& name) const;
  uint64_t Count(const std::string& name) const;
  void Add(const FoldedSpans& other);
};

FoldedSpans FoldSpans(std::vector<Span> spans);

/// Flushes and clears the span rings, folds what they held into `into`,
/// and keeps the events in `result` for the Chrome trace. A malformed or
/// wrapped trace fails a check.
void CollectTrace(RunResult* result, FoldedSpans* into);

}  // namespace dtrec::perf

#endif  // DTREC_BENCHMARK_BENCH_H_
