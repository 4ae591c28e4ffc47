#ifndef DTREC_OBS_TRACE_H_
#define DTREC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "util/status.h"

// Scoped trace spans, flushed as Chrome trace_event JSON.
//
// Usage — one macro at the top of the scope to time:
//
//   void TrainStep(...) {
//     DTREC_TRACE_SPAN("train_step");
//     ...
//   }
//
// Spans record (name, begin, duration) into per-thread ring buffers;
// FlushTraceJson()/WriteTraceJson() render every buffered span as a
// complete event ("ph":"X") in the Chrome trace_event format, loadable in
// chrome://tracing or https://ui.perfetto.dev.
//
// Cost model: recording is OFF by default — an unarmed span site is one
// relaxed atomic load. EnableTracing() arms every site process-wide
// (dtrec_cli/dtrec_serve arm it when --trace-out is passed); an armed site
// pays two steady-clock reads plus an uncontended mutexed ring write. Hot
// request paths that cannot afford that per call head-sample instead: a
// TraceSampleScope constructed with sampled=false suppresses recording on
// the thread for its lifetime, so only every Nth request pays the armed
// cost (see RecommendServer's trace_sample_every). Building with
// -DDTREC_TRACING=OFF compiles every span site to nothing at all, for
// benchmark builds whose numbers are reported.

namespace dtrec::obs {

namespace internal {
extern std::atomic<bool> g_tracing_enabled;

/// Thread-local head-sampling verdict (see TraceSampleScope). Checked
/// after the global arm flag, so disabled tracing still costs exactly one
/// relaxed load per span site.
extern thread_local bool t_trace_suppressed;

/// Nanoseconds on the steady clock since process start.
uint64_t MonotonicNanos();

/// Appends one complete span to the calling thread's ring buffer, tagged
/// with the thread's current trace id (see TraceContext). The `name`
/// pointer must stay valid until the next flush/clear — span names are
/// string literals by convention.
void RecordSpan(const char* name, uint64_t begin_ns, uint64_t duration_ns);
}  // namespace internal

/// A process-unique, never-zero 64-bit trace id (a mixed atomic counter —
/// deterministic across runs, no clock or PRNG involved).
uint64_t NewTraceId();

/// The calling thread's current request trace id, 0 when no TraceContext
/// is live — or when a TraceSampleScope has sampled the request out (an
/// exemplar must never name a trace that recorded no spans). Spans and
/// exemplars recorded on this thread carry it.
uint64_t CurrentTraceId();

/// Canonical rendering of a trace id, as emitted in the trace JSON's
/// "args": {"trace_id": "0x..."} — use it to grep a flushed trace for a
/// specific request.
std::string FormatTraceId(uint64_t id);

/// Records a zero-duration annotation span ("rung_popularity",
/// "degrade_unknown_user", …) tagged with the calling thread's current
/// trace id. No-op while tracing is disabled.
void TraceNote(const char* name);

/// Scoped request identity: installs `id` as the calling thread's current
/// trace id for its lifetime (restoring the previous one on exit, so
/// nested contexts — e.g. a sync Recommend() inside an instrumented
/// caller — compose). Works whether or not span recording is compiled in:
/// exemplar capture keeps its ids even in DTREC_TRACING=OFF builds.
class TraceContext {
 public:
  TraceContext() : TraceContext(NewTraceId()) {}
  explicit TraceContext(uint64_t id);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  uint64_t id() const { return id_; }

 private:
  uint64_t id_ = 0;
  uint64_t prev_ = 0;
};

/// Scoped head-sampling verdict for one request. Constructed with
/// sampled=false it suppresses span/note recording *and* exemplar
/// identity (CurrentTraceId() reads 0) on the calling thread until it
/// exits — a sampled-out request costs two thread-local writes instead of
/// per-span clock reads, and can never plant a histogram exemplar whose
/// trace id resolves to an empty span tree. Restores the previous verdict
/// on exit, so nested scopes (a sampled sub-operation inside a sampled-out
/// request, or vice versa) compose like TraceContext.
class TraceSampleScope {
 public:
  explicit TraceSampleScope(bool sampled);
  ~TraceSampleScope();

  TraceSampleScope(const TraceSampleScope&) = delete;
  TraceSampleScope& operator=(const TraceSampleScope&) = delete;

 private:
  bool prev_ = false;
};

inline bool TracingEnabled() {
  return internal::g_tracing_enabled.load(std::memory_order_relaxed) &&
         !internal::t_trace_suppressed;
}

void EnableTracing();
void DisableTracing();

/// Drops every buffered span (the buffers themselves stay registered).
void ClearTrace();

/// Renders every buffered span as Chrome trace_event JSON:
///   {"displayTimeUnit": "ms", "droppedEvents": N, "traceEvents": [
///     {"name": "...", "cat": "dtrec", "ph": "X",
///      "ts": <µs>, "dur": <µs>, "pid": 1, "tid": <n>,
///      "args": {"trace_id": "0x..."}}, ...]}
/// (`args` is present only on spans recorded inside a TraceContext.)
/// Safe to call while other threads keep recording.
std::string FlushTraceJson();

/// FlushTraceJson() committed crash-atomically to `path`.
Status WriteTraceJson(const std::string& path);

/// RAII recorder behind DTREC_TRACE_SPAN. A span constructed while tracing
/// is disabled stays inert even if tracing is enabled before it closes
/// (its begin timestamp was never taken).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      begin_ns_ = internal::MonotonicNanos();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      internal::RecordSpan(name_, begin_ns_,
                           internal::MonotonicNanos() - begin_ns_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t begin_ns_ = 0;
};

}  // namespace dtrec::obs

#if defined(DTREC_TRACING_ENABLED)
#define DTREC_TRACE_SPAN_CONCAT_INNER(a, b) a##b
#define DTREC_TRACE_SPAN_CONCAT(a, b) DTREC_TRACE_SPAN_CONCAT_INNER(a, b)
#define DTREC_TRACE_SPAN(name)                                      \
  ::dtrec::obs::TraceSpan DTREC_TRACE_SPAN_CONCAT(dtrec_trace_span_, \
                                                  __LINE__)(name)
#else
#define DTREC_TRACE_SPAN(name) static_cast<void>(0)
#endif

#endif  // DTREC_OBS_TRACE_H_
