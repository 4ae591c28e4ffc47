#include "obs/trace.h"

#include <chrono>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "util/atomic_file.h"
#include "util/json.h"
#include "util/string_util.h"
#include "util/thread_annotations.h"

namespace dtrec::obs {

namespace internal {
std::atomic<bool> g_tracing_enabled{false};
thread_local bool t_trace_suppressed = false;
}  // namespace internal

namespace {

struct TraceEvent {
  const char* name = nullptr;
  uint64_t begin_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t trace_id = 0;  ///< 0 = recorded outside any TraceContext
};

thread_local uint64_t t_current_trace_id = 0;

/// Bounds memory per thread; the ring keeps the newest spans (a stuck run
/// is diagnosed from its tail, not its preamble).
constexpr size_t kMaxEventsPerThread = 1 << 16;

/// One buffer per recording thread, each with its own mutex. Record()
/// takes an uncontended lock (only a concurrent flush ever competes for
/// it), which keeps recording cheap and the flush race TSan-clean.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events DTREC_GUARDED_BY(mu);
  size_t next DTREC_GUARDED_BY(mu) = 0;  ///< overwrite cursor (ring full)
  uint64_t dropped DTREC_GUARDED_BY(mu) = 0;
  uint32_t tid DTREC_GUARDED_BY(mu) = 0;
};

struct TraceState {
  std::mutex mu;
  /// shared_ptrs keep buffers alive past thread exit, so spans recorded by
  /// a worker survive until the flush after its pool shuts down.
  std::vector<std::shared_ptr<ThreadBuffer>> buffers DTREC_GUARDED_BY(mu);
  uint32_t next_tid DTREC_GUARDED_BY(mu) = 1;
};

TraceState& State() {
  static TraceState state;
  return state;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    b->tid = state.next_tid++;
    state.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

}  // namespace

namespace internal {

uint64_t MonotonicNanos() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

void RecordSpan(const char* name, uint64_t begin_ns, uint64_t duration_ns) {
  const uint64_t trace_id = t_current_trace_id;
  ThreadBuffer& buffer = LocalBuffer();
  std::lock_guard<std::mutex> lock(buffer.mu);
  if (buffer.events.size() < kMaxEventsPerThread) {
    buffer.events.push_back({name, begin_ns, duration_ns, trace_id});
  } else {
    buffer.events[buffer.next] = {name, begin_ns, duration_ns, trace_id};
    buffer.next = (buffer.next + 1) % kMaxEventsPerThread;
    ++buffer.dropped;
  }
}

}  // namespace internal

uint64_t NewTraceId() {
  // splitmix64 over a process-wide counter: ids are unique, well mixed
  // (nearby requests land in distant buckets of any hash) and reproducible
  // run to run. The finalizer is a bijection on non-zero inputs' domain
  // minus the single preimage of 0, which the +1 below can never hit at
  // the first 2^64 - 1 ids — more than any process records.
  static std::atomic<uint64_t> counter{0};
  uint64_t z = counter.fetch_add(1, std::memory_order_relaxed) + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return z == 0 ? 1 : z;
}

uint64_t CurrentTraceId() {
  return internal::t_trace_suppressed ? 0 : t_current_trace_id;
}

std::string FormatTraceId(uint64_t id) {
  return StrFormat("0x%016llx", static_cast<unsigned long long>(id));
}

void TraceNote(const char* name) {
  if (!TracingEnabled()) return;
  internal::RecordSpan(name, internal::MonotonicNanos(), 0);
}

TraceContext::TraceContext(uint64_t id)
    : id_(id), prev_(t_current_trace_id) {
  t_current_trace_id = id_;
}

TraceContext::~TraceContext() { t_current_trace_id = prev_; }

TraceSampleScope::TraceSampleScope(bool sampled)
    : prev_(internal::t_trace_suppressed) {
  internal::t_trace_suppressed = !sampled;
}

TraceSampleScope::~TraceSampleScope() { internal::t_trace_suppressed = prev_; }

void EnableTracing() {
  internal::g_tracing_enabled.store(true, std::memory_order_relaxed);
}

void DisableTracing() {
  internal::g_tracing_enabled.store(false, std::memory_order_relaxed);
}

void ClearTrace() {
  std::vector<std::shared_ptr<ThreadBuffer>> captured;
  {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    captured = state.buffers;
  }
  for (const auto& buffer : captured) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    buffer->events.clear();
    buffer->next = 0;
    buffer->dropped = 0;
  }
}

std::string FlushTraceJson() {
  std::vector<std::shared_ptr<ThreadBuffer>> captured;
  {
    TraceState& state = State();
    std::lock_guard<std::mutex> lock(state.mu);
    captured = state.buffers;
  }

  uint64_t total_dropped = 0;
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", ";
  std::ostringstream event_stream;
  bool first = true;
  for (const auto& buffer : captured) {
    std::vector<TraceEvent> copy;
    uint32_t buffer_tid = 0;
    {
      std::lock_guard<std::mutex> lock(buffer->mu);
      buffer_tid = buffer->tid;
      total_dropped += buffer->dropped;
      copy.reserve(buffer->events.size());
      // Ring order: oldest surviving event first.
      for (size_t i = 0; i < buffer->events.size(); ++i) {
        copy.push_back(
            buffer->events[(buffer->next + i) % buffer->events.size()]);
      }
    }
    for (const TraceEvent& e : copy) {
      if (!first) event_stream << ",\n";
      first = false;
      event_stream << "{\"name\": \"" << json::Escape(e.name) << "\", "
                   << StrFormat(
                          "\"cat\": \"dtrec\", \"ph\": \"X\", "
                          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                          "\"tid\": %u",
                          static_cast<double>(e.begin_ns) / 1e3,
                          static_cast<double>(e.duration_ns) / 1e3,
                          buffer_tid);
      if (e.trace_id != 0) {
        event_stream << ", \"args\": {\"trace_id\": \""
                     << FormatTraceId(e.trace_id) << "\"}";
      }
      event_stream << "}";
    }
  }
  os << "\"droppedEvents\": " << total_dropped << ", \"traceEvents\": [\n"
     << event_stream.str() << "\n]}\n";
  return os.str();
}

Status WriteTraceJson(const std::string& path) {
  return WriteFileAtomic(path, FlushTraceJson());
}

}  // namespace dtrec::obs
