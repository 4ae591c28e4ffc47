#include "obs/profiler.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>

#include "util/json.h"
#include "util/string_util.h"

// Sanitizer guard (documented in profiler.h): TSan and ASan intercept
// sigaction/backtrace and run their own unwinders inside signal handlers;
// rather than chase a handler that is clean under every interceptor, the
// profiler compiles down to "unavailable" stubs on those builds. The CI
// TSan leg runs the watchdog/obs labels against the stubs.
#if defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define DTREC_PROFILER_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define DTREC_PROFILER_SANITIZED 1
#endif
#if defined(__linux__) && !defined(DTREC_PROFILER_SANITIZED)
#define DTREC_PROFILER_SUPPORTED 1
#endif

#if defined(DTREC_PROFILER_SUPPORTED)
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <signal.h>
#include <sys/time.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#endif

namespace dtrec::obs {

#if defined(DTREC_PROFILER_SUPPORTED)

namespace {

constexpr size_t kMaxDepthCap = 64;

struct Sample {
  std::atomic<uint32_t> ready{0};
  uint32_t depth = 0;
  void* frames[kMaxDepthCap];
};

struct ProfilerState {
  std::atomic<bool> armed{false};
  std::atomic<uint64_t> cursor{0};
  std::atomic<uint64_t> dropped{0};
  size_t max_samples = 0;
  size_t max_depth = 0;
  uint64_t interval_us = 0;
  std::vector<Sample> ring;
  struct sigaction old_action = {};
  bool running = false;
};

/// Function-local static: StartProfiler touches it before installing the
/// handler, so by the time a signal can arrive the guard is a plain
/// acquire load (signal-safe).
ProfilerState& State() {
  static ProfilerState state;
  return state;
}

// dtrec-signal-safe-region-begin
// The sampling path. Rules (see profiler.h): errno save/restore, relaxed
// atomics on preallocated slots, backtrace() only — the warm-up call in
// StartProfiler already forced its lazy libgcc load.
void ProfSignalHandler(int, siginfo_t*, void*) {
  ProfilerState& state = State();
  const int saved_errno = errno;
  if (state.armed.load(std::memory_order_relaxed)) {
    const uint64_t idx = state.cursor.fetch_add(1, std::memory_order_relaxed);
    if (idx < state.max_samples) {
      Sample& slot = state.ring[idx];
      const int depth =
          backtrace(slot.frames, static_cast<int>(state.max_depth));
      slot.depth = depth > 0 ? static_cast<uint32_t>(depth) : 0;
      slot.ready.store(1, std::memory_order_release);
    } else {
      state.dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  errno = saved_errno;
}
// dtrec-signal-safe-region-end

/// dladdr + demangle, trimmed at the argument list (keeps collapsed
/// stacks readable); hex address when the symbol is invisible (static
/// binary without -rdynamic, or a leaf in an anonymous mapping).
std::string Symbolize(void* addr) {
  Dl_info info;
  if (dladdr(addr, &info) != 0 && info.dli_sname != nullptr) {
    std::string name = info.dli_sname;
    int status = 0;
    char* demangled =
        abi::__cxa_demangle(info.dli_sname, nullptr, nullptr, &status);
    if (status == 0 && demangled != nullptr) name = demangled;
    std::free(demangled);
    const size_t paren = name.find('(');
    if (paren != std::string::npos && paren >= 1 &&
        !(paren >= 8 && name.compare(paren - 8, 8, "operator") == 0)) {
      name.resize(paren);
    }
    return name;
  }
  return StrFormat("0x%zx", reinterpret_cast<size_t>(addr));
}

}  // namespace

bool ProfilerAvailable() { return true; }

bool ProfilerRunning() { return State().running; }

Status StartProfiler(const ProfilerOptions& options) {
  ProfilerState& state = State();
  if (state.running) {
    return Status::FailedPrecondition("profiler already running");
  }
  if (options.interval_us == 0 || options.max_samples == 0) {
    return Status::InvalidArgument(
        "profiler needs a positive interval and sample capacity");
  }
  state.max_samples = options.max_samples;
  state.max_depth = std::min(options.max_depth, kMaxDepthCap);
  if (state.max_depth == 0) state.max_depth = kMaxDepthCap;
  state.interval_us = options.interval_us;
  state.ring = std::vector<Sample>(state.max_samples);
  state.cursor.store(0, std::memory_order_relaxed);
  state.dropped.store(0, std::memory_order_relaxed);

  // Warm the unwinder before any signal can arrive: backtrace()'s first
  // call may lazily load libgcc (dlopen + malloc), which must not happen
  // inside the handler.
  void* warm[4];
  backtrace(warm, 4);

  struct sigaction action = {};
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART | SA_SIGINFO;
  action.sa_sigaction = &ProfSignalHandler;
  if (sigaction(SIGPROF, &action, &state.old_action) != 0) {
    return Status::Internal("sigaction(SIGPROF) failed");
  }
  state.armed.store(true, std::memory_order_release);

  itimerval timer = {};
  timer.it_interval.tv_sec =
      static_cast<time_t>(state.interval_us / 1000000);
  timer.it_interval.tv_usec =
      static_cast<suseconds_t>(state.interval_us % 1000000);
  timer.it_value = timer.it_interval;
  if (setitimer(ITIMER_PROF, &timer, nullptr) != 0) {
    state.armed.store(false, std::memory_order_release);
    sigaction(SIGPROF, &state.old_action, nullptr);
    return Status::Internal("setitimer(ITIMER_PROF) failed");
  }
  state.running = true;
  return Status::OK();
}

Status StopProfiler() {
  ProfilerState& state = State();
  if (!state.running) return Status::OK();
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  state.armed.store(false, std::memory_order_release);
  sigaction(SIGPROF, &state.old_action, nullptr);
  state.running = false;
  return Status::OK();
}

ProfileReport CollectProfile() {
  ProfilerState& state = State();
  ProfileReport report;
  report.interval_us = state.interval_us;
  report.dropped = state.dropped.load(std::memory_order_relaxed);
  const uint64_t taken = state.cursor.load(std::memory_order_relaxed);
  const size_t n = static_cast<size_t>(
      std::min<uint64_t>(taken, state.max_samples));

  std::map<void*, std::string> symbol_cache;
  std::map<std::vector<std::string>, uint64_t> aggregated;
  for (size_t s = 0; s < n; ++s) {
    const Sample& sample = state.ring[s];
    if (sample.ready.load(std::memory_order_acquire) == 0) {
      ++report.dropped;  // signal landed mid-write at stop time
      continue;
    }
    // Leaf-first from backtrace(); flip to root-first and strip the
    // handler prelude (everything through ProfSignalHandler plus the
    // kernel signal trampoline above it).
    std::vector<std::string> frames;
    frames.reserve(sample.depth);
    size_t begin = 0;
    for (size_t d = 0; d < sample.depth; ++d) {
      auto [it, inserted] = symbol_cache.emplace(sample.frames[d], "");
      if (inserted) it->second = Symbolize(sample.frames[d]);
      if (it->second.find("ProfSignalHandler") != std::string::npos) {
        begin = d + 2;  // handler frame + signal trampoline
      }
    }
    for (size_t d = sample.depth; d-- > begin;) {
      frames.push_back(symbol_cache[sample.frames[d]]);
    }
    if (frames.empty()) continue;
    ++aggregated[frames];
    ++report.samples;
  }

  report.stacks.reserve(aggregated.size());
  for (auto& [frames, count] : aggregated) {
    report.stacks.push_back({frames, count});
  }
  std::stable_sort(report.stacks.begin(), report.stacks.end(),
                   [](const ProfileStack& a, const ProfileStack& b) {
                     return a.count > b.count;
                   });
  return report;
}

#else  // !DTREC_PROFILER_SUPPORTED

bool ProfilerAvailable() { return false; }
bool ProfilerRunning() { return false; }

Status StartProfiler(const ProfilerOptions&) {
  return Status::NotSupported(
      "profiler compiled out (sanitizer build or unsupported platform)");
}

Status StopProfiler() { return Status::OK(); }

ProfileReport CollectProfile() { return {}; }

#endif  // DTREC_PROFILER_SUPPORTED

std::string CollapsedStacks(const ProfileReport& report) {
  std::ostringstream os;
  for (const ProfileStack& stack : report.stacks) {
    if (stack.frames.empty()) continue;
    for (size_t i = 0; i < stack.frames.size(); ++i) {
      if (i != 0) os << ";";
      os << stack.frames[i];
    }
    os << " " << stack.count << "\n";
  }
  return os.str();
}

std::string ProfileJson(const ProfileReport& report) {
  std::ostringstream os;
  os << "{\"schema\": \"dtrec-profile-v1\", \"interval_us\": "
     << report.interval_us << ", \"samples\": " << report.samples
     << ", \"dropped\": " << report.dropped << ", \"stacks\": [";
  bool first_stack = true;
  for (const ProfileStack& stack : report.stacks) {
    if (!first_stack) os << ",";
    first_stack = false;
    os << "\n{\"frames\": [";
    bool first_frame = true;
    for (const std::string& frame : stack.frames) {
      if (!first_frame) os << ", ";
      first_frame = false;
      os << "\"" << json::Escape(frame) << "\"";
    }
    os << "], \"count\": " << stack.count << "}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace dtrec::obs
