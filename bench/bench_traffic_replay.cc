// Traffic-replay load harness: drives the serving stack (Submit → worker
// pool → TopKScorer::TopK) to saturation with realistic traffic shapes
// and emits a schema-stamped BENCH_serving.json capacity record.
//
// Phases (each resets server stats, then reports its own percentiles):
//
//   capacity          closed-loop Zipf traffic on the sync path: per-core
//                     users/sec while the p99 meets the SLO — the number
//                     the CI gate enforces on Release builds.
//   diurnal_burst     Submit() alternating peak/trough request bursts
//                     (a compressed diurnal curve) against the unbounded
//                     worker queue, which the peaks leave backed up.
//   cold_flood        every request a previously-unseen user id: worst
//                     case for the score cache (hit rate → 0).
//   deadline_mix      80% generous / 20% already-tight deadlines: the
//                     tight cohort must degrade, the generous must not.
//   saturation_flood  unpaced Submit() far beyond capacity with a bounded
//                     queue: measures the shed rate and that sheds stay
//                     O(1)-cheap under overload.
//
//   bench_traffic_replay [--smoke] [--json=PATH] [--trace-out=PATH]
//                        [--profile-out=PATH] [--alerts-out=PATH]
//                        [key=value ...]
//   bench_traffic_replay --validate=PATH     schema-check a JSON, exit
//   bench_traffic_replay --gate=PATH         validate + enforce the
//       per-core SLO-throughput floor (Release/unsanitized builds only;
//       other flavors validate and pass)
//
// keys (defaults): users=2000 items=2000 dim=32 k=10 cache=4096
//                  threads=0 (0 → hardware) requests=30000 slo_ms=5
//                  zipf=1.1 seed=42 floor=0 (0 → built-in gate floor)
//
// Telemetry: `--trace-out` arms span recording and writes the Chrome
// trace JSON; `--profile-out` attaches the SIGPROF sampling profiler and
// writes collapsed stacks there (plus dtrec-profile-v1 JSON at
// PATH.json); `--alerts-out` streams the watchdog's dtrec-alerts-v1
// JSONL. A telemetry watchdog always runs across the phases and GATES the
// result both ways: any alert during warmup/capacity fails the run, and
// the saturation flood must trip the shed_spike rule. With --trace-out
// the run also proves the exemplar loop end-to-end: the capacity phase's
// p99-bucket exemplar trace id must resolve to span events in the flushed
// trace (strict under --smoke, where the rings cannot wrap).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry_validate.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "tensor/matrix.h"
#include "util/atomic_file.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace dtrec {
namespace {

/// Default per-core users/sec floor the --gate mode enforces on Release
/// unsanitized builds. The 1-core CI container measures ~80k/s on the
/// smoke shape (2000 items, dim 32, warm cache); 4x headroom absorbs
/// noisy-neighbor variance without letting a real regression through.
constexpr double kDefaultPerCoreFloor = 20000.0;

struct Args {
  size_t users = 2000;
  size_t items = 2000;
  size_t dim = 32;
  size_t k = 10;
  size_t cache = 4096;
  size_t threads = 0;  // 0 → hardware_concurrency
  size_t requests = 30000;
  double slo_ms = 5.0;
  double zipf = 1.1;
  uint64_t seed = 42;
  double floor = 0.0;  // 0 → kDefaultPerCoreFloor
  bool smoke = false;
  std::string json_path = "BENCH_serving.json";
  std::string trace_out;    // arms tracing; Chrome trace JSON path
  std::string profile_out;  // collapsed stacks path (+ PATH.json report)
  std::string alerts_out;   // dtrec-alerts-v1 JSONL path
};

/// True for the build flavor whose numbers are comparable to the recorded
/// Release baseline. Sanitized/debug flavors keep the watchdog armed but
/// scale the latency-burn threshold so only the *shape* of the alerts is
/// gated there, not Release-grade latency.
bool ReleaseUnsanitizedBuild() {
#ifdef DTREC_BENCH_BUILD_TYPE
  const bool release = std::string(DTREC_BENCH_BUILD_TYPE) == "Release";
#else
  const bool release = false;
#endif
#ifdef DTREC_BENCH_SANITIZE
  const bool unsanitized = std::string(DTREC_BENCH_SANITIZE).empty();
#else
  const bool unsanitized = true;
#endif
  return release && unsanitized;
}

size_t ResolveThreads(const Args& args) {
  if (args.threads > 0) return args.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Zipf(s) sampler over [0, n) via the precomputed CDF — O(log n) per
/// draw, exact for any exponent. Rank r has probability ∝ 1/(r+1)^s, so
/// user 0 is the hottest.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
      cdf_[r] = total;
    }
    for (size_t r = 0; r < n; ++r) cdf_[r] /= total;
  }

  size_t Sample(Rng* rng) const {
    const double u = rng->Uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

serve::ServingModel MakeModel(const Args& args) {
  Rng rng(args.seed);
  std::vector<double> popularity(args.items);
  for (size_t i = 0; i < args.items; ++i) {
    popularity[i] = static_cast<double>(args.items - i);
  }
  auto model = serve::ServingModel::FromFactors(
      Matrix::RandomNormal(args.users, args.dim, 0.1, &rng),
      Matrix::RandomNormal(args.items, args.dim, 0.1, &rng), Matrix(),
      Matrix(), std::move(popularity));
  DTREC_CHECK(model.ok()) << model.status();
  return std::move(model).value();
}

struct PhaseResult {
  std::string phase;
  size_t requests = 0;
  double elapsed_s = 0.0;
  serve::ServerStats stats;

  double shed_rate() const { return stats.shed_rate(); }
  double degraded_rate() const { return stats.degraded_rate(); }
};

/// Closed-loop capacity probe: `threads` generator threads each running
/// sync Recommend() back-to-back with Zipf users. Closed-loop means the
/// offered rate self-limits to the service rate — this measures capacity,
/// not queueing.
PhaseResult RunCapacity(serve::RecommendServer* server,
                        const ZipfSampler& zipf, const Args& args,
                        size_t threads, size_t requests) {
  server->ResetStats();
  PhaseResult result;
  result.phase = "capacity";
  result.requests = requests;
  const Stopwatch watch;
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(args.seed + 1000 * (t + 1));
      const size_t quota = requests / threads + (t < requests % threads);
      for (size_t r = 0; r < quota; ++r) {
        server->Recommend({.user = zipf.Sample(&rng), .k = args.k});
      }
    });
  }
  for (std::thread& w : workers) w.join();
  result.elapsed_s = watch.ElapsedSeconds();
  result.stats = server->Snapshot();
  return result;
}

/// Diurnal pattern: alternating peak bursts (burst submits back to back)
/// and troughs (a quarter burst, then a full drain). The worker queue sees
/// a spiky arrival process instead of the closed loop's smooth one.
PhaseResult RunDiurnalBurst(serve::RecommendServer* server,
                            const ZipfSampler& zipf, const Args& args,
                            size_t requests) {
  server->ResetStats();
  PhaseResult result;
  result.phase = "diurnal_burst";
  result.requests = requests;
  Rng rng(args.seed + 7);
  const size_t burst = std::max<size_t>(requests / 20, 1);
  const Stopwatch watch;
  size_t sent = 0;
  std::vector<std::future<serve::Recommendation>> in_flight;
  bool peak = true;
  while (sent < requests) {
    const size_t now = std::min(peak ? burst : burst / 4, requests - sent);
    for (size_t r = 0; r < now; ++r) {
      in_flight.push_back(
          server->Submit({.user = zipf.Sample(&rng), .k = args.k}));
    }
    sent += now;
    // Trough: drain everything (the "night"); peak leaves the backlog up.
    if (!peak) {
      for (auto& f : in_flight) f.get();
      in_flight.clear();
    }
    peak = !peak;
  }
  for (auto& f : in_flight) f.get();
  result.elapsed_s = watch.ElapsedSeconds();
  result.stats = server->Snapshot();
  return result;
}

/// Cold-user flood: strictly fresh user ids against a cold cache — every
/// request a compulsory miss, the worst case for the caching layer and
/// the closest analogue of a cache-busting crawler. Runs on its own
/// server so the warm Zipf head from earlier phases can't leak in, and
/// caps at one request per user so ids never wrap into hits.
PhaseResult RunColdFlood(serve::RecommendServer* server, const Args& args,
                         size_t requests) {
  server->ResetStats();
  PhaseResult result;
  result.phase = "cold_flood";
  requests = std::min(requests, args.users);
  result.requests = requests;
  const Stopwatch watch;
  for (size_t r = 0; r < requests; ++r) {
    server->Recommend({.user = r, .k = args.k});
  }
  result.elapsed_s = watch.ElapsedSeconds();
  result.stats = server->Snapshot();
  return result;
}

/// Deadline mix: 80% generous (the SLO), 20% born-expired (0 ms). The
/// expired cohort must resolve on the popularity rung without dragging
/// the generous cohort's latency along.
PhaseResult RunDeadlineMix(serve::RecommendServer* server,
                           const ZipfSampler& zipf, const Args& args,
                           size_t requests) {
  server->ResetStats();
  PhaseResult result;
  result.phase = "deadline_mix";
  result.requests = requests;
  Rng rng(args.seed + 13);
  const Stopwatch watch;
  for (size_t r = 0; r < requests; ++r) {
    const bool tight = rng.Uniform() < 0.2;
    server->Recommend({.user = zipf.Sample(&rng),
                       .k = args.k,
                       .deadline_ms = tight ? 0.0 : args.slo_ms});
  }
  result.elapsed_s = watch.ElapsedSeconds();
  result.stats = server->Snapshot();
  return result;
}

/// Unpaced flood through Submit() against a bounded queue and depth cap:
/// offered load far beyond capacity. The interesting numbers are the shed
/// rate (must be high — the queue is protecting itself) and that the
/// flood completes quickly (sheds are O(1)).
PhaseResult RunSaturationFlood(serve::RecommendServer* server,
                               const ZipfSampler& zipf, const Args& args,
                               size_t requests) {
  server->ResetStats();
  PhaseResult result;
  result.phase = "saturation_flood";
  result.requests = requests;
  Rng rng(args.seed + 29);
  const Stopwatch watch;
  std::vector<std::future<serve::Recommendation>> futures;
  futures.reserve(requests);
  for (size_t r = 0; r < requests; ++r) {
    futures.push_back(
        server->Submit({.user = zipf.Sample(&rng), .k = args.k}));
  }
  for (auto& f : futures) f.get();
  result.elapsed_s = watch.ElapsedSeconds();
  result.stats = server->Snapshot();
  return result;
}

std::string PhaseJson(const PhaseResult& r) {
  return StrFormat(
      "    {\"phase\": \"%s\", \"requests\": %zu, \"elapsed_s\": %.4f, "
      "\"users_per_sec\": %.1f, \"p50_us\": %.1f, \"p99_us\": %.1f, "
      "\"p999_us\": %.1f, \"shed_rate\": %.4f, \"degraded_rate\": %.4f, "
      "\"cache_hit_rate\": %.4f, \"deadline_miss\": %llu, "
      "\"queue_shed\": %llu}",
      r.phase.c_str(), r.requests, r.elapsed_s,
      r.elapsed_s > 0 ? r.requests / r.elapsed_s : 0.0,
      r.stats.total_us.p50_us, r.stats.total_us.p99_us,
      r.stats.total_us.p999_us, r.shed_rate(), r.degraded_rate(),
      r.stats.cache_hit_rate(),
      static_cast<unsigned long long>(r.stats.deadline_miss),
      static_cast<unsigned long long>(r.stats.queue_shed));
}

int RunValidate(const std::string& path, bool gate, double floor) {
  std::string content;
  if (Status st = ReadFile(path, &content); !st.ok()) {
    std::fprintf(stderr, "cannot read %s: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  obs::ServingBenchGateInputs inputs;
  if (Status st = obs::ValidateServingBenchJson(content, &inputs);
      !st.ok()) {
    std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("%s: valid %s (%zu phases, build %s/%s)\n", path.c_str(),
              obs::kServingBenchSchema, inputs.num_phases,
              inputs.build_type.c_str(), inputs.sanitizers.c_str());
  if (!gate) return 0;

  // The gate holds only Release unsanitized runs to the floor — the
  // stamp comes from the document, so a sanitized or Debug JSON can
  // never fail (or pass) the Release bar by accident. Unarmed failpoint
  // sites cost one relaxed atomic load each; the floor's headroom
  // absorbs that, so failpoint builds (the CI default) are still gated.
  if (inputs.build_type != "Release" || inputs.sanitizers != "none") {
    std::printf("gate skipped: build %s/%s is not a Release baseline\n",
                inputs.build_type.c_str(), inputs.sanitizers.c_str());
    return 0;
  }
  if (inputs.per_core_users_per_sec_at_slo < floor) {
    std::fprintf(stderr,
                 "gate FAILED: %.0f per-core users/sec at p99<=%.1fms SLO "
                 "is below the floor %.0f (capacity p99 %.0fus)\n",
                 inputs.per_core_users_per_sec_at_slo, inputs.slo_ms, floor,
                 inputs.capacity_p99_us);
    return 1;
  }
  std::printf("gate ok: %.0f per-core users/sec at SLO (floor %.0f)\n",
              inputs.per_core_users_per_sec_at_slo, floor);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  std::string validate_path, gate_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      args.json_path = arg.substr(7);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      args.trace_out = arg.substr(12);
    } else if (arg.rfind("--profile-out=", 0) == 0) {
      args.profile_out = arg.substr(14);
    } else if (arg.rfind("--alerts-out=", 0) == 0) {
      args.alerts_out = arg.substr(13);
    } else if (arg.rfind("--validate=", 0) == 0) {
      validate_path = arg.substr(11);
    } else if (arg.rfind("--gate=", 0) == 0) {
      gate_path = arg.substr(7);
    } else {
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        std::fprintf(stderr,
                     "usage: %s [--smoke] [--json=PATH] [--trace-out=PATH] "
                     "[--profile-out=PATH] [--alerts-out=PATH] "
                     "[--validate=PATH] [--gate=PATH] [key=value]\n",
                     argv[0]);
        return 2;
      }
      const std::string key = arg.substr(0, eq);
      const std::string value = arg.substr(eq + 1);
      if (key == "users") {
        args.users = bench::PositiveCountArg(key, value);
      } else if (key == "items") {
        args.items = bench::PositiveCountArg(key, value);
      } else if (key == "dim") {
        args.dim = bench::PositiveCountArg(key, value);
      } else if (key == "k") {
        args.k = bench::CountArg(key, value);
      } else if (key == "cache") {
        args.cache = bench::CountArg(key, value);
      } else if (key == "threads") {
        args.threads = bench::CountArg(key, value);
      } else if (key == "requests") {
        args.requests = bench::CountArg(key, value);
      } else if (key == "slo_ms") {
        args.slo_ms = bench::RealArg(key, value);
      } else if (key == "zipf") {
        args.zipf = bench::RealArg(key, value);
      } else if (key == "seed") {
        args.seed = bench::CountArg(key, value);
      } else if (key == "floor") {
        args.floor = bench::RealArg(key, value);
      } else {
        std::fprintf(stderr, "unknown key '%s'\n", key.c_str());
        return 2;
      }
    }
  }
  const double floor = args.floor > 0 ? args.floor : kDefaultPerCoreFloor;
  if (!validate_path.empty()) {
    return RunValidate(validate_path, /*gate=*/false, floor);
  }
  if (!gate_path.empty()) return RunValidate(gate_path, /*gate=*/true, floor);

  if (args.smoke) {
    args.requests = std::min<size_t>(args.requests, 6000);
  }
  const size_t threads = ResolveThreads(args);

  serve::ModelRegistry registry;
  registry.Publish(MakeModel(args));
  const ZipfSampler zipf(args.users, args.zipf);

  obs::MetricsRegistry metrics;
  serve::ServerConfig config;
  config.num_threads = threads;
  config.default_k = args.k;
  config.default_deadline_ms = -1;  // phases set deadlines per request
  config.cache.capacity = args.cache;
  config.metrics = &metrics;
  config.metrics_prefix = "replay";
  serve::RecommendServer server(&registry, config);

  if (!args.trace_out.empty()) obs::EnableTracing();

  // Attach the sampling profiler across every phase. NotSupported (the
  // sanitized builds compile the profiler out) downgrades to a note: the
  // bench still runs, the profile artifacts are simply absent.
  bool profiling = false;
  if (!args.profile_out.empty()) {
    obs::ProfilerOptions prof_options;
    // Library default (2 ms of CPU between samples): one signal per ~1k
    // requests at capacity, which keeps the profiler inside the §5k
    // overhead budget while a full replay still collects dozens of
    // scoring-frame samples.
    prof_options.interval_us = 2000;
    if (const Status st = obs::StartProfiler(prof_options); st.ok()) {
      profiling = true;
    } else {
      std::printf("profiler not attached: %s\n", st.ToString().c_str());
    }
  }

  // The watchdog rules gated below. The p99 burn threshold is the SLO on
  // the Release flavor and 100x that elsewhere — sanitizer slowdowns are
  // not latency regressions, but the alert plumbing must still prove out.
  const double burn_threshold_us =
      args.slo_ms * 1e3 * (ReleaseUnsanitizedBuild() ? 1.0 : 100.0);
  const std::string rules_text = StrFormat(
      "p99_slo_burn: p99:replay.total_us, 0.25, %.1f, above\n"
      "shed_spike: rate:replay_flood.rung_shed/replay_flood.requests, "
      "0.25, 0.25, above\n",
      burn_threshold_us);
  std::vector<obs::WatchRule> rules;
  if (const Status st = obs::ParseWatchdogRules(rules_text, &rules);
      !st.ok()) {
    std::fprintf(stderr, "watchdog rules: %s\n", st.ToString().c_str());
    return 1;
  }
  obs::Watchdog::Options watch_options;
  watch_options.alerts_path = args.alerts_out;
  obs::Watchdog watchdog(&metrics, std::move(rules), watch_options);
  watchdog.SetContext("warmup");
  watchdog.Poll();  // prime every rule's window before traffic starts
  if (const Status st = watchdog.Start(0.25); !st.ok()) {
    std::fprintf(stderr, "watchdog: %s\n", st.ToString().c_str());
    return 1;
  }

  // Warm-up: touch every page and let the hot Zipf head fill the cache.
  {
    Rng rng(args.seed);
    for (size_t r = 0; r < std::min<size_t>(args.requests / 10, 2000); ++r) {
      server.Recommend({.user = zipf.Sample(&rng), .k = args.k});
    }
  }

  std::vector<PhaseResult> phases;
  watchdog.SetContext("capacity");
  phases.push_back(
      RunCapacity(&server, zipf, args, threads, args.requests));
  watchdog.ForceEvaluate();

  // The capacity phase's tail exemplar, captured before the next phase's
  // ResetStats clears the histogram: the trace id of the worst request in
  // the p99 bucket, resolved against the flushed trace below.
  const obs::Histogram::Exemplar tail_exemplar = obs::Histogram::ExemplarNear(
      metrics.GetHistogram("replay.total_us")->TakeSnapshot(), 0.99);

  watchdog.SetContext("diurnal_burst");
  phases.push_back(RunDiurnalBurst(&server, zipf, args, args.requests / 3));
  watchdog.ForceEvaluate();
  watchdog.SetContext("cold_flood");
  {
    serve::ServerConfig cold_config = config;
    cold_config.metrics_prefix = "replay_cold";
    serve::RecommendServer cold_server(&registry, cold_config);
    phases.push_back(RunColdFlood(&cold_server, args, args.requests / 3));
  }
  watchdog.ForceEvaluate();
  watchdog.SetContext("deadline_mix");
  phases.push_back(RunDeadlineMix(&server, zipf, args, args.requests / 3));
  watchdog.ForceEvaluate();

  // The flood gets its own server with a tight queue bound: the point is
  // refusal behavior, not scoring throughput.
  serve::ServerConfig flood_config = config;
  flood_config.metrics_prefix = "replay_flood";
  flood_config.max_queue = 2 * threads;
  flood_config.default_deadline_ms = args.slo_ms;
  watchdog.SetContext("saturation_flood");
  {
    serve::RecommendServer flood_server(&registry, flood_config);
    phases.push_back(
        RunSaturationFlood(&flood_server, zipf, args, args.requests));
    watchdog.ForceEvaluate();
    const serve::ServerStats flood = flood_server.Snapshot();
    std::printf("flood: %s\n", flood.Summary().c_str());
  }
  watchdog.Stop();

  int telemetry_rc = 0;

  // Alert gate, both directions: steady-state phases must be silent and
  // the overload phase must be loud.
  size_t quiet_phase_alerts = 0;
  size_t flood_shed_alerts = 0;
  for (const obs::AlertEvent& alert : watchdog.alerts()) {
    std::printf("alert: %s\n", obs::AlertJsonLine(alert).c_str());
    if (alert.context == "warmup" || alert.context == "capacity") {
      ++quiet_phase_alerts;
    }
    if (alert.rule == "shed_spike" && alert.context == "saturation_flood") {
      ++flood_shed_alerts;
    }
  }
  if (quiet_phase_alerts > 0) {
    std::fprintf(stderr,
                 "watchdog gate FAILED: %zu alert(s) during warmup/capacity "
                 "(want 0)\n",
                 quiet_phase_alerts);
    telemetry_rc = 1;
  }
  if (flood_shed_alerts == 0) {
    std::fprintf(stderr, "watchdog gate FAILED: saturation_flood did not "
                         "trip shed_spike\n");
    telemetry_rc = 1;
  }
  if (telemetry_rc == 0) {
    std::printf("watchdog gate ok: capacity alert-free, shed_spike fired "
                "%zu time(s) under flood\n",
                flood_shed_alerts);
  }

  if (profiling) {
    if (const Status st = obs::StopProfiler(); !st.ok()) {
      std::fprintf(stderr, "profiler stop: %s\n", st.ToString().c_str());
    }
    const obs::ProfileReport report = obs::CollectProfile();
    if (const Status st =
            WriteFileAtomic(args.profile_out, obs::CollapsedStacks(report));
        !st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.profile_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    if (const Status st = WriteFileAtomic(args.profile_out + ".json",
                                          obs::ProfileJson(report));
        !st.ok()) {
      std::fprintf(stderr, "cannot write %s.json: %s\n",
                   args.profile_out.c_str(), st.ToString().c_str());
      return 1;
    }
    std::printf("profile: %llu samples (%llu dropped), %zu distinct stacks "
                "-> %s\n",
                static_cast<unsigned long long>(report.samples),
                static_cast<unsigned long long>(report.dropped),
                report.stacks.size(), args.profile_out.c_str());
    // Self-check: the serving hot path is the scoring sweep, so the top
    // stacks of a saturating run must contain a scoring frame.
    bool scoring_frame = false;
    const size_t top = std::min<size_t>(report.stacks.size(), 10);
    for (size_t s = 0; s < top && !scoring_frame; ++s) {
      for (const std::string& frame : report.stacks[s].frames) {
        if (frame.find("Score") != std::string::npos ||
            frame.find("TopK") != std::string::npos ||
            frame.find("RowDot") != std::string::npos ||
            frame.find("Sweep") != std::string::npos ||
            frame.find("Recommend") != std::string::npos ||
            frame.find("kernel") != std::string::npos) {
          scoring_frame = true;
          break;
        }
      }
    }
    if (report.samples == 0 || !scoring_frame) {
      std::fprintf(stderr, "profile gate FAILED: %s\n",
                   report.samples == 0
                       ? "no samples collected"
                       : "no scoring frame in the top stacks");
      telemetry_rc = 1;
    }
  }

  if (tail_exemplar.valid()) {
    std::printf("capacity p99 exemplar: trace %s, %.1fus\n",
                obs::FormatTraceId(tail_exemplar.trace_id).c_str(),
                tail_exemplar.value());
  }
  if (!args.trace_out.empty()) {
    if (const Status st = obs::WriteTraceJson(args.trace_out); !st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.trace_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    // Close the exemplar loop: the p99 exemplar's trace id must resolve
    // to span events in the flushed trace. Strict only under --smoke,
    // where the per-thread rings cannot have wrapped past the capacity
    // phase; a full run may legitimately evict those spans.
    std::string trace_content;
    size_t num_events = 0;
    std::set<std::string> span_names;
    std::map<std::string, size_t> id_events;
    Status st = ReadFile(args.trace_out, &trace_content);
    if (st.ok()) {
      st = obs::ValidateTraceJson(trace_content, &num_events, &span_names,
                                  &id_events);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "trace %s: %s\n", args.trace_out.c_str(),
                   st.ToString().c_str());
      telemetry_rc = 1;
    } else {
      const auto it =
          tail_exemplar.valid()
              ? id_events.find(obs::FormatTraceId(tail_exemplar.trace_id))
              : id_events.end();
      if (it != id_events.end()) {
        std::printf("exemplar gate ok: trace %s resolves to %zu span "
                    "event(s) in %s\n",
                    it->first.c_str(), it->second, args.trace_out.c_str());
      } else if (args.smoke) {
        std::fprintf(stderr, "exemplar gate FAILED: capacity p99 exemplar "
                             "not found in the flushed trace\n");
        telemetry_rc = 1;
      } else {
        std::printf("exemplar note: p99 exemplar spans evicted from the "
                    "ring (full-length run)\n");
      }
    }
  }

  const PhaseResult& capacity = phases[0];
  const bool slo_ok =
      capacity.stats.total_us.p99_us <= args.slo_ms * 1e3;
  const double per_core =
      capacity.elapsed_s > 0
          ? capacity.requests / capacity.elapsed_s / threads
          : 0.0;
  const double per_core_at_slo = slo_ok ? per_core : 0.0;

  for (const PhaseResult& phase : phases) {
    std::printf("%-16s %6zu req in %6.3fs  p50=%7.1fus p99=%7.1fus "
                "p999=%7.1fus shed=%4.1f%% degraded=%4.1f%% hit=%4.1f%%\n",
                phase.phase.c_str(), phase.requests, phase.elapsed_s,
                phase.stats.total_us.p50_us, phase.stats.total_us.p99_us,
                phase.stats.total_us.p999_us, 100.0 * phase.shed_rate(),
                100.0 * phase.degraded_rate(),
                100.0 * phase.stats.cache_hit_rate());
  }
  std::printf("capacity: %.0f users/sec/core (%zu threads), p99 %s the "
              "%.1fms SLO\n",
              per_core, threads, slo_ok ? "meets" : "MISSES", args.slo_ms);

  std::string json;
  json += "{\n";
  json += "  \"schema\": \"" + std::string(obs::kServingBenchSchema) +
          "\",\n";
  json += "  \"build\": " + bench::BuildFlavorJson() + ",\n";
  json += StrFormat(
      "  \"config\": {\"users\": %zu, \"items\": %zu, \"dim\": %zu, "
      "\"k\": %zu, \"cache\": %zu, \"threads\": %zu, \"requests\": %zu, "
      "\"slo_ms\": %.2f, \"zipf\": %.2f, \"seed\": %llu},\n",
      args.users, args.items, args.dim, args.k, args.cache, threads,
      args.requests, args.slo_ms, args.zipf,
      static_cast<unsigned long long>(args.seed));
  json += "  \"phases\": [\n";
  for (size_t i = 0; i < phases.size(); ++i) {
    json += PhaseJson(phases[i]);
    json += i + 1 < phases.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += StrFormat(
      "  \"summary\": {\"per_core_users_per_sec_at_slo\": %.1f, "
      "\"slo_ok\": %s, \"capacity_p99_us\": %.1f, "
      "\"saturation_shed_rate\": %.4f, "
      "\"capacity_cache_hit_rate\": %.4f}\n",
      per_core_at_slo, slo_ok ? "true" : "false",
      capacity.stats.total_us.p99_us, phases.back().shed_rate(),
      capacity.stats.cache_hit_rate());
  json += "}\n";

  if (Status st = WriteFileAtomic(args.json_path, json); !st.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", args.json_path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("[json written to %s]\n", args.json_path.c_str());
  return telemetry_rc;
}

}  // namespace
}  // namespace dtrec

int main(int argc, char** argv) { return dtrec::Main(argc, argv); }
