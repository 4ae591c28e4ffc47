// Serving load generator: sweeps the worker-pool size over a coat-like
// model and reports QPS + tail latency per thread count, plus cache and
// degraded-fallback rates. The hot path measured is the full request
// path: registry acquire → score-cache lookup → pruned top-K sweep.
//
//   bench_serving_throughput [key=value ...]
//
// keys (defaults): threads=1,4,8  requests=20000  k=10  dim=16
//                  cache=1024  deadline_ms=-1  users=290  items=300
//                  unique_users=0 (0 → all users; smaller → hotter cache)
//                  trace-out= profile-out= (arm request tracing / attach
//                  the SIGPROF profiler for the whole sweep and write the
//                  artifacts — this is the DESIGN.md §5k overhead
//                  protocol: fixed-load QPS here is far less noisy than
//                  the replay's SLO capacity search)
//
// The bench keeps ServerConfig::max_queue at its unbounded default so
// every request is admitted and the numbers measure the scoring path,
// not the load shedder; a bounded run (max_queue > 0) sheds overflow to
// the inline popularity slate and reports it as shed= in the stats line,
// which deflates tail latency rather than measuring it.
//
// Writes bench_results/serving_throughput.csv.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "util/atomic_file.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "synth/coat_like.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace dtrec {
namespace {

struct Args {
  std::vector<size_t> threads = {1, 4, 8};
  size_t requests = 20000;
  size_t k = 10;
  size_t dim = 16;
  size_t cache = 1024;
  double deadline_ms = -1.0;
  size_t users = 290;  // coat shape
  size_t items = 300;
  size_t unique_users = 0;
  uint64_t seed = 42;
  std::string trace_out;
  std::string profile_out;
};

Args Parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "usage: %s [key=value ...]\n", argv[0]);
      std::exit(2);
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "threads") {
      args.threads.clear();
      for (const std::string& part : Split(value, ',')) {
        args.threads.push_back(bench::CountArg(key, part));
      }
    } else if (key == "requests") {
      args.requests = bench::CountArg(key, value);
    } else if (key == "k") {
      args.k = bench::CountArg(key, value);
    } else if (key == "dim") {
      args.dim = bench::PositiveCountArg(key, value);
    } else if (key == "cache") {
      args.cache = bench::CountArg(key, value);
    } else if (key == "deadline_ms") {
      args.deadline_ms = bench::RealArg(key, value);
    } else if (key == "users") {
      args.users = bench::PositiveCountArg(key, value);
    } else if (key == "items") {
      args.items = bench::PositiveCountArg(key, value);
    } else if (key == "unique_users") {
      args.unique_users = bench::CountArg(key, value);
    } else if (key == "seed") {
      args.seed = bench::CountArg(key, value);
    } else if (key == "trace-out") {
      args.trace_out = value;
    } else if (key == "profile-out") {
      args.profile_out = value;
    } else {
      std::fprintf(stderr, "unknown key '%s'\n", key.c_str());
      std::exit(2);
    }
  }
  return args;
}

/// Coat-shaped serving model: random factors at the coat-like scale with
/// the real generator's item popularity counts (so the degraded fallback
/// ranking is realistic). Random factors score identically in cost to
/// trained ones; throughput does not care about AUC.
serve::ServingModel MakeModel(const Args& args) {
  Rng rng(args.seed);
  const SimulatedData world = MakeCoatLike(args.seed);
  const std::vector<size_t> counts = world.dataset.ItemCounts();
  std::vector<double> popularity(args.items, 0.0);
  for (size_t i = 0; i < args.items && i < counts.size(); ++i) {
    popularity[i] = static_cast<double>(counts[i]);
  }
  auto model = serve::ServingModel::FromFactors(
      Matrix::RandomNormal(args.users, args.dim, 0.1, &rng),
      Matrix::RandomNormal(args.items, args.dim, 0.1, &rng), Matrix(),
      Matrix(), std::move(popularity));
  DTREC_CHECK(model.ok()) << model.status();
  return std::move(model).value();
}

struct SweepPoint {
  size_t threads = 0;
  double qps = 0.0;
  serve::ServerStats stats;
};

SweepPoint RunSweep(const serve::ModelRegistry& registry, const Args& args,
                    size_t threads) {
  serve::ServerConfig config;
  config.num_threads = threads;
  config.default_k = args.k;
  config.default_deadline_ms = args.deadline_ms;
  config.cache.capacity = args.cache;
  serve::RecommendServer server(&registry, config);

  const size_t user_pool =
      args.unique_users > 0 ? std::min(args.unique_users, args.users)
                            : args.users;
  Rng traffic(args.seed + threads);

  // Warm-up (not measured): JIT-free C++, but first touches fault pages
  // in and the cache starts cold.
  for (size_t r = 0; r < std::min<size_t>(args.requests / 10, 500); ++r) {
    server.Recommend({.user = traffic.UniformIndex(user_pool)});
  }
  server.ResetStats();

  const Stopwatch watch;
  std::vector<std::future<serve::Recommendation>> futures;
  futures.reserve(args.requests);
  for (size_t r = 0; r < args.requests; ++r) {
    futures.push_back(
        server.Submit({.user = traffic.UniformIndex(user_pool)}));
  }
  for (auto& future : futures) future.get();
  const double elapsed = watch.ElapsedSeconds();

  SweepPoint point;
  point.threads = threads;
  point.qps = args.requests / elapsed;
  point.stats = server.Snapshot();
  return point;
}

int Main(int argc, char** argv) {
  const Args args = Parse(argc, argv);
  serve::ModelRegistry registry;
  registry.Publish(MakeModel(args));

  // Diagnosis-layer attach (the §5k overhead protocol runs this bench
  // with and without these keys and compares fixed-load QPS).
  if (!args.trace_out.empty()) obs::EnableTracing();
  bool profiling = false;
  if (!args.profile_out.empty()) {
    obs::ProfilerOptions prof_options;
    prof_options.interval_us = 2000;  // match the replay's attach
    if (const Status st = obs::StartProfiler(prof_options); st.ok()) {
      profiling = true;
    } else {
      std::printf("profiler not attached: %s\n", st.ToString().c_str());
    }
  }

  TableWriter table(StrFormat(
      "serving throughput: %zu requests/point, %zux%zu model dim %zu, "
      "k=%zu, cache=%zu",
      args.requests, args.users, args.items, args.dim, args.k, args.cache));
  table.SetHeader({"threads", "qps", "score_p50_us", "score_p95_us",
                   "score_p99_us", "total_p50_us", "total_p95_us",
                   "total_p99_us", "cache_hit_pct", "degraded_pct"});

  double single_thread_qps = 0.0;
  for (size_t threads : args.threads) {
    const SweepPoint point = RunSweep(registry, args, threads);
    if (threads == 1) single_thread_qps = point.qps;
    std::printf("threads=%zu: %.0f QPS, total p99 %.0fus (%s)\n",
                point.threads, point.qps, point.stats.total_us.p99_us,
                point.stats.Summary().c_str());
    table.AddRow({StrFormat("%zu", point.threads),
                  FormatDouble(point.qps, 0),
                  FormatDouble(point.stats.score_us.p50_us, 1),
                  FormatDouble(point.stats.score_us.p95_us, 1),
                  FormatDouble(point.stats.score_us.p99_us, 1),
                  FormatDouble(point.stats.total_us.p50_us, 1),
                  FormatDouble(point.stats.total_us.p95_us, 1),
                  FormatDouble(point.stats.total_us.p99_us, 1),
                  FormatDouble(100.0 * point.stats.cache_hit_rate(), 1),
                  FormatDouble(100.0 * point.stats.degraded_rate(), 1)});
    if (threads > 1 && single_thread_qps > 0.0) {
      std::printf("  speedup vs 1 thread: %.2fx (hardware threads: %u)\n",
                  point.qps / single_thread_qps,
                  std::thread::hardware_concurrency());
    }
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
    std::printf("profile: %llu samples, %zu distinct stacks -> %s\n",
                static_cast<unsigned long long>(report.samples),
                report.stacks.size(), args.profile_out.c_str());
  }
  if (!args.trace_out.empty()) {
    obs::DisableTracing();
    if (const Status st = obs::WriteTraceJson(args.trace_out); !st.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", args.trace_out.c_str(),
                   st.ToString().c_str());
      return 1;
    }
    std::printf("trace -> %s\n", args.trace_out.c_str());
  }

  table.RenderConsole(std::cout);
  std::printf("\n");
  (void)std::system("mkdir -p bench_results");
  const Status st = table.WriteCsvFile("bench_results/serving_throughput.csv");
  if (st.ok()) {
    std::printf("[csv written to bench_results/serving_throughput.csv]\n");
  } else {
    std::fprintf(stderr, "[csv write failed: %s]\n", st.ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace dtrec

int main(int argc, char** argv) { return dtrec::Main(argc, argv); }
