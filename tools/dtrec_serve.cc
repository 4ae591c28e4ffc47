// dtrec_serve: stand up the serving subsystem end to end — train a DT-DR
// model on a coat-like world (or hot-load an existing checkpoint), publish
// it to a ModelRegistry, fan synthetic RecommendRequests across the worker
// pool, optionally hot-swap a retrained checkpoint mid-stream, and print
// the ServerStats latency/counter table.
//
//   dtrec_serve [key=value ...]
//
// keys:
//   requests=2000     number of synthetic requests to serve
//   threads=4         worker pool size
//   k=10              slate size
//   deadline_ms=50    per-request deadline (0 = degrade everything, -1 = off)
//   cache=1024        score-cache capacity in users (0 disables)
//   swap_mid_run=1    retrain + hot-swap a second checkpoint halfway
//   epochs=10 dim=16 seed=42   training knobs
//   ckpt=<path>       checkpoint to load instead of training from scratch
//                     (shape must match dim=; written there after training
//                     otherwise)
//   stats_every_s=0   period of the background stats-dump log line
//                     (0 disables the dump thread)
//   max_queue=0       worker-queue bound; excess requests shed (0 = off)
//   admit_rate=0      admission token-bucket rate per second (0 = off)
//   admit_burst=0     admission token-bucket burst capacity
//   admit_depth=0     admission queue-depth shed threshold (0 = off)
//   metrics_format=json   --metrics-out format: json | text | prometheus
//
// Any other key, a numeric value that is not one finite number, or a
// negative count exits 2 before any training, naming the key.
//
// flags (telemetry, see src/obs/):
//   --metrics-out <path>   dump the metrics registry on exit (format per
//                          metrics_format=; prometheus is the text
//                          exposition a scraper ingests directly)
//   --trace-out <path>     arm DTREC_TRACE_SPAN recording and write a
//                          Chrome trace_event JSON on exit
//   --profile-out <path>   attach the SIGPROF sampling profiler for the
//                          serve loop; collapsed stacks land at <path>,
//                          the dtrec-profile-v1 JSON at <path>.json
//   --alerts-out <path>    run the telemetry watchdog during the serve
//                          loop, streaming dtrec-alerts-v1 JSONL
//   --watch-rules <path>   watchdog rules file (obs/watchdog.h grammar);
//                          default: shed-rate spike, propensity-clip
//                          drift

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/dt_dr.h"
#include "data/rating_dataset.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "synth/coat_like.h"
#include "util/atomic_file.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace dtrec {
namespace {

using serve::DisentangledShape;
using serve::ModelRegistry;
using serve::Recommendation;
using serve::RecommendRequest;
using serve::RecommendServer;
using serve::ServerConfig;
using serve::ServerStats;

using ArgMap = std::map<std::string, std::string>;

const std::map<std::string, ArgKind>& KnownArgs() {
  static const std::map<std::string, ArgKind> known = {
      {"requests", ArgKind::kCount},     {"threads", ArgKind::kCount},
      {"k", ArgKind::kCount},            {"deadline_ms", ArgKind::kReal},
      {"cache", ArgKind::kCount},        {"swap_mid_run", ArgKind::kCount},
      {"epochs", ArgKind::kCount},       {"dim", ArgKind::kCount},
      {"seed", ArgKind::kCount},         {"ckpt", ArgKind::kText},
      {"stats_every_s", ArgKind::kReal}, {"max_queue", ArgKind::kCount},
      {"admit_rate", ArgKind::kReal},    {"admit_burst", ArgKind::kReal},
      {"admit_depth", ArgKind::kCount},  {"metrics_format", ArgKind::kText},
  };
  return known;
}

/// Checks every key=value before any work, so a typo or a value the tool
/// would misread fails loudly instead of running with a default (or
/// casting a negative double to size_t). Prints the offending key.
bool ValidateArgs(const ArgMap& args) {
  for (const auto& [key, value] : args) {
    const auto known = KnownArgs().find(key);
    if (known == KnownArgs().end()) {
      std::fprintf(stderr, "error: unknown key '%s'\n", key.c_str());
      return false;
    }
    if (const Status st = CheckArg(key, value, known->second); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return false;
    }
  }
  return true;
}

double GetNum(const ArgMap& args, const std::string& key, double fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback
                          : std::strtod(it->second.c_str(), nullptr);
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Trains DT-DR on `dataset` and checkpoints it to `path`.
Status TrainAndCheckpoint(const RatingDataset& dataset,
                          const TrainConfig& config,
                          const std::string& path) {
  DtDrTrainer trainer(config);
  DTREC_RETURN_IF_ERROR(trainer.Fit(dataset));
  return SaveDisentangledEmbeddings(trainer.embeddings(), path);
}

void AddStageRow(TableWriter* table, const std::string& stage,
                 const serve::LatencyHistogram::Summary& s) {
  table->AddRow({stage, StrFormat("%llu", (unsigned long long)s.count),
                 FormatDouble(s.mean_us, 1), FormatDouble(s.p50_us, 1),
                 FormatDouble(s.p95_us, 1), FormatDouble(s.p99_us, 1),
                 FormatDouble(s.max_us, 1)});
}

/// Default watchdog rules for the serve loop: the overload symptom (shed
/// spike) plus the paper's propensity-clip drift, evaluated over
/// half-second windows.
constexpr const char* kDefaultServeWatchRules =
    "shed_spike: rate:serve.rung_shed/serve.requests, 0.5, 0.25, above\n"
    "clip_drift: drift:rate:propensity.clip.fired/propensity.clip.total, "
    "0.5, 0.05, above\n";

int Main(int argc, char** argv) {
  ArgMap args;
  std::string metrics_out, trace_out, profile_out, alerts_out, watch_rules;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Telemetry flags first; everything else must be key=value.
    auto take_value = [&](const std::string& name,
                          std::string* value) -> bool {
      if (arg == name && i + 1 < argc) {
        *value = argv[++i];
        return true;
      }
      if (arg.rfind(name + "=", 0) == 0) {
        *value = arg.substr(name.size() + 1);
        return true;
      }
      return false;
    };
    if (take_value("--metrics-out", &metrics_out) ||
        take_value("--trace-out", &trace_out) ||
        take_value("--profile-out", &profile_out) ||
        take_value("--alerts-out", &alerts_out) ||
        take_value("--watch-rules", &watch_rules)) {
      continue;
    }
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr,
                   "usage: %s [--metrics-out <path>] [--trace-out <path>] "
                   "[--profile-out <path>] [--alerts-out <path>] "
                   "[--watch-rules <path>] [key=value ...]\n",
                   argv[0]);
      return 2;
    }
    args[arg.substr(0, eq)] = arg.substr(eq + 1);
  }
  if (!trace_out.empty()) obs::EnableTracing();
  const std::string metrics_format =
      args.count("metrics_format") ? args.at("metrics_format") : "json";
  if (metrics_format != "json" && metrics_format != "text" &&
      metrics_format != "prometheus") {
    std::fprintf(stderr,
                 "error: metrics_format must be json, text or prometheus "
                 "(got \"%s\")\n",
                 metrics_format.c_str());
    return 2;
  }
  args.erase("metrics_format");
  if (!ValidateArgs(args)) return 2;

  const size_t requests = static_cast<size_t>(GetNum(args, "requests", 2000));
  const size_t threads = static_cast<size_t>(GetNum(args, "threads", 4));
  const size_t k = static_cast<size_t>(GetNum(args, "k", 10));
  const double deadline_ms = GetNum(args, "deadline_ms", 50.0);
  const size_t cache = static_cast<size_t>(GetNum(args, "cache", 1024));
  const bool swap_mid_run = GetNum(args, "swap_mid_run", 1) != 0;
  const uint64_t seed = static_cast<uint64_t>(GetNum(args, "seed", 42));

  TrainConfig config;
  config.epochs = static_cast<size_t>(GetNum(args, "epochs", 10));
  config.embedding_dim = static_cast<size_t>(GetNum(args, "dim", 16));
  config.seed = seed;

  // --- train or load ---------------------------------------------------
  const SimulatedData world = MakeCoatLike(seed);
  const RatingDataset& dataset = world.dataset;
  std::string ckpt = args.count("ckpt") ? args.at("ckpt")
                                        : "/tmp/dtrec_serve_dtdr.ckpt";
  if (!args.count("ckpt")) {
    std::printf("training DT-DR on %s ...\n",
                dataset.DebugString().c_str());
    const Stopwatch train_watch;
    if (Status st = TrainAndCheckpoint(dataset, config, ckpt); !st.ok()) {
      return Fail(st);
    }
    std::printf("trained + checkpointed in %.1fs -> %s\n",
                train_watch.ElapsedSeconds(), ckpt.c_str());
  }

  // --- publish ---------------------------------------------------------
  ModelRegistry registry;
  DisentangledShape shape;
  shape.num_users = dataset.num_users();
  shape.num_items = dataset.num_items();
  shape.total_dim = config.embedding_dim;
  const std::vector<size_t> item_counts = dataset.ItemCounts();
  std::vector<double> popularity(item_counts.begin(), item_counts.end());
  if (Status st = registry.PublishDisentangledCheckpoint(ckpt, shape,
                                                         popularity);
      !st.ok()) {
    return Fail(st);
  }
  std::printf("published generation %llu (%zu users x %zu items, dim %zu)\n",
              (unsigned long long)registry.generation(), shape.num_users,
              shape.num_items, (3 * shape.total_dim) / 4);

  // --- serve -----------------------------------------------------------
  ServerConfig server_config;
  server_config.num_threads = threads;
  server_config.default_k = k;
  server_config.default_deadline_ms = deadline_ms;
  server_config.cache.capacity = cache;
  server_config.stats_dump_period_s = GetNum(args, "stats_every_s", 0.0);
  // Overload-resilience knobs (all default off — an unconfigured run
  // admits everything): bounded worker queue, token-bucket admission
  // rate, and admission queue-depth cap. Excess traffic is shed with an
  // empty slate instead of queueing without bound.
  server_config.max_queue =
      static_cast<size_t>(GetNum(args, "max_queue", 0));
  server_config.admission.rate_per_s = GetNum(args, "admit_rate", 0.0);
  server_config.admission.burst = GetNum(args, "admit_burst", 0.0);
  server_config.admission.max_queue_depth =
      static_cast<size_t>(GetNum(args, "admit_depth", 0));
  RecommendServer server(&registry, server_config);

  bool profiling = false;
  if (!profile_out.empty()) {
    if (Status st = obs::StartProfiler(); st.ok()) {
      profiling = true;
    } else {
      std::fprintf(stderr, "profiler not attached: %s\n",
                   st.ToString().c_str());
    }
  }
  std::unique_ptr<obs::Watchdog> watchdog;
  if (!alerts_out.empty() || !watch_rules.empty()) {
    std::string rules_text = kDefaultServeWatchRules;
    if (!watch_rules.empty()) {
      if (Status st = ReadFile(watch_rules, &rules_text); !st.ok()) {
        return Fail(st);
      }
    }
    std::vector<obs::WatchRule> rules;
    if (Status st = obs::ParseWatchdogRules(rules_text, &rules); !st.ok()) {
      return Fail(st);
    }
    obs::Watchdog::Options watch_options;
    watch_options.alerts_path = alerts_out;
    watchdog = std::make_unique<obs::Watchdog>(&obs::GlobalMetrics(),
                                               std::move(rules),
                                               watch_options);
    watchdog->SetContext("serve");
    watchdog->Poll();  // prime the windows before traffic starts
    if (Status st = watchdog->Start(0.5); !st.ok()) return Fail(st);
  }

  std::printf("serving %zu requests on %zu threads (k=%zu, deadline=%gms, "
              "cache=%zu users)...\n",
              requests, threads, k, deadline_ms, cache);
  Rng traffic_rng(seed + 1);
  const Stopwatch serve_watch;
  std::vector<std::future<Recommendation>> futures;
  futures.reserve(requests);
  for (size_t r = 0; r < requests; ++r) {
    if (swap_mid_run && r == requests / 2) {
      // Hot reload: retrain with a fresh seed and republish. In-flight
      // requests keep their pinned model; later ones pick up gen 2.
      TrainConfig retrain = config;
      retrain.seed = seed + 7;
      retrain.epochs = std::max<size_t>(config.epochs / 2, 1);
      if (Status st = TrainAndCheckpoint(dataset, retrain, ckpt); !st.ok()) {
        return Fail(st);
      }
      if (Status st = registry.PublishDisentangledCheckpoint(ckpt, shape,
                                                             popularity);
          !st.ok()) {
        return Fail(st);
      }
      std::printf("hot-swapped to generation %llu at request %zu\n",
                  (unsigned long long)registry.generation(), r);
    }
    futures.push_back(
        server.Submit({.user = traffic_rng.UniformIndex(shape.num_users)}));
  }
  size_t served = 0, shed = 0, torn = 0;
  for (auto& future : futures) {
    const Recommendation rec = future.get();
    if (rec.shed()) {
      ++shed;  // refused by admission/queue: empty slate is the contract
    } else if (rec.items.empty()) {
      ++torn;  // a non-shed response must always carry a slate
    } else {
      ++served;
    }
  }
  const double elapsed = serve_watch.ElapsedSeconds();
  const double qps = requests / elapsed;

  if (watchdog != nullptr) {
    watchdog->ForceEvaluate();
    watchdog->Stop();
    std::printf("watchdog: %zu alert(s) -> %s\n", watchdog->fired_count(),
                alerts_out.empty() ? "(memory only)" : alerts_out.c_str());
  }
  if (profiling) {
    if (Status st = obs::StopProfiler(); !st.ok()) {
      std::fprintf(stderr, "profiler stop: %s\n", st.ToString().c_str());
    }
    const obs::ProfileReport report = obs::CollectProfile();
    if (Status st = WriteFileAtomic(profile_out,
                                    obs::CollapsedStacks(report));
        !st.ok()) {
      return Fail(st);
    }
    if (Status st = WriteFileAtomic(profile_out + ".json",
                                    obs::ProfileJson(report));
        !st.ok()) {
      return Fail(st);
    }
    std::printf("profile: %llu samples, %zu stacks -> %s\n",
                static_cast<unsigned long long>(report.samples),
                report.stacks.size(), profile_out.c_str());
  }

  // --- report ----------------------------------------------------------
  const ServerStats stats = server.Snapshot();
  TableWriter table(StrFormat("dtrec_serve: %zu requests, %zu threads, "
                              "%.0f QPS",
                              requests, threads, qps));
  table.SetHeader({"stage", "count", "mean_us", "p50_us", "p95_us",
                   "p99_us", "max_us"});
  AddStageRow(&table, "queue", stats.queue_us);
  AddStageRow(&table, "score", stats.score_us);
  AddStageRow(&table, "total", stats.total_us);
  table.RenderConsole(std::cout);
  std::printf("\n%s\n", stats.Summary().c_str());

  if (!trace_out.empty()) {
    if (Status st = obs::WriteTraceJson(trace_out); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote trace -> %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::PublishPropensityClipStats(&obs::GlobalMetrics());
    std::string dump;
    if (metrics_format == "prometheus") {
      dump = obs::GlobalMetrics().DumpPrometheus();
    } else if (metrics_format == "text") {
      dump = obs::GlobalMetrics().DumpText();
    } else {
      dump = obs::GlobalMetrics().DumpJson();
    }
    if (Status st = WriteFileAtomic(metrics_out, dump); !st.ok()) {
      return Fail(st);
    }
    std::printf("wrote metrics (%s) -> %s\n", metrics_format.c_str(),
                metrics_out.c_str());
  }

  if (shed > 0) {
    std::printf("shed %zu/%zu requests (served %zu)\n", shed, requests,
                served);
  }
  if (torn > 0) {
    std::fprintf(stderr, "%zu/%zu non-shed responses had empty slates\n",
                 torn, requests);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dtrec

int main(int argc, char** argv) { return dtrec::Main(argc, argv); }
