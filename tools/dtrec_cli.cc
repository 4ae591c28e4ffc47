// dtrec command-line tool: generate datasets, diagnose selection bias,
// train/evaluate any registered method, and compare methods — without
// writing C++.
//
//   dtrec_cli generate <coat|yahoo|kuairec|ml100k> <prefix> [key=value...]
//   dtrec_cli diagnose <prefix>
//   dtrec_cli train <method> <prefix> [--resume <dir>]
//                   [--checkpoint-every <n>] [--metrics-out <path>]
//                   [--trace-out <path>] [--events-out <path>]
//                   [--profile-out <path>] [--alerts-out <path>]
//                   [--watch-rules <path>] [key=value...]
//   dtrec_cli compare <prefix> <method1,method2,...> [key=value...]
//   dtrec_cli validate [--trace <path>] [--events <path>]
//                      [--metrics <path>] [--serving-bench <path>]
//                      [--alerts <path>] [--profile <path>]
//                      [--require-spans <csv>] [--require-losses <csv>]
//                      [--require-alerts <csv>]
//   dtrec_cli bench-diff <old.json> <new.json> [--threshold <pct>]
//   dtrec_cli methods
//
// Recognized key=value pairs: seed, scale, epochs, dim, batch_size, lr,
// k, seeds (compare only).
//
// Telemetry (see src/obs/): `--trace-out` arms DTREC_TRACE_SPAN recording
// and writes a Chrome trace_event JSON loadable in chrome://tracing or
// Perfetto; `--events-out` streams one dtrec-train-events-v1 JSONL record
// per epoch; `--metrics-out` dumps the global metrics registry as JSON.
// `--profile-out` attaches the SIGPROF sampling profiler across Fit() and
// writes collapsed stacks there plus a dtrec-profile-v1 JSON at
// <path>.json. `--alerts-out` runs the telemetry watchdog during training
// and streams dtrec-alerts-v1 JSONL; rules come from `--watch-rules
// <path>` (see obs/watchdog.h for the grammar) or default to a
// propensity-clip-rate drift rule — the paper's failure mode surfacing as
// an alert, not a post-hoc diff. `validate` structurally checks artifacts
// produced by those flags and exits nonzero if any file is malformed or
// misses a required span/loss/alert. `bench-diff` compares two bench
// JSONs of the same schema row by row and exits nonzero when any metric
// regresses past the threshold (default 25%).
//
// `--resume <dir>` makes training crash-safe: a checkpoint is committed
// atomically into <dir> every `--checkpoint-every` epochs (default 1),
// and an existing checkpoint there is picked up and continued, so the
// same command line recovers from a kill. A run interrupted by an armed
// failpoint (DTREC_FAILPOINTS env) exits with code 3 — distinct from
// usage errors (2) and ordinary failures (1) — so crash-recovery
// harnesses can tell "re-run me" from "give up".

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "data/io.h"
#include "diagnostics/mnar_diagnostics.h"
#include "experiments/config.h"
#include "experiments/evaluator.h"
#include "experiments/runner.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/telemetry_validate.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "synth/coat_like.h"
#include "synth/kuairec_like.h"
#include "synth/movielens_like.h"
#include "synth/yahoo_like.h"
#include "util/atomic_file.h"
#include "util/failpoint.h"
#include "util/string_util.h"

namespace dtrec {
namespace {

using ArgMap = std::map<std::string, std::string>;

/// Exit code for a training run killed mid-flight by an armed failpoint.
/// Restarting the identical command resumes from the last checkpoint.
constexpr int kExitInterrupted = 3;

/// Pulls `--resume <dir>` / `--resume=<dir>` and `--checkpoint-every <n>`
/// out of argv (consuming their values) before key=value parsing; the
/// flags return empty/default when absent.
struct TrainFlags {
  std::string resume_dir;
  size_t checkpoint_every = 1;
  std::string metrics_out;  ///< metrics-registry JSON dump path
  std::string trace_out;    ///< Chrome trace_event JSON path (arms tracing)
  std::string events_out;   ///< per-epoch JSONL event stream path
  std::string profile_out;  ///< collapsed-stack path (+ <path>.json report)
  std::string alerts_out;   ///< dtrec-alerts-v1 JSONL path (arms watchdog)
  std::string watch_rules;  ///< watchdog rules file; "" → default rules
};

/// Watchdog rules used by `train --alerts-out` when no --watch-rules file
/// is given: the propensity-clip rate drifting away from its own trailing
/// baseline is the propensity-identification failure mode showing up live.
constexpr const char* kDefaultTrainWatchRules =
    "clip_drift: drift:rate:propensity.clip.fired/propensity.clip.total, "
    "0.5, 0.05, above\n";

TrainFlags ExtractTrainFlags(int* argc, char** argv, int start) {
  TrainFlags flags;
  int out = start;
  for (int i = start; i < *argc; ++i) {
    const std::string arg = argv[i];
    auto take_value = [&](const std::string& name,
                          std::string* value) -> bool {
      if (arg == name && i + 1 < *argc) {
        *value = argv[++i];
        return true;
      }
      if (arg.rfind(name + "=", 0) == 0) {
        *value = arg.substr(name.size() + 1);
        return true;
      }
      return false;
    };
    std::string value;
    if (take_value("--resume", &value)) {
      flags.resume_dir = value;
    } else if (take_value("--checkpoint-every", &value)) {
      flags.checkpoint_every =
          std::max<size_t>(1, static_cast<size_t>(
                                  std::strtoull(value.c_str(), nullptr, 10)));
    } else if (take_value("--metrics-out", &value)) {
      flags.metrics_out = value;
    } else if (take_value("--trace-out", &value)) {
      flags.trace_out = value;
    } else if (take_value("--events-out", &value)) {
      flags.events_out = value;
    } else if (take_value("--profile-out", &value)) {
      flags.profile_out = value;
    } else if (take_value("--alerts-out", &value)) {
      flags.alerts_out = value;
    } else if (take_value("--watch-rules", &value)) {
      flags.watch_rules = value;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return flags;
}

/// Keys a subcommand reads, each with how its value is read (CheckArg).
using KnownArgs = std::map<std::string, ArgKind>;

/// Parses argv[start..) as key=value pairs into `args`, checking each
/// against `known` before any work. An unknown key or a value CheckArg
/// rejects prints the offending key and returns false; the caller exits 2.
bool ParseKeyValues(int argc, char** argv, int start, const KnownArgs& known,
                    ArgMap* args) {
  for (int i = start; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "ignoring malformed argument '%s'\n",
                   arg.c_str());
      continue;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    const auto kind = known.find(key);
    if (kind == known.end()) {
      std::fprintf(stderr, "error: unknown key '%s'\n", key.c_str());
      return false;
    }
    if (const Status st = CheckArg(key, value, kind->second); !st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return false;
    }
    (*args)[key] = value;
  }
  return true;
}

/// The keys ConfigFromArgs reads, plus the ranking cutoff `k`.
KnownArgs TrainArgs() {
  return {{"epochs", ArgKind::kCount},    {"dim", ArgKind::kCount},
          {"batch_size", ArgKind::kCount}, {"lr", ArgKind::kReal},
          {"seed", ArgKind::kCount},      {"k", ArgKind::kCount}};
}

double GetNum(const ArgMap& args, const std::string& key,
              double fallback) {
  auto it = args.find(key);
  return it == args.end() ? fallback : std::strtod(it->second.c_str(),
                                                   nullptr);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dtrec_cli generate <coat|yahoo|kuairec|ml100k> <prefix> [k=v...]\n"
      "  dtrec_cli diagnose <prefix>\n"
      "  dtrec_cli train <method> <prefix> [--resume <dir>]\n"
      "            [--checkpoint-every <n>] [--metrics-out <path>]\n"
      "            [--trace-out <path>] [--events-out <path>]\n"
      "            [--profile-out <path>] [--alerts-out <path>]\n"
      "            [--watch-rules <path>] [k=v...]\n"
      "  dtrec_cli compare <prefix> <m1,m2,...> [k=v...]\n"
      "  dtrec_cli validate [--trace <path>] [--events <path>]\n"
      "            [--metrics <path>] [--serving-bench <path>]\n"
      "            [--alerts <path>] [--profile <path>]\n"
      "            [--require-spans <csv>] [--require-losses <csv>]\n"
      "            [--require-alerts <csv>]\n"
      "  dtrec_cli bench-diff <old.json> <new.json> [--threshold <pct>]\n"
      "  dtrec_cli methods\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

TrainConfig ConfigFromArgs(const ArgMap& args) {
  TrainConfig config;
  config.epochs = static_cast<size_t>(GetNum(args, "epochs", 20));
  config.embedding_dim = static_cast<size_t>(GetNum(args, "dim", 8));
  config.batch_size = static_cast<size_t>(GetNum(args, "batch_size", 2048));
  config.learning_rate = GetNum(args, "lr", 0.05);
  config.seed = static_cast<uint64_t>(GetNum(args, "seed", 123));
  return config;
}

int RunGenerate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string kind = argv[2];
  const std::string prefix = argv[3];
  ArgMap args;
  if (!ParseKeyValues(argc, argv, 4,
                      {{"seed", ArgKind::kCount},
                       {"scale", ArgKind::kReal},
                       {"rho", ArgKind::kReal},
                       {"epsilon", ArgKind::kReal}},
                      &args)) {
    return 2;
  }
  const uint64_t seed = static_cast<uint64_t>(GetNum(args, "seed", 42));
  const double scale = GetNum(args, "scale", 0.1);

  RatingDataset dataset;
  if (kind == "coat") {
    dataset = MakeCoatLike(seed).dataset;
  } else if (kind == "yahoo") {
    dataset = MakeYahooLike(seed, scale).dataset;
  } else if (kind == "kuairec") {
    dataset = MakeKuaiRecLike(seed, scale).dataset;
  } else if (kind == "ml100k") {
    SemiSyntheticConfig config;
    config.seed = seed;
    config.rho = GetNum(args, "rho", 1.0);
    config.epsilon = GetNum(args, "epsilon", 0.3);
    dataset = MovieLensLikeGenerator(config).Generate().dataset;
  } else {
    std::fprintf(stderr, "unknown dataset kind '%s'\n", kind.c_str());
    return 2;
  }
  const Status st = SaveDataset(dataset, prefix);
  if (!st.ok()) return Fail(st);
  std::printf("wrote %s.{meta,train.csv,test.csv}: %s\n", prefix.c_str(),
              dataset.DebugString().c_str());
  return 0;
}

int RunDiagnose(int argc, char** argv) {
  if (argc < 3) return Usage();
  auto dataset = LoadDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  auto diagnosis = DiagnoseSelectionBias(dataset.value());
  if (!diagnosis.ok()) return Fail(diagnosis.status());
  std::printf("%s\n", diagnosis.value().Summary().c_str());
  std::printf("density %.4f, %s\n", dataset.value().TrainDensity(),
              dataset.value().DebugString().c_str());
  return 0;
}

int RunTrain(int argc, char** argv) {
  const TrainFlags flags = ExtractTrainFlags(&argc, argv, 2);
  if (argc < 4) return Usage();
  const std::string method = argv[2];
  ArgMap args;
  if (!ParseKeyValues(argc, argv, 4, TrainArgs(), &args)) return 2;
  auto dataset = LoadDataset(argv[3]);
  if (!dataset.ok()) return Fail(dataset.status());
  const size_t k = static_cast<size_t>(GetNum(args, "k", 5));

  auto trainer_or =
      MakeTrainer(method, TuneForMethod(method, ConfigFromArgs(args)));
  if (!trainer_or.ok()) return Fail(trainer_or.status());
  auto trainer = std::move(trainer_or).value();

  FitOptions options;
  options.checkpoint_dir = flags.resume_dir;
  options.checkpoint_every = flags.checkpoint_every;
  options.resume = !flags.resume_dir.empty();
  options.events_path = flags.events_out;
  if (!flags.trace_out.empty()) obs::EnableTracing();

  bool profiling = false;
  if (!flags.profile_out.empty()) {
    if (const Status st = obs::StartProfiler(); st.ok()) {
      profiling = true;
    } else {
      std::fprintf(stderr, "profiler not attached: %s\n",
                   st.ToString().c_str());
    }
  }

  std::unique_ptr<obs::Watchdog> watchdog;
  if (!flags.alerts_out.empty() || !flags.watch_rules.empty()) {
    std::string rules_text = kDefaultTrainWatchRules;
    if (!flags.watch_rules.empty()) {
      if (const Status st = ReadFile(flags.watch_rules, &rules_text);
          !st.ok()) {
        return Fail(st);
      }
    }
    std::vector<obs::WatchRule> rules;
    if (const Status st = obs::ParseWatchdogRules(rules_text, &rules);
        !st.ok()) {
      return Fail(st);
    }
    obs::Watchdog::Options watch_options;
    watch_options.alerts_path = flags.alerts_out;
    watchdog = std::make_unique<obs::Watchdog>(
        &obs::GlobalMetrics(), std::move(rules), watch_options);
    watchdog->Poll();  // prime the windows before the first epoch
    if (const Status st = watchdog->Start(0.5); !st.ok()) return Fail(st);
  }
  if (!flags.resume_dir.empty()) {
    // Best-effort two-level mkdir -p; an unwritable dir still surfaces
    // as a Status from the first checkpoint save.
    const size_t slash = flags.resume_dir.find_last_of('/');
    if (slash != std::string::npos && slash > 0) {
      ::mkdir(flags.resume_dir.substr(0, slash).c_str(), 0755);
    }
    ::mkdir(flags.resume_dir.c_str(), 0755);
  }
  Status st;
  try {
    st = trainer->Fit(dataset.value(), options);
  } catch (const failpoint::FailpointAbort& abort) {
    std::fprintf(stderr,
                 "interrupted: %s\nre-run the same command to resume from "
                 "%s\n",
                 abort.what(),
                 flags.resume_dir.empty() ? "scratch (no --resume dir)"
                                          : flags.resume_dir.c_str());
    return kExitInterrupted;
  }
  if (!st.ok()) return Fail(st);
  if (watchdog != nullptr) {
    // One deterministic final pass so a drift in the last epoch is not
    // lost to the periodic thread's timing, then stop the thread.
    watchdog->ForceEvaluate();
    watchdog->Stop();
    std::printf("watchdog: %zu alert(s)\n", watchdog->fired_count());
  }
  if (profiling) {
    if (const Status prof_st = obs::StopProfiler(); !prof_st.ok()) {
      std::fprintf(stderr, "profiler stop: %s\n",
                   prof_st.ToString().c_str());
    }
    const obs::ProfileReport report = obs::CollectProfile();
    if (const Status prof_st = WriteFileAtomic(
            flags.profile_out, obs::CollapsedStacks(report));
        !prof_st.ok()) {
      return Fail(prof_st);
    }
    if (const Status prof_st = WriteFileAtomic(flags.profile_out + ".json",
                                               obs::ProfileJson(report));
        !prof_st.ok()) {
      return Fail(prof_st);
    }
    std::printf("profile: %llu samples, %zu stacks -> %s\n",
                static_cast<unsigned long long>(report.samples),
                report.stacks.size(), flags.profile_out.c_str());
  }
  const RankingMetrics metrics =
      EvaluateRanking(*trainer, dataset.value(), k);
  std::printf("%s: AUC=%.4f NDCG@%zu=%.4f Recall@%zu=%.4f (%zu params)\n",
              method.c_str(), metrics.auc, k, metrics.ndcg_at_k, k,
              metrics.recall_at_k, trainer->NumParameters());
  if (!flags.trace_out.empty()) {
    const Status trace_st = obs::WriteTraceJson(flags.trace_out);
    if (!trace_st.ok()) return Fail(trace_st);
  }
  if (!flags.metrics_out.empty()) {
    obs::PublishPropensityClipStats(&obs::GlobalMetrics());
    const Status metrics_st =
        WriteFileAtomic(flags.metrics_out, obs::GlobalMetrics().DumpJson());
    if (!metrics_st.ok()) return Fail(metrics_st);
  }
  return 0;
}

/// `dtrec_cli validate`: structural check of the telemetry artifacts the
/// train command emits. Used by the CI telemetry smoke (tools/CMakeLists)
/// so a malformed trace/event stream fails the build, not a human reader.
int RunValidate(int argc, char** argv) {
  std::string trace_path, events_path, metrics_path, serving_bench_path;
  std::string alerts_path, profile_path;
  std::string require_spans, require_losses, require_alerts;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
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
    if (!take_value("--trace", &trace_path) &&
        !take_value("--events", &events_path) &&
        !take_value("--metrics", &metrics_path) &&
        !take_value("--serving-bench", &serving_bench_path) &&
        !take_value("--alerts", &alerts_path) &&
        !take_value("--profile", &profile_path) &&
        !take_value("--require-spans", &require_spans) &&
        !take_value("--require-losses", &require_losses) &&
        !take_value("--require-alerts", &require_alerts)) {
      std::fprintf(stderr, "validate: unknown argument '%s'\n", arg.c_str());
      return Usage();
    }
  }
  if (trace_path.empty() && events_path.empty() && metrics_path.empty() &&
      serving_bench_path.empty() && alerts_path.empty() &&
      profile_path.empty()) {
    std::fprintf(stderr, "validate: nothing to validate\n");
    return Usage();
  }

  auto check_required = [](const std::string& csv,
                           const std::set<std::string>& found,
                           const char* what) -> bool {
    bool ok = true;
    for (const std::string& name : Split(csv, ',')) {
      if (name.empty()) continue;
      if (found.count(name) == 0) {
        std::fprintf(stderr, "validate: missing required %s '%s'\n", what,
                     name.c_str());
        ok = false;
      }
    }
    return ok;
  };

  bool ok = true;
  if (!trace_path.empty()) {
    std::string content;
    Status st = ReadFile(trace_path, &content);
    size_t num_events = 0;
    std::set<std::string> span_names;
    if (st.ok()) {
      st = obs::ValidateTraceJson(content, &num_events, &span_names);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "validate: trace %s: %s\n", trace_path.c_str(),
                   st.ToString().c_str());
      ok = false;
    } else {
      ok = check_required(require_spans, span_names, "span") && ok;
      std::printf("trace ok: %zu events, %zu distinct spans\n", num_events,
                  span_names.size());
    }
  }
  if (!events_path.empty()) {
    std::string content;
    Status st = ReadFile(events_path, &content);
    size_t num_records = 0;
    std::set<std::string> loss_keys;
    if (st.ok()) {
      st = obs::ValidateTrainEventsJsonl(content, &num_records, &loss_keys);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "validate: events %s: %s\n", events_path.c_str(),
                   st.ToString().c_str());
      ok = false;
    } else {
      ok = check_required(require_losses, loss_keys, "loss component") && ok;
      std::printf("events ok: %zu records, %zu loss components\n",
                  num_records, loss_keys.size());
    }
  }
  if (!metrics_path.empty()) {
    std::string content;
    Status st = ReadFile(metrics_path, &content);
    if (st.ok()) st = obs::ValidateMetricsJson(content);
    if (!st.ok()) {
      std::fprintf(stderr, "validate: metrics %s: %s\n",
                   metrics_path.c_str(), st.ToString().c_str());
      ok = false;
    } else {
      std::printf("metrics ok\n");
    }
  }
  if (!alerts_path.empty()) {
    std::string content;
    Status st = ReadFile(alerts_path, &content);
    size_t num_records = 0;
    std::set<std::string> rule_names, contexts;
    if (st.ok()) {
      st = obs::ValidateAlertsJsonl(content, &num_records, &rule_names,
                                    &contexts);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "validate: alerts %s: %s\n", alerts_path.c_str(),
                   st.ToString().c_str());
      ok = false;
    } else {
      ok = check_required(require_alerts, rule_names, "alert rule") && ok;
      std::printf("alerts ok: %zu records, %zu rules, %zu contexts\n",
                  num_records, rule_names.size(), contexts.size());
    }
  }
  if (!profile_path.empty()) {
    std::string content;
    Status st = ReadFile(profile_path, &content);
    size_t num_samples = 0;
    std::set<std::string> frame_names;
    if (st.ok()) {
      st = obs::ValidateProfileJson(content, &num_samples, &frame_names);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "validate: profile %s: %s\n",
                   profile_path.c_str(), st.ToString().c_str());
      ok = false;
    } else {
      std::printf("profile ok: %zu samples, %zu distinct frames\n",
                  num_samples, frame_names.size());
    }
  }
  if (!serving_bench_path.empty()) {
    std::string content;
    Status st = ReadFile(serving_bench_path, &content);
    obs::ServingBenchGateInputs inputs;
    if (st.ok()) st = obs::ValidateServingBenchJson(content, &inputs);
    if (!st.ok()) {
      std::fprintf(stderr, "validate: serving-bench %s: %s\n",
                   serving_bench_path.c_str(), st.ToString().c_str());
      ok = false;
    } else {
      std::printf("serving-bench ok: %zu phases, build %s/%s\n",
                  inputs.num_phases, inputs.build_type.c_str(),
                  inputs.sanitizers.c_str());
    }
  }
  return ok ? 0 : 1;
}

/// `dtrec_cli bench-diff old.json new.json [--threshold <pct>]`: row-wise
/// comparison of two bench JSONs of the same schema. Prints every row's
/// delta and exits 1 when any metric regresses past the threshold
/// (default 25% — wide enough to absorb container noise, tight enough to
/// catch a real cliff). Rows present on only one side are reported but
/// never fail the diff: new benches appearing is not a regression.
int RunBenchDiff(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string threshold = "25";
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold" && i + 1 < argc) {
      threshold = argv[++i];
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = arg.substr(12);
    } else {
      paths.push_back(arg);
    }
  }
  if (const Status st = CheckArg("--threshold", threshold, ArgKind::kReal);
      !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    return 2;
  }
  const double threshold_pct = std::strtod(threshold.c_str(), nullptr);
  if (paths.size() != 2 || threshold_pct <= 0.0) return Usage();

  std::string old_schema, new_schema;
  std::vector<obs::BenchDiffRow> old_rows, new_rows;
  for (int side = 0; side < 2; ++side) {
    std::string content;
    if (Status st = ReadFile(paths[side], &content); !st.ok()) {
      return Fail(st);
    }
    Status st = obs::ExtractBenchRows(content,
                                      side == 0 ? &old_schema : &new_schema,
                                      side == 0 ? &old_rows : &new_rows);
    if (!st.ok()) {
      std::fprintf(stderr, "bench-diff: %s: %s\n", paths[side].c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }
  if (old_schema != new_schema) {
    std::fprintf(stderr, "bench-diff: schema mismatch: %s vs %s\n",
                 old_schema.c_str(), new_schema.c_str());
    return 1;
  }

  std::map<std::string, obs::BenchDiffRow> old_by_name;
  for (const obs::BenchDiffRow& row : old_rows) old_by_name[row.name] = row;
  size_t regressions = 0, matched = 0;
  for (const obs::BenchDiffRow& row : new_rows) {
    const auto it = old_by_name.find(row.name);
    if (it == old_by_name.end()) {
      std::printf("%-48s %12s -> %12.4g  (new row)\n", row.name.c_str(),
                  "-", row.value);
      continue;
    }
    ++matched;
    const obs::BenchDiffRow& old_row = it->second;
    const double delta_pct =
        old_row.value != 0.0
            ? 100.0 * (row.value - old_row.value) / old_row.value
            : 0.0;
    // A regression is movement in the *bad* direction past the threshold:
    // throughput down, or latency up.
    const bool regressed = row.higher_is_better
                               ? delta_pct < -threshold_pct
                               : delta_pct > threshold_pct;
    if (regressed) ++regressions;
    std::printf("%-48s %12.4g -> %12.4g  %+7.1f%%%s\n", row.name.c_str(),
                old_row.value, row.value, delta_pct,
                regressed ? "  REGRESSION" : "");
    old_by_name.erase(it);
  }
  for (const auto& [name, row] : old_by_name) {
    std::printf("%-48s %12.4g -> %12s  (row removed)\n", name.c_str(),
                row.value, "-");
  }
  if (matched == 0) {
    std::fprintf(stderr, "bench-diff: no comparable rows between %s and "
                         "%s\n",
                 paths[0].c_str(), paths[1].c_str());
    return 1;
  }
  if (regressions > 0) {
    std::fprintf(stderr,
                 "bench-diff: %zu row(s) regressed more than %.1f%%\n",
                 regressions, threshold_pct);
    return 1;
  }
  std::printf("bench-diff ok: %zu rows within %.1f%% (%s)\n", matched,
              threshold_pct, old_schema.c_str());
  return 0;
}

int RunCompare(int argc, char** argv) {
  if (argc < 4) return Usage();
  KnownArgs known = TrainArgs();
  known["seeds"] = ArgKind::kCount;
  ArgMap args;
  if (!ParseKeyValues(argc, argv, 4, known, &args)) return 2;
  auto dataset = LoadDataset(argv[2]);
  if (!dataset.ok()) return Fail(dataset.status());
  const std::vector<std::string> methods = Split(argv[3], ',');

  DatasetProfile profile;
  profile.train = ConfigFromArgs(args);
  profile.ranking_k = static_cast<size_t>(GetNum(args, "k", 5));
  const size_t seeds = static_cast<size_t>(GetNum(args, "seeds", 3));

  RatingDataset data = std::move(dataset).value();
  auto factory = [&data](uint64_t) { return data; };
  std::vector<uint64_t> seed_list;
  for (size_t i = 0; i < seeds; ++i) seed_list.push_back(100 + i);

  const auto results = RunComparison(methods, factory, profile, seed_list,
                                     /*quiet=*/true);
  MakeComparisonTable("comparison", profile.ranking_k, results)
      .RenderConsole(std::cout);
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return RunGenerate(argc, argv);
  if (command == "diagnose") return RunDiagnose(argc, argv);
  if (command == "train") return RunTrain(argc, argv);
  if (command == "compare") return RunCompare(argc, argv);
  if (command == "validate") return RunValidate(argc, argv);
  if (command == "bench-diff") return RunBenchDiff(argc, argv);
  if (command == "methods") {
    for (const std::string& name : AllMethodNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  return Usage();
}

}  // namespace
}  // namespace dtrec

int main(int argc, char** argv) { return dtrec::Main(argc, argv); }
