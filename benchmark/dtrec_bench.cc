// dtrec_bench: the repository benchmark. See README.md in this directory.
//
//   dtrec_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//       One run of one workload. The last stdout line is a JSON object
//       {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//       --trace-dir <dir> also writes the traced run's Chrome trace.
//   dtrec_bench [--seed <n>] [--seconds <s>] [--repeat <n>] [--out <file>]
//       Every workload, untraced then traced, each in its own child
//       process; prints `name workload value unit` per metric and writes
//       the results JSON (flavor-stamped) to --out.
//   dtrec_bench --smoke
//       The same at about 1/20 size; fails unless every check passes and
//       the metric names match BENCHMARK.json.
//   dtrec_bench --diff <A.json> <B.json>
//       Compares two results files against BENCHMARK.json's bounds.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "suite.h"
#include "util/atomic_file.h"
#include "util/stopwatch.h"

namespace dtrec::perf {

const std::vector<Workload>& Workloads() {
  // Each workload pairs one training shape with one traffic mix, so every
  // end-to-end metric exists on every workload, and each mechanism below
  // has a workload that exercises it and one that bypasses it.
  static const std::vector<Workload> workloads = {
      // Coat (290×300, dim 16, 1024-row batches, 70 steps × 12 epochs):
      // small tables, so the autograd tape's per-op fixed cost dominates a
      // step. Cold traffic: every request misses the slate cache and pays
      // a full sweep over items with decaying norms (pruning can cut).
      {"coat_cold", DatasetKind::kCoat, 12, Traffic::kCold},
      // Yahoo (770×1000, dim 8, 2048-row batches, 150 steps × 5 epochs):
      // 9× larger tables and DT-DR's imputation head weigh more. Zipf(0.8)
      // traffic: a warmed cache answers about a third of requests; misses
      // sweep flat-norm items, where pruning cannot cut.
      {"yahoo_zipf", DatasetKind::kYahoo, 5, Traffic::kZipf},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

const std::vector<MetricSpec>& Metrics() {
  static const std::vector<MetricSpec> metrics = {
      // End to end (untraced run).
      {"fit_s", "s", true, ""},
      {"auc", "ratio", true, ""},
      {"p50_ms", "ms", true, ""},
      {"throughput_rps", "req/s", true, ""},
      {"setup_s", "s", true, ""},
      {"peak_rss_mb", "MiB", true, ""},
      // Per layer (traced run), with the end-to-end metric each moves.
      {"synth.world_s", "s", false, "setup_s on both"},
      {"baselines.step_self_us", "us", false, "fit_s on both"},
      {"autograd.forward_us", "us", false, "fit_s, coat_cold most"},
      {"autograd.backward_us", "us", false, "fit_s on both"},
      {"optim.step_us", "us", false, "fit_s, yahoo_zipf most"},
      {"core.propensity_bce_us", "us", false, "fit_s on both"},
      {"core.disentangle_us", "us", false, "fit_s on both"},
      {"core.reg_us", "us", false, "fit_s on both"},
      {"core.imputation_us", "us", false, "fit_s, yahoo_zipf most"},
      {"core.fit_s.dt-ips", "s", false, "fit_s on both"},
      {"core.fit_s.dt-dr", "s", false, "fit_s on both"},
      {"baselines.allocs_per_step", "count", false, "fit_s, coat_cold most"},
      {"baselines.alloc_bytes_per_step", "bytes", false,
       "fit_s, coat_cold most"},
      {"obs.trace_overhead_pct", "%", false, "none (budget check)"},
      {"serve.latency_ms.p99", "ms", false,
       "none (the tail, ungated: host stalls set it; see README)"},
      {"serve.model_build_s", "s", false, "setup_s on both"},
      {"serve.submit_us.p50", "us", false, "p50_ms on both"},
      {"serve.submit_us.p99", "us", false, "serve.latency_ms.p99 on both"},
      {"util.pool_wait_us.p50", "us", false, "p50_ms on both"},
      {"util.pool_wait_us.p99", "us", false, "serve.latency_ms.p99 on both"},
      {"serve.service_us.p50", "us", false, "p50_ms on both"},
      {"serve.service_us.p99", "us", false, "serve.latency_ms.p99 on both"},
      {"serve.cache_hit_rate", "ratio", false, "throughput_rps, yahoo_zipf"},
      {"serve.sweep_us.p50", "us", false,
       "p50_ms and throughput_rps on both"},
      {"serve.sweep_us.p99", "us", false, "serve.latency_ms.p99 on both"},
      {"serve.cache_lookup_us.p50", "us", false, "throughput_rps, yahoo_zipf"},
      {"serve.cache_store_us.p50", "us", false, "p50_ms on both"},
      {"serve.handle_self_us", "us", false, "p50_ms on both"},
      {"serve.score_self_us", "us", false, "p50_ms on both"},
      {"serve.generator_lag_us.p99", "us", false,
       "none (validity: a round above 1 ms is flagged)"},
  };
  return metrics;
}

const MetricSpec* FindMetric(const std::string& name) {
  for (const MetricSpec& m : Metrics()) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

namespace {

/// Every metric of the run's kind is reported, and nothing else.
void CheckCatalogue(bool traced, RunResult* result) {
  for (const MetricSpec& spec : Metrics()) {
    if (spec.end_to_end == traced) continue;
    bool found = false;
    for (const auto& [name, value] : result->metrics) found |= name == spec.name;
    result->Check(found, std::string("metric ") + spec.name + " missing");
  }
  for (const auto& [name, value] : result->metrics) {
    const MetricSpec* spec = FindMetric(name);
    result->Check(spec != nullptr && spec->end_to_end != traced,
                  "metric " + name + " is not in this run's catalogue");
    result->Check(std::isfinite(value), "metric " + name + " is not finite");
  }
}

std::string ResultJson(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& [name, value] = result.metrics[i];
    const MetricSpec* spec = FindMetric(name);
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0);
    out += (i > 0 ? ", \"" : "\"") + name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + (spec != nullptr ? spec->unit : "") + "\"}";
  }
  out += "}}";
  return out;
}

int RunOne(const RunOptions& options, const std::string& trace_dir) {
  // --seconds covers the whole run, set-up included.
  const Stopwatch run;
  RunResult result;
  std::vector<double> train_setup, serve_setup;
  const std::unique_ptr<Phase> train =
      SetUpTraining(options, &result, &train_setup);
  const std::unique_ptr<Phase> serve =
      SetUpServing(options, &result, &serve_setup);
  // Alternating the halves spreads each one's samples over the whole run,
  // so a slow spell on a shared host does not land on one metric alone.
  const size_t min_blocks = options.smoke ? 1 : options.traced ? 2 : 3;
  const double blocks_start = run.ElapsedSeconds();
  std::fprintf(stderr, "%s: set-up took %.2f s\n", options.workload->name,
               blocks_start);
  for (size_t block = 0;; ++block) {
    // Stops before a block that would likely end past --seconds.
    const double elapsed = run.ElapsedSeconds();
    const double per_block =
        block == 0 ? 0.0 : (elapsed - blocks_start) / static_cast<double>(block);
    if (block >= min_blocks &&
        elapsed + per_block > static_cast<double>(options.seconds)) {
      break;
    }
    const Stopwatch block_watch;
    train->Block();
    const double train_s = block_watch.ElapsedSeconds();
    serve->Block();
    std::fprintf(stderr, "%s block %zu: training %.2f s, serving %.2f s\n",
                 options.workload->name, block + 1, train_s,
                 block_watch.ElapsedSeconds() - train_s);
  }
  train->Finish();
  serve->Finish();
  std::fprintf(stderr, "%s set-ups: training", options.workload->name);
  for (double s : train_setup) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, " s; serving");
  for (double s : serve_setup) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, " s\n");
  if (!options.traced) {
    result.Set("setup_s", Median(train_setup) + Median(serve_setup));
    result.Set("peak_rss_mb", PeakRssMiB());
  } else if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/" + options.workload->name +
                             "-seed" + std::to_string(options.seed) +
                             ".trace.json";
    const Status written = WriteFileAtomic(
        path, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [" +
                  result.trace_events + "\n]}\n");
    result.Check(written.ok(), written.ToString());
  }
  CheckCatalogue(options.traced, &result);
  std::printf("%s\n", ResultJson(result).c_str());
  return result.correct() ? 0 : 1;
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "dtrec_bench: %s\n"
               "usage: dtrec_bench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--smoke] [--trace-dir <dir>]\n"
               "       dtrec_bench [--seed <n>] [--seconds <s>] [--repeat <n>] "
               "[--out <file>] [--smoke]\n"
               "       dtrec_bench --diff <A.json> <B.json>\n",
               why);
  std::exit(2);
}

uint64_t ParseUint(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') Usage(("bad value for " + flag).c_str());
  return v;
}

}  // namespace
}  // namespace dtrec::perf

int main(int argc, char** argv) {
  using namespace dtrec::perf;
  SuiteOptions suite;
  RunOptions run;
  std::string workload, trace_dir;
  std::vector<std::string> diff;
  bool seconds_given = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    const size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    }
    const auto next = [&]() -> std::string {
      if (eq != std::string::npos) return value;
      if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
      return argv[++i];
    };
    if (flag == "--smoke") {
      run.smoke = suite.smoke = true;
    } else if (flag == "--workload") {
      workload = next();
    } else if (flag == "--seed") {
      run.seed = suite.seed = ParseUint(flag, next());
    } else if (flag == "--seconds") {
      run.seconds = suite.seconds = ParseUint(flag, next());
      seconds_given = true;
    } else if (flag == "--trace") {
      const uint64_t trace = ParseUint(flag, next());
      if (trace > 1) Usage("--trace takes 0 or 1");
      run.traced = trace == 1;
    } else if (flag == "--trace-dir") {
      trace_dir = next();
    } else if (flag == "--repeat") {
      suite.repeat = ParseUint(flag, next());
      if (suite.repeat == 0) Usage("--repeat must be at least 1");
    } else if (flag == "--out") {
      suite.out = next();
    } else if (flag == "--diff") {
      diff.push_back(next());
      if (i + 1 >= argc) Usage("--diff takes two files");
      diff.push_back(argv[++i]);
    } else {
      Usage(("unknown argument " + flag).c_str());
    }
  }
  if (!diff.empty()) return Diff(diff[0], diff[1]);
  if (workload.empty()) {
    if (!seconds_given && suite.smoke) suite.seconds = 1;
    return RunSuite(suite);
  }
  run.workload = FindWorkload(workload);
  if (run.workload == nullptr) Usage(("unknown workload " + workload).c_str());
  return RunOne(run, trace_dir);
}
