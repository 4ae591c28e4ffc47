// The multi-run side of dtrec_bench: child processes per workload, the
// results file, --repeat summaries, --diff and the --smoke self-test. All
// JSON is read with bench/bench_common.h's JsonCursor.

#include "suite.h"

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>

#include "bench.h"
#include "util/atomic_file.h"

extern char** environ;

namespace dtrec::perf {
namespace {

constexpr const char* kResultsSchema = "dtrec-benchmark-results-v1";

/// One run as the results file (and a child's last stdout line) holds it.
struct ParsedRun {
  std::string workload;
  uint64_t seed = 0;
  int trace = 0;
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> units;
};

/// Parses one run object; unknown keys are skipped.
void ParseRun(JsonCursor* cur, ParsedRun* run) {
  cur->ParseObject([&](const std::string& key) {
    if (key == "workload") {
      run->workload = cur->ParseString();
    } else if (key == "seed") {
      run->seed = static_cast<uint64_t>(cur->ParseNumber());
    } else if (key == "trace") {
      run->trace = static_cast<int>(cur->ParseNumber());
    } else if (key == "correct") {
      run->correct = ParseBool(cur);
    } else if (key == "attempted") {
      run->attempted = static_cast<uint64_t>(cur->ParseNumber());
    } else if (key == "failed") {
      run->failed = static_cast<uint64_t>(cur->ParseNumber());
    } else if (key == "metrics") {
      cur->ParseObject([&](const std::string& name) {
        double value = 0.0;
        std::string unit;
        cur->ParseObject([&](const std::string& field) {
          if (field == "value") {
            value = cur->ParseNumber();
          } else if (field == "unit") {
            unit = cur->ParseString();
          } else {
            cur->SkipValue();
          }
        });
        run->metrics.emplace_back(name, value);
        run->units.push_back(unit);
      });
    } else {
      cur->SkipValue();
    }
  });
}

bool LoadResults(const std::string& path, std::vector<ParsedRun>* runs) {
  std::string text;
  const Status read = ReadFile(path, &text);
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return false;
  }
  JsonCursor cur{text};
  std::string schema;
  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "runs") {
      ParseArray(&cur, [&] {
        runs->emplace_back();
        ParseRun(&cur, &runs->back());
      });
    } else {
      cur.SkipValue();
    }
  });
  if (!cur.ok || schema != kResultsSchema) {
    std::fprintf(stderr, "%s: not a %s file\n", path.c_str(), kResultsSchema);
    return false;
  }
  return true;
}

/// BENCHMARK.json: the workload names and each metric's unit, direction
/// and bound (per-layer metrics have none).
struct SpecMetric {
  std::string name, unit, better;
  double bound = 0.0;
  bool end_to_end = false;
};

struct Spec {
  std::vector<std::string> workloads;
  std::vector<SpecMetric> metrics;
};

bool LoadSpec(Spec* spec) {
  std::string text;
  const Status read = ReadFile(DTREC_BENCHMARK_JSON, &text);
  if (!read.ok()) {
    std::fprintf(stderr, "%s\n", read.ToString().c_str());
    return false;
  }
  JsonCursor cur{text};
  cur.ParseObject([&](const std::string& key) {
    if (key == "workloads") {
      ParseArray(&cur, [&] {
        cur.ParseObject([&](const std::string& field) {
          if (field == "name") {
            spec->workloads.push_back(cur.ParseString());
          } else {
            cur.SkipValue();
          }
        });
      });
    } else if (key == "end_to_end" || key == "per_layer") {
      ParseArray(&cur, [&] {
        SpecMetric m;
        m.end_to_end = key == "end_to_end";
        cur.ParseObject([&](const std::string& field) {
          if (field == "name") {
            m.name = cur.ParseString();
          } else if (field == "unit") {
            m.unit = cur.ParseString();
          } else if (field == "better") {
            m.better = cur.ParseString();
          } else if (field == "bound") {
            m.bound = cur.ParseNumber();
          } else {
            cur.SkipValue();
          }
        });
        spec->metrics.push_back(m);
      });
    } else {
      cur.SkipValue();
    }
  });
  if (!cur.ok) std::fprintf(stderr, "BENCHMARK.json is malformed\n");
  return cur.ok;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the "exclusive" method), so spreads here match the ones checked
/// against the bounds.
void Quartiles(std::vector<double> v, double q[3]) {
  std::sort(v.begin(), v.end());
  const long ld = static_cast<long>(v.size());
  if (ld < 2) {
    q[0] = q[1] = q[2] = ld == 1 ? v[0] : 0.0;
    return;
  }
  const long m = ld + 1;
  for (long i = 1; i < 4; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                v[j] * static_cast<double>(delta)) /
               4.0;
  }
}

/// Quartile distance as a share of the median.
double Spread(const double q[3]) {
  return q[1] != 0.0 ? (q[2] - q[0]) / std::fabs(q[1]) : 0.0;
}

/// Runs this binary with `args`; returns its exit code and last stdout
/// line. Its stderr passes through.
int Spawn(const std::vector<std::string>& args, std::string* last_line) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[4096];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) out.append(buf, n);
  close(fds[0]);
  if (spawned != 0) return -1;
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  while (!out.empty() && out.back() == '\n') out.pop_back();
  *last_line = out.substr(out.rfind('\n') == std::string::npos
                              ? 0
                              : out.rfind('\n') + 1);
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

std::string RunJson(const ParsedRun& run) {
  std::string out = "    {\"workload\": \"" + run.workload + "\", \"seed\": " +
                    std::to_string(run.seed) +
                    ", \"trace\": " + std::to_string(run.trace) +
                    ", \"correct\": " + (run.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(run.attempted) +
                    ", \"failed\": " + std::to_string(run.failed) +
                    ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const MetricSpec* spec = FindMetric(run.metrics[i].first);
    std::snprintf(buf, sizeof(buf), "%.17g", run.metrics[i].second);
    out += std::string(i > 0 ? ",\n" : "\n") + "      \"" +
           run.metrics[i].first + "\": {\"value\": " + buf +
           ", \"unit\": \"" + run.units[i] + "\"";
    if (spec != nullptr && !spec->end_to_end) {
      out += std::string(", \"moves\": \"") + spec->moves + "\"";
    }
    out += "}";
  }
  return out + "}}";
}

std::string ResultsJson(const SuiteOptions& options,
                        const std::vector<ParsedRun>& runs) {
  // The flavor stamp: bench_common.h's four fields plus the span switch
  // (compiled in; armed only in trace=1 runs) and the kernels' ISA.
  std::string build = bench::BuildFlavorJson();
  build.pop_back();
#if defined(DTREC_TRACING_ENABLED)
  build += ", \"tracing\": \"compiled-in, armed only in trace=1 runs\"";
#else
  build += ", \"tracing\": \"compiled-out\"";
#endif
  build += std::string(", \"native_isa\": ") +
           (DTREC_BENCH_NATIVE_ISA ? "true" : "false") + "}";
  std::string out = "{\n  \"schema\": \"" + std::string(kResultsSchema) +
                    "\",\n  \"build\": " + build + ",\n  \"seconds\": " +
                    std::to_string(options.seconds) + ",\n  \"runs\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    out += RunJson(runs[i]) + (i + 1 < runs.size() ? ",\n" : "\n");
  }
  return out + "  ]\n}\n";
}

std::string Directory(const std::string& path) {
  const size_t slash = path.rfind('/');
  return slash == std::string::npos ? "." : path.substr(0, slash);
}

/// Values of one metric on one workload, across runs.
std::vector<double> Values(const std::vector<ParsedRun>& runs,
                           const std::string& workload,
                           const std::string& metric) {
  std::vector<double> values;
  for (const ParsedRun& run : runs) {
    if (run.workload != workload) continue;
    for (const auto& [name, value] : run.metrics) {
      if (name == metric) values.push_back(value);
    }
  }
  return values;
}

/// The smoke test's spec check: names, units and workloads agree with
/// BENCHMARK.json.
bool MatchesSpec(const std::vector<ParsedRun>& runs) {
  Spec spec;
  if (!LoadSpec(&spec)) return false;
  bool ok = true;
  std::vector<std::string> workloads;
  for (const Workload& w : Workloads()) workloads.push_back(w.name);
  if (workloads != spec.workloads) {
    std::fprintf(stderr, "workload names differ from BENCHMARK.json\n");
    ok = false;
  }
  for (const ParsedRun& run : runs) {
    std::set<std::pair<std::string, std::string>> emitted, expected;
    for (size_t i = 0; i < run.metrics.size(); ++i) {
      emitted.emplace(run.metrics[i].first, run.units[i]);
    }
    for (const SpecMetric& m : spec.metrics) {
      if (m.end_to_end == (run.trace == 0)) expected.emplace(m.name, m.unit);
    }
    if (emitted != expected) {
      std::fprintf(stderr,
                   "%s trace=%d: metric names or units differ from "
                   "BENCHMARK.json\n",
                   run.workload.c_str(), run.trace);
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int RunSuite(const SuiteOptions& options) {
  std::vector<ParsedRun> runs;
  bool all_ok = true;
  const std::string trace_dir = options.out.empty() ? "" : Directory(options.out);
  if (!trace_dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(trace_dir, error);
  }
  for (size_t rep = 0; rep < options.repeat; ++rep) {
    const uint64_t seed = options.seed + rep;
    for (const Workload& workload : Workloads()) {
      for (int trace = 0; trace <= 1; ++trace) {
        std::vector<std::string> args = {
            "dtrec_bench", "--workload", workload.name,
            "--seed",      std::to_string(seed),
            "--seconds",   std::to_string(options.seconds),
            "--trace",     std::to_string(trace)};
        if (options.smoke) args.push_back("--smoke");
        if (trace == 1 && !trace_dir.empty()) {
          args.push_back("--trace-dir");
          args.push_back(trace_dir);
        }
        std::string line;
        const int code = Spawn(args, &line);
        ParsedRun run;
        JsonCursor cur{line};
        ParseRun(&cur, &run);
        run.workload = workload.name;
        run.seed = seed;
        run.trace = trace;
        if (code != 0 || !cur.ok || !run.correct) {
          std::fprintf(stderr, "%s seed=%llu trace=%d failed (exit %d)\n",
                       workload.name, static_cast<unsigned long long>(seed),
                       trace, code);
          all_ok = false;
        }
        for (size_t i = 0; i < run.metrics.size(); ++i) {
          std::printf("%s %s %.6g %s\n", run.metrics[i].first.c_str(),
                      workload.name, run.metrics[i].second,
                      run.units[i].c_str());
        }
        std::fflush(stdout);
        runs.push_back(std::move(run));
      }
    }
  }
  if (options.repeat > 1) {
    std::printf("\n%-32s %-11s %12s %12s %12s %8s\n", "metric", "workload",
                "median", "q1", "q3", "spread");
    for (const Workload& workload : Workloads()) {
      for (const MetricSpec& spec : Metrics()) {
        const std::vector<double> v = Values(runs, workload.name, spec.name);
        if (v.empty()) continue;
        double q[3];
        Quartiles(v, q);
        std::printf("%-32s %-11s %12.6g %12.6g %12.6g %7.2f%% %s\n",
                    spec.name, workload.name, q[1], q[0], q[2],
                    100.0 * Spread(q), spec.unit);
      }
    }
  }
  if (!options.out.empty()) {
    const Status written = WriteFileAtomic(options.out, ResultsJson(options, runs));
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      all_ok = false;
    }
  }
  if (options.smoke && !MatchesSpec(runs)) all_ok = false;
  return all_ok ? 0 : 1;
}

int Diff(const std::string& a_path, const std::string& b_path) {
  std::vector<ParsedRun> a, b;
  Spec spec;
  if (!LoadResults(a_path, &a) || !LoadResults(b_path, &b) || !LoadSpec(&spec)) {
    return 2;
  }
  std::printf("%-11s %-32s %-11s %12s %12s %8s %8s %7s\n", "verdict", "metric",
              "workload", "median A", "median B", "change", "spread", "bound");
  bool regressed = false;
  for (const std::string& workload : spec.workloads) {
    for (const SpecMetric& m : spec.metrics) {
      const std::vector<double> va = Values(a, workload, m.name);
      const std::vector<double> vb = Values(b, workload, m.name);
      if (va.empty() || vb.empty()) continue;
      double qa[3], qb[3];
      Quartiles(va, qa);
      Quartiles(vb, qb);
      const bool lower = m.better == "lower";
      // Relative change, signed so that positive is worse.
      const double worse_by =
          qa[1] != 0.0 ? (lower ? qb[1] - qa[1] : qa[1] - qb[1]) / std::fabs(qa[1])
                       : 0.0;
      const double spread = std::max(Spread(qa), Spread(qb));
      const double worst_b = lower ? *std::max_element(vb.begin(), vb.end())
                                   : *std::min_element(vb.begin(), vb.end());
      const double best_a = lower ? *std::min_element(va.begin(), va.end())
                                  : *std::max_element(va.begin(), va.end());
      const bool b_always_better = lower ? worst_b < best_a : worst_b > best_a;
      const char* verdict = "info";
      if (m.end_to_end) {
        if (worse_by > m.bound) {
          verdict = "worse";
        } else if (spread > m.bound && !b_always_better) {
          verdict = "unresolved";
        } else {
          verdict = "ok";
        }
        regressed |= std::string(verdict) != "ok";
      }
      char bound[16] = "-";
      if (m.end_to_end) std::snprintf(bound, sizeof(bound), "%.1f%%", 100 * m.bound);
      const double change =
          qa[1] != 0.0 ? (qb[1] - qa[1]) / std::fabs(qa[1]) : 0.0;
      std::printf("%-11s %-32s %-11s %12.6g %12.6g %+7.2f%% %7.2f%% %7s\n",
                  verdict, m.name.c_str(), workload.c_str(), qa[1], qb[1],
                  100.0 * change, 100.0 * spread, bound);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace dtrec::perf
