#ifndef DTREC_BENCH_BENCH_COMMON_H_
#define DTREC_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure regeneration binaries.
//
// Every bench accepts "key=value" overrides on the command line (see
// dtrec::ApplyOverride for the keys, plus "seeds=N" handled here) so the
// full-scale paper settings are one flag away from the laptop defaults,
// and writes its CSV next to the binary under bench_results/. Every value
// a bench reads goes through dtrec::CheckArg: one that is not a single
// finite number, or a negative count, names its key and exits 2, and so
// does a zero count that the bench divides by or samples from.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/config.h"
#include "obs/telemetry_validate.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/table_writer.h"

namespace dtrec::bench {

struct BenchArgs {
  DatasetProfile profile;  // benches overwrite with their dataset default
  size_t seeds = 3;
  bool have_profile_overrides = false;
  std::vector<std::pair<std::string, std::string>> raw;
};

/// Parses key=value arguments; unknown keys abort with a usage message.
inline BenchArgs ParseArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "usage: %s [key=value ...]\n", argv[0]);
      std::exit(2);
    }
    args.raw.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
  }
  return args;
}

/// Reads `value` as `kind` under CheckArg's rule; a value the rule
/// refuses prints the key and exits 2.
inline double CheckedArg(const std::string& key, const std::string& value,
                         ArgKind kind) {
  if (const Status st = CheckArg(key, value, kind); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.message().c_str());
    std::exit(2);
  }
  return std::strtod(value.c_str(), nullptr);
}

inline size_t CountArg(const std::string& key, const std::string& value) {
  return static_cast<size_t>(CheckedArg(key, value, ArgKind::kCount));
}

/// A count the bench divides by or samples from: CountArg's rule, and a
/// value that counts to 0 names its key and exits 2 as well.
inline size_t PositiveCountArg(const std::string& key,
                               const std::string& value) {
  const size_t count = CountArg(key, value);
  if (count == 0) {
    std::fprintf(stderr, "error: %s=%s must be a positive count\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }
  return count;
}

inline double RealArg(const std::string& key, const std::string& value) {
  return CheckedArg(key, value, ArgKind::kReal);
}

/// Applies parsed overrides onto `profile`; "seeds" is consumed here.
inline void ApplyArgs(const BenchArgs& args, DatasetProfile* profile,
                      size_t* seeds) {
  for (const auto& [key, value] : args.raw) {
    if (key == "seeds") {
      *seeds = PositiveCountArg(key, value);
      continue;
    }
    const Status st = ApplyOverride(key, value, profile);
    if (!st.ok()) {
      std::fprintf(stderr, "bad override %s=%s: %s\n", key.c_str(),
                   value.c_str(), st.ToString().c_str());
      std::exit(2);
    }
  }
}

/// Prints the table and writes its CSV under bench_results/.
inline void Emit(const TableWriter& table, const std::string& csv_name) {
  table.RenderConsole(std::cout);
  std::cout << "\n";
  const std::string dir = "bench_results";
  (void)std::system(("mkdir -p " + dir).c_str());
  const std::string path = dir + "/" + csv_name;
  const Status st = table.WriteCsvFile(path);
  if (st.ok()) {
    std::cout << "[csv written to " << path << "]\n";
  } else {
    std::cerr << "[csv write failed: " << st.ToString() << "]\n";
  }
}

inline std::vector<uint64_t> MakeSeeds(size_t n) {
  std::vector<uint64_t> seeds;
  for (size_t i = 0; i < n; ++i) seeds.push_back(1000 + 17 * i);
  return seeds;
}

// ------------------------------------------------------------------------
// Perf-trajectory JSON (the BENCH_*.json files).
//
// Machine-readable kernel timings so the repo has a recorded baseline to
// regress against: one file per bench family, schema-versioned, build
// flavor stamped (numbers from a guarded or sanitized build must never be
// compared against a Release baseline). The schema tag and the structural
// validator live in obs/telemetry_validate.h beside the serving bench's,
// so the `bench-smoke` CTest leg round-trips what this writer emits.

/// One timed kernel configuration. `speedup_vs_naive` is 1.0 for the
/// naive reference rows themselves.
struct KernelBenchResult {
  std::string kernel;   ///< e.g. "gemm", "row_dot", "topk_flat"
  std::string variant;  ///< "blocked"/"naive", or "pruned"/"naive" (top-K)
  size_t m = 0, k = 0, n = 0;
  double ns_per_op = 0.0;  ///< nanoseconds per kernel invocation
  double gflops = 0.0;     ///< 2·m·k·n (or 2·m·k) / time
  double speedup_vs_naive = 1.0;
};

/// Build flavor stamp. The macros are injected by bench/CMakeLists.txt;
/// the fallbacks keep the header usable from any translation unit.
inline std::string BuildFlavorJson() {
#ifdef DTREC_BENCH_BUILD_TYPE
  const char* build_type = DTREC_BENCH_BUILD_TYPE;
#else
  const char* build_type = "unknown";
#endif
#ifdef DTREC_BENCH_SANITIZE
  const char* sanitize = DTREC_BENCH_SANITIZE;
#else
  const char* sanitize = "";
#endif
#ifdef DTREC_NUMERIC_CHECKS
  const bool numeric_checks = true;
#else
  const bool numeric_checks = false;
#endif
#ifdef DTREC_FAILPOINTS_ENABLED
  const bool failpoints = true;
#else
  const bool failpoints = false;
#endif
  std::string out = "{";
  out += "\"build_type\": \"" + std::string(build_type) + "\", ";
  out += "\"sanitizers\": \"" + std::string(*sanitize ? sanitize : "none") +
         "\", ";
  out += std::string("\"numeric_checks\": ") +
         (numeric_checks ? "true" : "false") + ", ";
  out += std::string("\"failpoints\": ") + (failpoints ? "true" : "false");
  out += "}";
  return out;
}

inline std::string KernelResultsToJson(
    const std::vector<KernelBenchResult>& results) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"" + std::string(obs::kKernelBenchSchema) + "\",\n";
  out += "  \"build\": " + BuildFlavorJson() + ",\n";
  out += "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const KernelBenchResult& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                  "\"m\": %zu, \"k\": %zu, \"n\": %zu, "
                  "\"ns_per_op\": %.1f, \"gflops\": %.3f, "
                  "\"speedup_vs_naive\": %.3f}%s\n",
                  r.kernel.c_str(), r.variant.c_str(), r.m, r.k, r.n,
                  r.ns_per_op, r.gflops, r.speedup_vs_naive,
                  i + 1 < results.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

namespace json_internal {
using JsonCursor = json::Cursor;  // the name benchmark/ reads through
}  // namespace json_internal

}  // namespace dtrec::bench

#endif  // DTREC_BENCH_BENCH_COMMON_H_
