#ifndef DTREC_BENCH_BENCH_COMMON_H_
#define DTREC_BENCH_BENCH_COMMON_H_

// Shared helpers for the table/figure regeneration binaries.
//
// Every bench accepts "key=value" overrides on the command line (see
// dtrec::ApplyOverride for the keys, plus "seeds=N" handled here) so the
// full-scale paper settings are one flag away from the laptop defaults,
// and writes its CSV next to the binary under bench_results/.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "experiments/config.h"
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

/// Applies parsed overrides onto `profile`; "seeds" is consumed here.
inline void ApplyArgs(const BenchArgs& args, DatasetProfile* profile,
                      size_t* seeds) {
  for (const auto& [key, value] : args.raw) {
    if (key == "seeds") {
      *seeds = static_cast<size_t>(std::strtoul(value.c_str(), nullptr, 10));
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
// compared against a Release baseline). The emitter and the structural
// validator live together so the `bench-smoke` CTest leg can round-trip
// what it wrote.

// v3: the serving top-K rows are the one exact sweep ("pruned") against
// the BruteForceTopK oracle ("naive") on a skewed- and a flat-norm
// catalogue; v2's int8 rows and recall@K column are gone. The validator
// requires the exact tag, so a stale v2 (or v1) document is rejected.
inline constexpr const char* kKernelBenchSchema = "dtrec-bench-kernels-v3";

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
  out += "  \"schema\": \"" + std::string(kKernelBenchSchema) + "\",\n";
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

/// Minimal recursive-descent JSON checker: verifies well-formedness and
/// lets the schema validator walk the document. Values are left as raw
/// token text; only the structure the validator needs is materialized.
struct JsonCursor {
  const std::string& s;
  size_t i = 0;
  bool ok = true;

  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool Eat(char c) {
    SkipWs();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    ok = false;
    return false;
  }
  bool Peek(char c) {
    SkipWs();
    return i < s.size() && s[i] == c;
  }
  std::string ParseString() {
    if (!Eat('"')) return "";
    std::string out;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\' && i + 1 < s.size()) ++i;
      out += s[i++];
    }
    if (!Eat('"')) ok = false;
    return out;
  }
  double ParseNumber() {
    SkipWs();
    char* end = nullptr;
    const double v = std::strtod(s.c_str() + i, &end);
    if (end == s.c_str() + i) {
      ok = false;
      return 0.0;
    }
    i = static_cast<size_t>(end - s.c_str());
    return v;
  }
  void SkipValue();  // forward-declared, mutually recursive

  /// Parses an object into key -> raw value handled by `fn(key)`; the
  /// callback must consume the value via the cursor.
  template <typename Fn>
  void ParseObject(Fn&& fn) {
    if (!Eat('{')) return;
    if (Peek('}')) {
      Eat('}');
      return;
    }
    while (ok) {
      const std::string key = ParseString();
      if (!Eat(':')) return;
      fn(key);
      if (Peek(',')) {
        Eat(',');
        continue;
      }
      Eat('}');
      return;
    }
  }
};

inline void JsonCursor::SkipValue() {
  SkipWs();
  if (i >= s.size()) {
    ok = false;
    return;
  }
  const char c = s[i];
  if (c == '"') {
    ParseString();
  } else if (c == '{') {
    ParseObject([this](const std::string&) { SkipValue(); });
  } else if (c == '[') {
    Eat('[');
    if (Peek(']')) {
      Eat(']');
      return;
    }
    while (ok) {
      SkipValue();
      if (Peek(',')) {
        Eat(',');
        continue;
      }
      Eat(']');
      return;
    }
  } else if (s.compare(i, 4, "true") == 0) {
    i += 4;
  } else if (s.compare(i, 5, "false") == 0) {
    i += 5;
  } else if (s.compare(i, 4, "null") == 0) {
    i += 4;
  } else {
    ParseNumber();
  }
}

}  // namespace json_internal

/// Structural schema validation of a BENCH_kernels.json document: schema
/// tag (exact v3 match — v2 and v1 files fail here), build stamp with the
/// four flavor fields, and a non-empty results array whose entries carry
/// the kernel/variant strings, the three shape dims and positive timings.
/// Returns OK or a message naming the first violation.
inline Status ValidateKernelBenchJson(const std::string& content) {
  using json_internal::JsonCursor;
  JsonCursor cur{content};
  std::string schema;
  bool saw_build = false;
  std::vector<std::string> build_keys;
  size_t num_results = 0;
  std::string error;

  cur.ParseObject([&](const std::string& key) {
    if (key == "schema") {
      schema = cur.ParseString();
    } else if (key == "build") {
      saw_build = true;
      cur.ParseObject([&](const std::string& bk) {
        build_keys.push_back(bk);
        cur.SkipValue();
      });
    } else if (key == "results") {
      if (!cur.Eat('[')) return;
      if (cur.Peek(']')) {
        cur.Eat(']');
        return;
      }
      while (cur.ok) {
        bool has_kernel = false, has_variant = false;
        size_t dims = 0;
        double ns = -1.0, gflops = -1.0;
        cur.ParseObject([&](const std::string& rk) {
          if (rk == "kernel") {
            has_kernel = !cur.ParseString().empty();
          } else if (rk == "variant") {
            const std::string v = cur.ParseString();
            has_variant = v == "blocked" || v == "naive" || v == "pruned";
          } else if (rk == "m" || rk == "k" || rk == "n") {
            if (cur.ParseNumber() >= 0.0) ++dims;
          } else if (rk == "ns_per_op") {
            ns = cur.ParseNumber();
          } else if (rk == "gflops") {
            gflops = cur.ParseNumber();
          } else {
            cur.SkipValue();
          }
        });
        if (!(has_kernel && has_variant && dims == 3 && ns > 0.0 &&
              gflops >= 0.0)) {
          if (error.empty()) {
            error = "results[" + std::to_string(num_results) +
                    "] missing kernel/variant/m/k/n or non-positive timing";
          }
        }
        ++num_results;
        if (cur.Peek(',')) {
          cur.Eat(',');
          continue;
        }
        cur.Eat(']');
        return;
      }
    } else {
      cur.SkipValue();
    }
  });

  if (!cur.ok) return Status::InvalidArgument("malformed JSON");
  if (!error.empty()) return Status::InvalidArgument(error);
  if (schema != kKernelBenchSchema) {
    return Status::InvalidArgument("schema tag is '" + schema +
                                   "', expected '" + kKernelBenchSchema +
                                   "'");
  }
  if (!saw_build) return Status::InvalidArgument("missing build stamp");
  for (const char* required :
       {"build_type", "sanitizers", "numeric_checks", "failpoints"}) {
    bool found = false;
    for (const std::string& k : build_keys) found |= k == required;
    if (!found) {
      return Status::InvalidArgument(std::string("build stamp missing '") +
                                     required + "'");
    }
  }
  if (num_results == 0) {
    return Status::InvalidArgument("results array is empty");
  }
  return Status::OK();
}

}  // namespace dtrec::bench

#endif  // DTREC_BENCH_BENCH_COMMON_H_
