#ifndef DTREC_BENCHMARK_SUITE_H_
#define DTREC_BENCHMARK_SUITE_H_

#include <cstdint>
#include <string>

namespace dtrec::perf {

struct SuiteOptions {
  uint64_t seed = 1;  ///< repetition r runs with seed + r
  uint64_t seconds = 55;
  size_t repeat = 1;
  std::string out;  ///< results JSON; its directory also gets the traces
  bool smoke = false;
};

/// Runs every workload untraced then traced, each in a child process, and
/// prints `name workload value unit` per metric (plus median and quartiles
/// per workload when repeat > 1). Returns non-zero when a run fails a
/// check, or, with `smoke`, when the names differ from BENCHMARK.json.
int RunSuite(const SuiteOptions& options);

/// Compares results files A (parent) and B (change) metric by metric
/// against BENCHMARK.json's bounds: worse, unresolved or ok. Returns
/// non-zero when any end-to-end metric is worse or unresolved.
int Diff(const std::string& a_path, const std::string& b_path);

}  // namespace dtrec::perf

#endif  // DTREC_BENCHMARK_SUITE_H_
