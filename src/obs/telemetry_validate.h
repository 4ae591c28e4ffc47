#ifndef DTREC_OBS_TELEMETRY_VALIDATE_H_
#define DTREC_OBS_TELEMETRY_VALIDATE_H_

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.h"

// Structural validators for the telemetry artifacts (trace JSON, training
// event JSONL, metrics JSON, alerts JSONL, profile JSON, bench JSONs).
// Same recursive-descent-checker idiom as bench_common.h's kernel-bench
// validator: verify shape and required keys, not values. Wired into CI
// through `dtrec_cli validate` so an emitted artifact that
// chrome://tracing or a JSONL consumer would choke on fails the pipeline
// instead of shipping.

namespace dtrec::obs {

/// Chrome trace_event JSON: top-level object with a "traceEvents" array
/// whose entries carry a non-empty "name", "ph": "X", and numeric
/// ts/dur/pid/tid. Outputs (optional, may be null): the event count, the
/// set of distinct span names — callers assert on required stages — and
/// the per-trace-id event counts (events carrying "args": {"trace_id":
/// ...}), keyed by the id string as emitted, so an exemplar's id can be
/// resolved back to its span tree.
Status ValidateTraceJson(
    const std::string& content, size_t* num_events = nullptr,
    std::set<std::string>* span_names = nullptr,
    std::map<std::string, size_t>* trace_id_events = nullptr);

/// dtrec-alerts-v1 JSONL: zero or more lines (an alert-free run leaves an
/// empty file — that is valid), each a record with non-empty rule/expr,
/// direction "above"|"below", numeric value/threshold/window_s/at_s, and
/// a baseline that is a number or null. Outputs (optional): record count,
/// distinct rule names, distinct contexts.
Status ValidateAlertsJsonl(const std::string& content,
                           size_t* num_records = nullptr,
                           std::set<std::string>* rule_names = nullptr,
                           std::set<std::string>* contexts = nullptr);

/// dtrec-profile-v1 JSON: numeric interval_us/samples/dropped and a
/// stacks array whose entries carry a non-empty frames array of strings
/// and a count ≥ 1. Outputs (optional): total samples and the set of
/// distinct frame names (for asserting the hot kernel shows up).
Status ValidateProfileJson(const std::string& content,
                           size_t* num_samples = nullptr,
                           std::set<std::string>* frame_names = nullptr);

/// Training event stream: ≥1 JSONL line, each a "dtrec-train-events-v1"
/// record with a non-empty method, numeric epoch/steps/wall_s/grad_norm,
/// a "losses" object, a "propensity_clip" object carrying
/// total/fired/rate, and an "rng_cursor". A torn final line (crashed
/// writer) is rejected. Outputs (optional): record count and the union
/// of loss-component names seen.
Status ValidateTrainEventsJsonl(const std::string& content,
                                size_t* num_records = nullptr,
                                std::set<std::string>* loss_keys = nullptr);

/// Metrics exposition: "dtrec-metrics-v1" with counters/gauges/histograms
/// objects; every histogram entry carries count/mean/p50/p95/p99/max.
Status ValidateMetricsJson(const std::string& content);

/// Gate-relevant fields parsed out of a serving-bench JSON by
/// ValidateServingBenchJson. The CI throughput gate reads the build stamp
/// from the document itself so a sanitized or Debug run is never held to
/// the Release floor.
struct ServingBenchGateInputs {
  std::string build_type;  ///< e.g. "Release"
  std::string sanitizers;  ///< "none" on an unsanitized build
  bool failpoints = false;
  size_t num_phases = 0;
  double slo_ms = 0.0;
  /// Closed-loop capacity phase throughput, normalized per worker core,
  /// counted only while the p99 met the SLO (0 when the SLO was missed).
  double per_core_users_per_sec_at_slo = 0.0;
  double capacity_p99_us = 0.0;
  double saturation_shed_rate = -1.0;  ///< -1 = no saturation phase
  double breaker_open_transitions = 0.0;
};

/// Serving traffic-replay bench JSON: "dtrec-bench-serving-v1" with a
/// build stamp (build_type/sanitizers/numeric_checks/failpoints), a
/// config object, a non-empty phases array — every phase carrying a
/// non-empty name, request/latency fields (requests, elapsed_s, p50_us,
/// p99_us, p999_us) and the rate triple (shed_rate, degraded_rate,
/// cache_hit_rate) — and a summary object with the per-core SLO
/// throughput. Outputs (optional): the fields the CI gate enforces.
Status ValidateServingBenchJson(const std::string& content,
                                ServingBenchGateInputs* gate = nullptr);

/// One comparable perf row extracted from a bench JSON for bench-diff.
struct BenchDiffRow {
  std::string name;  ///< e.g. "capacity.users_per_sec", "gemm/blocked/….gflops"
  double value = 0.0;
  bool higher_is_better = true;
};

/// Extracts comparable rows from a dtrec-bench-serving-v1 JSON (per-phase
/// users_per_sec and p99_us, plus the summary per-core SLO throughput) or
/// a dtrec-bench-kernels-v3 JSON (per kernel/variant/shape gflops).
/// `schema` (optional) receives the detected tag so callers can refuse to
/// diff across schemas.
Status ExtractBenchRows(const std::string& content, std::string* schema,
                        std::vector<BenchDiffRow>* rows);

}  // namespace dtrec::obs

#endif  // DTREC_OBS_TELEMETRY_VALIDATE_H_
