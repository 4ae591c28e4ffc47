#ifndef DTREC_SERVE_RECOMMEND_SERVER_H_
#define DTREC_SERVE_RECOMMEND_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/server_stats.h"
#include "serve/topk_scorer.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace dtrec::serve {

struct ServerConfig {
  size_t num_threads = 4;
  size_t default_k = 10;
  /// Backlog cap for Submit(): once this many requests wait in the pool
  /// queue, new submissions are *shed* — answered immediately on the
  /// calling thread with an empty slate instead of joining a queue they
  /// would only time out of. Bounds worst-case memory and tail latency
  /// under overload. 0 = unbounded (never shed at the queue).
  size_t max_queue = 0;
  /// Per-request latency budget (submit → response). A request whose
  /// budget is already spent when a worker picks it up is answered with
  /// the degraded popularity slate instead of a full scoring pass.
  /// 0 means "already expired" (every pooled request degrades —
  /// deterministic, used in tests); < 0 disables the deadline.
  double default_deadline_ms = 50.0;
  /// Score-cache knobs: cache.capacity = 0 disables the score cache.
  ScoreCacheConfig cache;
  /// Registry backing the server's counters and latency histograms, so
  /// serving shares the export path (DumpText/DumpJson) with the rest of
  /// the process. Null → obs::GlobalMetrics().
  obs::MetricsRegistry* metrics = nullptr;
  /// Metric-name prefix, e.g. "serve" → "serve.requests". The constructor
  /// zeroes the prefix's metrics (a fresh server starts its counters at
  /// zero), so two *live* servers must not share a registry prefix.
  std::string metrics_prefix = "serve";
  /// Period of the background stats-dump thread logging Snapshot().
  /// Summary() through DTREC_LOG(INFO). 0 disables the thread.
  double stats_dump_period_s = 0.0;
  /// Head-sampling period for request tracing: every Nth Handle() records
  /// its span tree and may plant histogram exemplars; the rest run under a
  /// suppressing obs::TraceSampleScope, which keeps armed tracing near
  /// the DTREC_TRACING=OFF cost on the hot path (measured in DESIGN.md
  /// §5k). Sampled-out requests still mint a trace id (identity in logs /
  /// responses) — they just record nothing. 0 or 1 traces every request.
  size_t trace_sample_every = 16;
};

struct RecommendRequest {
  size_t user = 0;
  size_t k = 0;             ///< 0 → ServerConfig::default_k
  double deadline_ms = -1;  ///< < 0 → ServerConfig::default_deadline_ms
};

struct Recommendation {
  std::vector<ScoredItem> items;  ///< best-first slate; empty when shed
  ServeRung rung = ServeRung::kFullTopK;
  DegradeReason reason = DegradeReason::kNone;
  bool cache_hit = false;
  uint64_t generation = 0;  ///< model generation that produced the slate
  double queue_us = 0.0;
  double score_us = 0.0;
  double total_us = 0.0;

  /// Below the top two ladder rungs (popularity fallback or shed).
  bool degraded() const { return rung >= ServeRung::kPopularity; }
  bool shed() const { return rung == ServeRung::kShed; }
};

/// Front door of the serving subsystem.
///
///   registry ──Acquire()──▶ ServingModel (pinned per request)
///        │                        │
///   Submit() ────────────▶ ThreadPool workers ──▶ TopKScorer::TopK
///        │                        │                (sweep + LRU cache)
///        └──── MetricsRegistry ◀── latency histograms / counters
///
/// Submit() enqueues onto the pool, whose max_queue bound is the one
/// refusal point, and returns a future; Recommend() is the synchronous
/// in-thread path (used by the workers themselves, and handy for
/// tests/examples). Every request pins the registry's current model
/// via shared_ptr, so hot swaps are torn-model-free by construction; on
/// observing a new generation the server eagerly drops the score cache
/// (stale entries are already unreachable — the cache is
/// generation-checked — this just frees the memory and keeps hit-rate
/// stats meaningful).
///
/// Every request resolves to exactly one rung of the degradation ladder:
///
///   kFullTopK ─▶ kCachedSlate ─▶ kPopularity ─▶ kShed
///
/// A full queue ⇒ kShed (empty slate, O(1)). A burned deadline ⇒
/// kPopularity (reason kDeadlineMiss). A user id the pinned model has no
/// row for — a cold-start user, or one a hot swap to a smaller checkpoint
/// dropped — ⇒ kPopularity (reason kUnknownUser), before the scorer or
/// the cache sees the id. Everything else is one
/// TopKScorer::TopK call: kCachedSlate on a cache hit, kFullTopK on a
/// fresh sweep. The chaos suite replays traffic concurrently with hot
/// swaps and asserts the counters stay torn-free.
///
/// Counters and histograms live in the ServerConfig's MetricsRegistry
/// under `metrics_prefix` (resolved once at construction; the hot path
/// touches only their relaxed atomics), so `DumpJson()` on that registry
/// exposes serving health next to training telemetry.
class RecommendServer {
 public:
  /// `registry` must outlive the server and have at least one published
  /// model before the first request.
  RecommendServer(const ModelRegistry* registry, ServerConfig config);
  ~RecommendServer();

  RecommendServer(const RecommendServer&) = delete;
  RecommendServer& operator=(const RecommendServer&) = delete;

  /// Asynchronous: fan the request onto the worker pool. A request the
  /// full queue refuses gets an already-resolved future (rung kShed).
  std::future<Recommendation> Submit(const RecommendRequest& request);

  /// Synchronous: handle on the calling thread (still records stats and
  /// honors the deadline — queue time is simply ~0, and nothing is shed:
  /// there is no queue to protect).
  Recommendation Recommend(const RecommendRequest& request);

  ServerStats Snapshot() const;
  void ResetStats();

  const ServerConfig& config() const { return config_; }

 private:
  /// `waited_us` is the time the request spent queued before handling.
  /// `forced` != kNone short-circuits the ladder: kQueueShed answers with
  /// the empty shed slate (no scoring work for a request we refused).
  /// `trace_id` is the request identity minted at Submit() (0 → mint one
  /// here): installed as an obs::TraceContext so spans, rung/reason
  /// annotations and histogram exemplars all tie back to this request.
  Recommendation Handle(const RecommendRequest& request, double waited_us,
                        DegradeReason forced = DegradeReason::kNone,
                        uint64_t trace_id = 0);

  void PopularitySlate(const ServingModel& model, size_t k,
                       DegradeReason reason, Recommendation* response);

  void CountResponse(const Recommendation& response);

  void StatsDumpLoop();

  const ModelRegistry* const registry_;
  const ServerConfig config_;
  TopKScorer scorer_;

  // Registry-owned metrics, resolved once under config_.metrics_prefix.
  obs::MetricsRegistry* const metrics_;
  obs::Counter* const requests_;
  obs::Counter* const rung_full_;
  obs::Counter* const rung_cached_;
  obs::Counter* const rung_popularity_;
  obs::Counter* const rung_shed_;
  obs::Counter* const deadline_miss_;
  obs::Counter* const queue_shed_;
  obs::Counter* const unknown_user_;
  obs::Counter* const cache_hits_;
  obs::Counter* const cache_misses_;
  obs::Counter* const swaps_;
  obs::Gauge* const generation_;
  obs::Histogram* const queue_hist_;
  obs::Histogram* const score_hist_;
  obs::Histogram* const total_hist_;
  std::atomic<uint64_t> seen_generation_{0};
  /// Round-robin cursor for trace head-sampling (trace_sample_every).
  std::atomic<uint64_t> trace_tick_{0};

  std::mutex dump_mu_;
  std::condition_variable dump_cv_;
  bool stop_dump_ DTREC_GUARDED_BY(dump_mu_) = false;
  std::thread dump_thread_;

  ThreadPool pool_;  // last member: workers must die before the stats
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_RECOMMEND_SERVER_H_
