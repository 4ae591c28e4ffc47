#include "serve/recommend_server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dtrec::serve {

namespace {

obs::MetricsRegistry* OrGlobal(obs::MetricsRegistry* metrics) {
  return metrics != nullptr ? metrics : &obs::GlobalMetrics();
}

}  // namespace

RecommendServer::RecommendServer(const ModelRegistry* registry,
                                 ServerConfig config)
    : registry_(registry),
      config_(std::move(config)),
      scorer_(config_.cache),
      metrics_(OrGlobal(config_.metrics)),
      requests_(metrics_->GetCounter(config_.metrics_prefix + ".requests")),
      rung_full_(
          metrics_->GetCounter(config_.metrics_prefix + ".rung_full")),
      rung_cached_(
          metrics_->GetCounter(config_.metrics_prefix + ".rung_cached")),
      rung_popularity_(
          metrics_->GetCounter(config_.metrics_prefix + ".rung_popularity")),
      rung_shed_(
          metrics_->GetCounter(config_.metrics_prefix + ".rung_shed")),
      deadline_miss_(
          metrics_->GetCounter(config_.metrics_prefix + ".deadline_miss")),
      queue_shed_(
          metrics_->GetCounter(config_.metrics_prefix + ".queue_shed")),
      unknown_user_(
          metrics_->GetCounter(config_.metrics_prefix + ".unknown_user")),
      cache_hits_(
          metrics_->GetCounter(config_.metrics_prefix + ".cache_hits")),
      cache_misses_(
          metrics_->GetCounter(config_.metrics_prefix + ".cache_misses")),
      swaps_(metrics_->GetCounter(config_.metrics_prefix + ".model_swaps")),
      generation_(metrics_->GetGauge(config_.metrics_prefix + ".generation")),
      queue_hist_(
          metrics_->GetHistogram(config_.metrics_prefix + ".queue_us")),
      score_hist_(
          metrics_->GetHistogram(config_.metrics_prefix + ".score_us")),
      total_hist_(
          metrics_->GetHistogram(config_.metrics_prefix + ".total_us")),
      admission_(config_.admission, metrics_,
                 config_.metrics_prefix + ".admission"),
      pool_(config_.num_threads, config_.max_queue) {
  DTREC_CHECK(registry != nullptr);
  // A fresh server owns its metric prefix and starts from zero — a prior
  // (dead) server with the same prefix must not leak counts into this
  // one's stats. Two live servers therefore need distinct prefixes.
  ResetStats();
  if (config_.stats_dump_period_s > 0.0) {
    dump_thread_ = std::thread([this] { StatsDumpLoop(); });
  }
}

RecommendServer::~RecommendServer() {
  if (dump_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mu_);
      stop_dump_ = true;
    }
    dump_cv_.notify_all();
    dump_thread_.join();
  }
  pool_.Shutdown();
}

void RecommendServer::StatsDumpLoop() {
  const auto period = std::chrono::duration<double>(
      config_.stats_dump_period_s);
  std::unique_lock<std::mutex> lock(dump_mu_);
  while (!stop_dump_) {
    if (dump_cv_.wait_for(lock, period, [this] { return stop_dump_; })) {
      break;
    }
    // Snapshot() touches only registry metrics and the model registry —
    // safe without dump_mu_, but holding it is fine (nothing else blocks
    // on it except shutdown).
    DTREC_LOG(INFO) << "[" << config_.metrics_prefix << "] "
                    << Snapshot().Summary();
  }
}

std::future<Recommendation> RecommendServer::Submit(
    const RecommendRequest& request) {
  const bool admitted = admission_.TryAdmit(pool_.pending()) ==
                        AdmissionController::Decision::kAdmit;
  // The trace id is minted at the front door, whatever the admission
  // verdict, so a shed request's annotation chain carries the same kind
  // of identity as a served one.
  const uint64_t trace_id = obs::NewTraceId();
  if (admitted) {
    auto task = std::make_shared<std::packaged_task<Recommendation()>>(
        [this, request, trace_id, submitted = Stopwatch()] {
          return Handle(request, submitted.ElapsedMicros(),
                        DegradeReason::kNone, trace_id);
        });
    std::future<Recommendation> future = task->get_future();
    if (pool_.Submit([task] { (*task)(); })) return future;
    // Backlog at max_queue despite admission: fall through to the shed
    // path. (Admission depth and pool bound race benignly — both resolve
    // to the same rung.)
  }
  // Shed on the caller's thread: O(1), empty slate, future already
  // resolved. Overload costs a refusal per excess request instead of an
  // ever-longer queue of doomed scoring passes.
  std::packaged_task<Recommendation()> shed_task([this, &request, trace_id] {
    return Handle(request, /*waited_us=*/0.0, DegradeReason::kQueueShed,
                  trace_id);
  });
  std::future<Recommendation> future = shed_task.get_future();
  shed_task();
  return future;
}

Recommendation RecommendServer::Recommend(const RecommendRequest& request) {
  return Handle(request, /*waited_us=*/0.0);
}

Recommendation RecommendServer::Handle(const RecommendRequest& request,
                                       double waited_us, DegradeReason forced,
                                       uint64_t trace_id) {
  // Request-scoped identity: every span recorded below (and the
  // histogram exemplars at the bottom) carries this id, so a tail bucket
  // in the latency histogram resolves to this request's span tree in the
  // flushed trace.
  const obs::TraceContext trace(trace_id != 0 ? trace_id : obs::NewTraceId());
  // Head-sampling: only every trace_sample_every-th request records spans
  // and exemplar identity — the rest keep their minted id but pay two
  // thread-local writes instead of per-span clock reads, which is what
  // keeps armed tracing within the §5k overhead budget at capacity.
  const size_t sample_every = config_.trace_sample_every;
  const obs::TraceSampleScope sample(
      sample_every <= 1 ||
      trace_tick_.fetch_add(1, std::memory_order_relaxed) % sample_every ==
          0);
  DTREC_TRACE_SPAN("serve_handle");
  const Stopwatch handle_watch;
  Recommendation response;
  response.queue_us = waited_us;

  std::shared_ptr<const ServingModel> model = registry_->Acquire();
  DTREC_CHECK(model != nullptr) << "no model published before serving";

  // Eager cache invalidation on swap. Correctness does not depend on
  // winning this race — cache entries are generation-checked — so a
  // compare_exchange miss against a concurrent observer is fine.
  uint64_t seen = seen_generation_.load(std::memory_order_acquire);
  const uint64_t generation = model->generation();
  if (seen != generation &&
      seen_generation_.compare_exchange_strong(seen, generation,
                                               std::memory_order_acq_rel)) {
    if (seen != 0) swaps_->Increment();
    generation_->Set(static_cast<double>(generation));
    scorer_.InvalidateAll();
  }
  response.generation = generation;

  const size_t k =
      std::min(request.k > 0 ? request.k : config_.default_k,
               model->num_items());
  const double deadline_ms = request.deadline_ms >= 0
                                 ? request.deadline_ms
                                 : config_.default_deadline_ms;
  const double deadline_us = deadline_ms >= 0 ? deadline_ms * 1e3 : -1.0;

  const Stopwatch stage_watch;
  if (forced == DegradeReason::kQueueShed) {
    // Refused at the front door: bottom rung, empty slate, O(1).
    response.rung = ServeRung::kShed;
    response.reason = DegradeReason::kQueueShed;
  } else if (deadline_us >= 0 && waited_us >= deadline_us) {
    // Budget burned in the queue: serve the precomputed popularity
    // ranking instead of burning more time on a full scoring pass.
    PopularitySlate(*model, k, DegradeReason::kDeadlineMiss, &response);
  } else if (request.user >= model->num_users()) {
    // No row for this user in the pinned model (a cold-start id, or one a
    // swap to a smaller checkpoint dropped): the cold-start answer is the
    // popularity ranking. The scorer and the cache never see the id.
    PopularitySlate(*model, k, DegradeReason::kUnknownUser, &response);
  } else {
    DTREC_TRACE_SPAN("serve_score");
    response.items =
        scorer_.TopK(*model, request.user, k, &response.cache_hit);
    response.rung =
        response.cache_hit ? ServeRung::kCachedSlate : ServeRung::kFullTopK;
    (response.cache_hit ? cache_hits_ : cache_misses_)->Increment();
  }
  response.score_us = stage_watch.ElapsedMicros();
  response.total_us = waited_us + handle_watch.ElapsedMicros();

  CountResponse(response);
  // CurrentTraceId() (not trace.id()): it reads 0 for a sampled-out
  // request, so every exemplar that lands in a bucket names a trace id
  // whose span tree actually exists in the flushed trace.
  const uint64_t exemplar_id = obs::CurrentTraceId();
  queue_hist_->Record(response.queue_us, exemplar_id);
  score_hist_->Record(response.score_us, exemplar_id);
  total_hist_->Record(response.total_us, exemplar_id);
  return response;
}

void RecommendServer::PopularitySlate(const ServingModel& model, size_t k,
                                      DegradeReason reason,
                                      Recommendation* response) {
  DTREC_TRACE_SPAN("serve_degraded");
  response->rung = ServeRung::kPopularity;
  response->reason = reason;
  const auto& ranking = model.popularity_ranking();
  response->items.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    response->items.push_back({ranking[i], model.popularity(ranking[i])});
  }
}

void RecommendServer::CountResponse(const Recommendation& response) {
  requests_->Increment();
  // The rung/reason annotations land as zero-duration spans under the
  // request's TraceContext (CountResponse runs inside Handle), so the
  // exemplar a histogram hands back resolves to a span tree that *names*
  // the ladder outcome, not just its timings.
  switch (response.rung) {
    case ServeRung::kFullTopK:
      rung_full_->Increment();
      obs::TraceNote("rung_full");
      break;
    case ServeRung::kCachedSlate:
      rung_cached_->Increment();
      obs::TraceNote("rung_cached");
      break;
    case ServeRung::kPopularity:
      rung_popularity_->Increment();
      obs::TraceNote("rung_popularity");
      break;
    case ServeRung::kShed:
      rung_shed_->Increment();
      obs::TraceNote("rung_shed");
      break;
  }
  switch (response.reason) {
    case DegradeReason::kNone:
      break;
    case DegradeReason::kDeadlineMiss:
      deadline_miss_->Increment();
      obs::TraceNote("degrade_deadline_miss");
      break;
    case DegradeReason::kQueueShed:
      queue_shed_->Increment();
      obs::TraceNote("degrade_queue_shed");
      break;
    case DegradeReason::kUnknownUser:
      unknown_user_->Increment();
      obs::TraceNote("degrade_unknown_user");
      break;
  }
}

ServerStats RecommendServer::Snapshot() const {
  ServerStats stats;
  stats.requests = requests_->Value();
  stats.rung_full = rung_full_->Value();
  stats.rung_cached = rung_cached_->Value();
  stats.rung_popularity = rung_popularity_->Value();
  stats.rung_shed = rung_shed_->Value();
  stats.deadline_miss = deadline_miss_->Value();
  stats.queue_shed = queue_shed_->Value();
  stats.unknown_user = unknown_user_->Value();
  stats.cache_hits = cache_hits_->Value();
  stats.cache_misses = cache_misses_->Value();
  stats.model_swaps = swaps_->Value();
  stats.generation = registry_->generation();
  stats.queue_us = queue_hist_->Summarize();
  stats.score_us = score_hist_->Summarize();
  stats.total_us = total_hist_->Summarize();
  return stats;
}

void RecommendServer::ResetStats() {
  requests_->Reset();
  rung_full_->Reset();
  rung_cached_->Reset();
  rung_popularity_->Reset();
  rung_shed_->Reset();
  deadline_miss_->Reset();
  queue_shed_->Reset();
  unknown_user_->Reset();
  cache_hits_->Reset();
  cache_misses_->Reset();
  swaps_->Reset();
  queue_hist_->Reset();
  score_hist_->Reset();
  total_hist_->Reset();
}

}  // namespace dtrec::serve
