// Serving half of a workload: open-loop top-K traffic against a
// RecommendServer on a 30k-item catalogue, timed from each request's due
// time, plus closed-loop capacity chunks. Every 64th slate is checked
// against serve::BruteForceTopK.

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <memory>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/model_registry.h"
#include "serve/recommend_server.h"
#include "serve/serving_model.h"
#include "serve/topk_scorer.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace dtrec::perf {
namespace {

using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

constexpr size_t kItems = 30000;
constexpr size_t kDim = 32;
constexpr size_t kUsers = 100000;
constexpr size_t kCacheSlates = 4096;
constexpr size_t kSlateK = 10;  // ServerConfig::default_k
constexpr size_t kCheckEvery = 64;
constexpr size_t kOutstanding = 4;  // closed-loop requests in flight
/// Web-cache request traces fit Zipf exponents of about 0.6–0.8. At 0.8 the
/// 4096-slate cache answers about a third of requests, so the median
/// request is a miss and p50 times the sweep, not the pool's wake-up.
constexpr double kZipfExponent = 0.8;
constexpr size_t kSideUsers = 2000;  // users timed in each side pass

struct TrafficShape {
  double rate;  ///< open-loop arrivals per second (Poisson)
  /// The generator spins this long before each due time instead of
  /// sleeping: a sleeping thread wakes tens of microseconds late, more when
  /// the host has parked its idle vCPU, and that would be charged to every
  /// request. A fifth of the mean gap, so the generator mostly sleeps.
  std::chrono::microseconds spin;
  size_t round_requests;
  size_t chunk_requests;  ///< closed-loop requests after each round
  size_t rounds_per_block;
  size_t warmup_requests;
};

TrafficShape Shape(const RunOptions& options) {
  // Both rates keep the two workers near 20% busy: every cold request and
  // two in three zipf requests pay a sweep of about 0.5 ms. A round of
  // 1000 requests lasts 1.25 s (cold) or 1 s (zipf); each is followed by a
  // closed-loop chunk. A block holds 3–4 s of serving, so a run has
  // several fit pairs and a dozen or more rounds.
  TrafficShape shape = options.workload->traffic == Traffic::kCold
                           ? TrafficShape{800.0, 250us, 1000, 1000, 2, 500}
                           : TrafficShape{1000.0, 200us, 1000, 1000, 3, 10000};
  if (options.smoke) {
    shape.round_requests /= 20;
    shape.chunk_requests /= 20;
    shape.rounds_per_block = 1;
    shape.warmup_requests /= 20;
  }
  return shape;
}

/// The benchmark's own inputs: factors and popularity. Generating them is
/// not part of set-up time.
struct Catalogue {
  Matrix users;
  Matrix items;
  std::vector<double> popularity;
};

Catalogue MakeCatalogue(Traffic traffic, uint64_t seed) {
  Rng rng(seed);
  Catalogue c;
  c.users = Matrix::RandomNormal(kUsers, kDim, 1.0, &rng);
  c.items = Matrix::RandomNormal(kItems, kDim, 1.0, &rng);
  if (traffic == Traffic::kCold) {
    // Item norms decay as (1+i)^-0.5: a head the norm-bound sweep can exit
    // after. The zipf catalogue keeps flat norms, where it cannot.
    for (size_t i = 0; i < kItems; ++i) {
      const double scale = std::pow(1.0 + static_cast<double>(i), -0.5);
      double* row = c.items.row(i);
      for (size_t d = 0; d < kDim; ++d) row[d] *= scale;
    }
  }
  c.popularity.resize(kItems);
  for (size_t i = 0; i < kItems; ++i) {
    c.popularity[i] = static_cast<double>(kItems - i);
  }
  return c;
}

/// Users in request order: without replacement from a seeded permutation
/// (cold), or Zipf ranks mapped through that permutation (zipf).
class UserStream {
 public:
  UserStream(Traffic traffic, uint64_t seed)
      : traffic_(traffic), rng_(seed), order_(kUsers) {
    std::iota(order_.begin(), order_.end(), size_t{0});
    rng_.Shuffle(&order_);
    if (traffic_ == Traffic::kZipf) {
      cdf_.resize(kUsers);
      double total = 0.0;
      for (size_t r = 0; r < kUsers; ++r) {
        total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
        cdf_[r] = total;
      }
      for (double& v : cdf_) v /= total;
    }
  }

  size_t Next() {
    if (traffic_ == Traffic::kCold) {
      // Wrapping around keeps every request a miss: a user recurs only
      // after 100k others, far past the 4096-slate cache.
      return order_[next_++ % kUsers];
    }
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng_.Uniform());
    return order_[std::min<size_t>(it - cdf_.begin(), kUsers - 1)];
  }

 private:
  const Traffic traffic_;
  Rng rng_;
  std::vector<size_t> order_;
  std::vector<double> cdf_;
  size_t next_ = 0;
};

/// Registry, model and server, destroyed server first.
struct ServingStack {
  obs::MetricsRegistry metrics;
  serve::ModelRegistry registry;
  std::unique_ptr<serve::RecommendServer> server;
};

struct Sent {
  size_t user = 0;
  double lag_us = 0.0;     ///< Submit() start minus due time
  double submit_us = 0.0;  ///< wall time of the Submit() call
  std::future<serve::Recommendation> response;
};

/// Sleeps until `spin` before `due`, then spins until it.
void WaitUntil(Clock::time_point due, std::chrono::microseconds spin) {
  if (due - Clock::now() > spin) std::this_thread::sleep_until(due - spin);
  while (Clock::now() < due) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

class ServePhase : public Phase {
 public:
  ServePhase(const RunOptions& options, RunResult* result)
      : options_(options),
        result_(result),
        shape_(Shape(options)),
        catalogue_(MakeCatalogue(options.workload->traffic, options.seed)),
        users_(options.workload->traffic, options.seed + 1),
        arrivals_(options.seed + 2) {}

  /// FromFactors + Publish + server construction, five times, then the
  /// untimed warm-up traffic. The traced run also times the sweep side pass
  /// here, so that --seconds covers it.
  void SetUp(std::vector<double>* setup_s) {
    // The first two copies of the factors grow the heap and read slower;
    // the median of five skips them.
    constexpr int kSetUps = 5;
    for (int rep = 0; rep < kSetUps; ++rep) {
      stack_.reset();
      Matrix users = catalogue_.users;
      Matrix items = catalogue_.items;
      std::vector<double> popularity = catalogue_.popularity;
      auto stack = std::make_unique<ServingStack>();

      const Stopwatch watch;
      auto model = serve::ServingModel::FromFactors(
          std::move(users), std::move(items), Matrix(), Matrix(),
          std::move(popularity));
      DTREC_CHECK(model.ok()) << model.status();
      stack->registry.Publish(std::move(model).value());
      model_build_s_.push_back(watch.ElapsedSeconds());
      serve::ServerConfig config;
      config.num_threads = 2;
      config.cache.capacity = kCacheSlates;
      config.metrics = &stack->metrics;
      stack->server = std::make_unique<serve::RecommendServer>(
          &stack->registry, std::move(config));
      setup_s->push_back(watch.ElapsedSeconds());
      stack_ = std::move(stack);
    }
    model_ = stack_->registry.Acquire();
    if (options_.traced) SweepPass();
    // A generator sleeping with the default 50 µs timer slack wakes late
    // by about that much; this thread only waits and submits.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ClosedLoop(shape_.warmup_requests, &warm_users_);
  }

  /// Open-loop rounds at the fixed rate, each followed by a closed-loop
  /// chunk.
  void Block() override {
    for (size_t r = 0; r < shape_.rounds_per_block; ++r) {
      Round();
      const Stopwatch closed;
      ClosedLoop(shape_.chunk_requests, nullptr);
      chunk_rps_.push_back(static_cast<double>(shape_.chunk_requests) /
                           closed.ElapsedSeconds());
      std::fprintf(stderr, "%s chunk %zu: %.0f req/s\n",
                   options_.workload->name, chunk_rps_.size(),
                   chunk_rps_.back());
      CheckSlates();
    }
  }

  void Finish() override {
    if (!options_.traced) {
      result_->Set("p50_ms", Median(round_p50_));
      result_->Set("throughput_rps", Median(chunk_rps_));
      return;
    }
    // Every request of every round, stalled rounds included: the tail a
    // user sees. Too host-bound to gate (see README), so it is a
    // per-layer row.
    result_->Set("serve.latency_ms.p99", Percentile(latency_ms_, 0.99));
    result_->Set("serve.model_build_s", Median(model_build_s_));
    result_->Set("serve.submit_us.p50", Percentile(submit_us_, 0.50));
    result_->Set("serve.submit_us.p99", Percentile(submit_us_, 0.99));
    result_->Set("util.pool_wait_us.p50", Percentile(queue_us_, 0.50));
    result_->Set("util.pool_wait_us.p99", Percentile(queue_us_, 0.99));
    result_->Set("serve.service_us.p50", Percentile(service_us_, 0.50));
    result_->Set("serve.service_us.p99", Percentile(service_us_, 0.99));
    result_->Set("serve.cache_hit_rate",
                 static_cast<double>(cache_hits_) /
                     static_cast<double>(round_users_.size()));
    result_->Set("serve.generator_lag_us.p99", Percentile(lag_us_, 0.99));
    const auto self_per_span = [&](const char* span) {
      const uint64_t n = spans_.Count(span);
      return n == 0 ? 0.0 : spans_.Self(span) / static_cast<double>(n);
    };
    result_->Set("serve.handle_self_us", self_per_span("serve_handle"));
    result_->Set("serve.score_self_us", self_per_span("serve_score"));
    CachePass();
  }

 private:
  /// One open-loop round: Poisson arrivals at the fixed rate, each request
  /// timed from its due time to its response.
  void Round() {
    serve::RecommendServer& server = *stack_->server;
    if (options_.traced) obs::EnableTracing();
    std::vector<Sent> sent(shape_.round_requests);
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
    double offset_s = 0.0;
    for (Sent& s : sent) {
      offset_s -= std::log1p(-arrivals_.Uniform()) / shape_.rate;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(offset_s));
      s.user = users_.Next();
      WaitUntil(due, shape_.spin);
      const Clock::time_point begin = Clock::now();
      s.response = server.Submit({s.user});
      const Clock::time_point end = Clock::now();
      s.lag_us = std::chrono::duration<double, std::micro>(begin - due).count();
      s.submit_us =
          std::chrono::duration<double, std::micro>(end - begin).count();
    }

    // Latency = (Submit() start − due) + the response's own submit-to-
    // response stopwatch, so a cache hit is not charged for a miss queued
    // ahead of it, as waiting on the futures in order would.
    std::vector<double> latency_ms, lag_us;
    for (Sent& s : sent) {
      const serve::Recommendation rec = Complete(&s);
      latency_ms.push_back((s.lag_us + rec.total_us) / 1e3);
      lag_us.push_back(s.lag_us);
      // Per-request samples feed only the per-layer rows; the untraced run
      // keeps none, so its memory does not grow with its length.
      if (!options_.traced) continue;
      latency_ms_.push_back(latency_ms.back());
      submit_us_.push_back(s.submit_us);
      queue_us_.push_back(rec.queue_us);
      service_us_.push_back(rec.total_us - rec.queue_us);
      cache_hits_ += rec.cache_hit ? 1 : 0;
      round_users_.push_back(s.user);
      lag_us_.push_back(s.lag_us);
    }
    if (options_.traced) {
      obs::DisableTracing();
      CollectTrace(result_, &spans_);
    }
    round_p50_.push_back(Percentile(latency_ms, 0.50));
    const double lag_p99 = Percentile(lag_us, 0.99);
    std::fprintf(stderr,
                 "%s round %zu: p50 %.4f ms, p99 %.4f ms, generator lag p99 "
                 "%.0f us%s\n",
                 options_.workload->name, round_p50_.size(), round_p50_.back(),
                 Percentile(latency_ms, 0.99), lag_p99,
                 lag_p99 > 1000.0 ? " (lag above 1 ms: the host stalled)" : "");
  }

  /// Keeps kOutstanding requests in flight until `n` have completed.
  void ClosedLoop(size_t n, std::vector<size_t>* users) {
    serve::RecommendServer& server = *stack_->server;
    std::deque<Sent> inflight;
    for (size_t i = 0; i < n; ++i) {
      if (inflight.size() == kOutstanding) {
        Complete(&inflight.front());
        inflight.pop_front();
      }
      Sent s;
      s.user = users_.Next();
      if (users != nullptr) users->push_back(s.user);
      s.response = server.Submit({s.user});
      inflight.push_back(std::move(s));
    }
    for (Sent& s : inflight) Complete(&s);
  }

  /// Waits for a response, counts it, and keeps every 64th served slate
  /// for the oracle check. Shed and popularity answers count as failed.
  serve::Recommendation Complete(Sent* sent) {
    serve::Recommendation rec = sent->response.get();
    ++result_->attempted;
    if (rec.degraded()) {
      ++result_->failed;
    } else if (completed_++ % kCheckEvery == 0) {
      kept_.emplace_back(sent->user, rec.items);
    }
    return rec;
  }

  /// Compares the kept slates with BruteForceTopK: ids and double scores
  /// must be exactly equal.
  void CheckSlates() {
    for (const auto& [user, items] : kept_) {
      auto it = oracle_.find(user);
      if (it == oracle_.end()) {
        // BruteForceTopK's slate keeps the capacity of its catalogue-sized
        // sort buffer (480 KB here); the cached copy keeps only k items,
        // so the oracle does not grow peak_rss_mb with the run's length.
        const std::vector<serve::ScoredItem> slate =
            serve::BruteForceTopK(*model_, user, kSlateK);
        it = oracle_.emplace(user, std::vector<serve::ScoredItem>(
                                       slate.begin(), slate.end()))
                 .first;
      }
      bool equal = items.size() == it->second.size();
      for (size_t i = 0; equal && i < items.size(); ++i) {
        equal = items[i].item == it->second[i].item &&
                items[i].score == it->second[i].score;
      }
      if (!equal) ++result_->failed;
      result_->Check(equal, "slate for user " + std::to_string(user) +
                                " differs from BruteForceTopK");
    }
    kept_.clear();
  }

  /// Times the sweep directly, outside the server, for the first users of
  /// the workload's user sequence, on a cacheless scorer.
  void SweepPass() {
    UserStream users(options_.workload->traffic, options_.seed + 1);
    serve::TopKScorer cacheless(serve::ScoreCacheConfig{.capacity = 0});
    std::vector<double> sweep_us;
    const size_t n = options_.smoke ? kSideUsers / 20 : kSideUsers;
    for (size_t i = 0; i < n; ++i) {
      const size_t user = users.Next();
      const Stopwatch watch;
      const auto slate = cacheless.ScoreFresh(*model_, user, kSlateK);
      sweep_us.push_back(watch.ElapsedMicros());
      result_->Check(slate.size() == kSlateK, "short slate from ScoreFresh");
    }
    result_->Set("serve.sweep_us.p50", Percentile(sweep_us, 0.50));
    result_->Set("serve.sweep_us.p99", Percentile(sweep_us, 0.99));
  }

  /// Times the cache stages directly, outside the server: replays the
  /// workload's user sequence through a cache of the server's size, where
  /// a miss stores a slate, as the server does after a sweep.
  void CachePass() {
    serve::TopKScorer cache(
        serve::ScoreCacheConfig{.capacity = kCacheSlates});
    const uint64_t generation = model_->generation();
    const std::vector<serve::ScoredItem> slate(kSlateK);
    std::vector<serve::ScoredItem> out;
    for (size_t user : warm_users_) {
      if (!cache.CachedSlate(generation, user, kSlateK, &out)) {
        cache.StoreSlate(generation, user, slate);
      }
    }
    std::vector<double> lookup_us, store_us;
    for (size_t user : round_users_) {
      const Stopwatch lookup;
      const bool hit = cache.CachedSlate(generation, user, kSlateK, &out);
      lookup_us.push_back(lookup.ElapsedMicros());
      if (!hit) {
        const Stopwatch store;
        cache.StoreSlate(generation, user, slate);
        store_us.push_back(store.ElapsedMicros());
      }
    }
    result_->Set("serve.cache_lookup_us.p50", Percentile(lookup_us, 0.50));
    result_->Set("serve.cache_store_us.p50", Percentile(store_us, 0.50));
  }

  const RunOptions& options_;
  RunResult* const result_;
  const TrafficShape shape_;
  const Catalogue catalogue_;
  UserStream users_;
  Rng arrivals_;
  std::unique_ptr<ServingStack> stack_;
  std::shared_ptr<const serve::ServingModel> model_;
  std::vector<double> model_build_s_;
  std::vector<size_t> warm_users_, round_users_;
  std::vector<double> round_p50_, chunk_rps_;
  std::vector<double> latency_ms_, submit_us_, queue_us_, service_us_, lag_us_;
  uint64_t cache_hits_ = 0;
  FoldedSpans spans_;
  uint64_t completed_ = 0;
  std::vector<std::pair<size_t, std::vector<serve::ScoredItem>>> kept_;
  std::unordered_map<size_t, std::vector<serve::ScoredItem>> oracle_;
};

}  // namespace

std::unique_ptr<Phase> SetUpServing(const RunOptions& options,
                                    RunResult* result,
                                    std::vector<double>* setup_s) {
  auto phase = std::make_unique<ServePhase>(options, result);
  phase->SetUp(setup_s);
  return phase;
}

}  // namespace dtrec::perf
