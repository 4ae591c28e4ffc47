#ifndef DTREC_SERVE_MODEL_REGISTRY_H_
#define DTREC_SERVE_MODEL_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "serve/circuit_breaker.h"
#include "serve/serving_model.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace dtrec::serve {

/// Shape contract for restoring a DisentangledEmbeddings checkpoint (the
/// checkpoint format carries raw matrices, not shapes — see
/// core/checkpoint.h).
struct DisentangledShape {
  size_t num_users = 0;
  size_t num_items = 0;
  size_t total_dim = 0;    ///< K
  size_t primary_dim = 0;  ///< A; 0 → 3K/4, the trainer default
  bool use_bias = false;
};

/// Holds the current serving model and hot-swaps it without downtime.
///
/// TryPublish() sanity-probes the candidate (finite scores on canary
/// users, a popularity ranking covering the catalogue) and *rejects* it —
/// keeping the live model serving — instead of publishing a model that
/// would NaN every slate. Accepted candidates are stamped with the next
/// generation number and swapped in under a mutex; Acquire() returns a
/// copy of the current `shared_ptr<const ServingModel>`. A request
/// therefore pins whichever model was live when it started — swaps never
/// tear a model mid-request, and the old model is freed when its last
/// in-flight request drops the reference.
///
/// The publish path is guarded by a circuit breaker (`swap_breaker()`):
/// repeated rejected candidates (a trainer gone bad, a corrupted
/// checkpoint feed) open the breaker and later publish attempts fail fast
/// without even probing, until a half-open probe publish succeeds. The
/// previous generation is retained, so an operator (or a shadow-eval
/// gate) can RollbackToPrevious() — republishing the prior model under a
/// *fresh* generation so score caches invalidate normally.
///
/// Generations start at 1 and increase monotonically; `generation()`
/// reads an atomic and is safe to poll from any thread (the serving
/// layer uses it to invalidate score caches after a swap).
class ModelRegistry {
 public:
  /// `breaker_clock` is injectable for deterministic backoff tests.
  explicit ModelRegistry(CircuitBreakerConfig breaker_config = {},
                         CircuitBreaker::ClockFn breaker_clock =
                             CircuitBreaker::ClockFn());

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Probes `model` and, on a finite-score bill of health, publishes it as
  /// the new serving model under the next generation. On a failed probe
  /// (or an open swap breaker) the registry is untouched: the previous
  /// generation keeps serving. Failpoint site `serve/swap` can inject
  /// probe failures.
  Status TryPublish(ServingModel model, uint64_t* generation_out = nullptr);

  /// Publishes `model`, DTREC_CHECK-ing that the probe passed; returns the
  /// assigned generation. The convenience path for trusted callers (tests,
  /// benches) whose models are well-formed by construction.
  uint64_t Publish(ServingModel model);

  /// Republishes the generation that was live before the last successful
  /// publish, under a fresh generation number (so caches invalidate
  /// normally). FailedPrecondition when no previous generation exists.
  /// Bypasses the probe and the breaker: the previous model already
  /// passed. Consecutive rollbacks toggle between the last two models.
  Status RollbackToPrevious(uint64_t* generation_out = nullptr);

  /// The current model, or nullptr before the first Publish. The returned
  /// pointer stays valid (and the model immutable) for as long as the
  /// caller holds it, across any number of subsequent swaps.
  std::shared_ptr<const ServingModel> Acquire() const;

  /// Generation of the latest published model; 0 before the first.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// The cheap pre-publish health check: non-empty factors, a popularity
  /// ranking covering the catalogue, and finite scores for a handful of
  /// canary (user, item) pairs. Exposed for tests and for publishers that
  /// want to pre-screen before shipping a checkpoint.
  static Status SanityProbe(const ServingModel& model);

  /// Breaker over the publish path (open = publishes fail fast).
  const CircuitBreaker& swap_breaker() const { return swap_breaker_; }

  /// Restores a DisentangledEmbeddings checkpoint from `path` (shapes per
  /// `shape`), builds its serving snapshot, and publishes it through
  /// TryPublish — a corrupt or NaN checkpoint is rejected and the live
  /// model keeps serving. This is the hot-reload path a trainer triggers
  /// after writing a new checkpoint.
  Status PublishDisentangledCheckpoint(const std::string& path,
                                       const DisentangledShape& shape,
                                       std::vector<double> item_popularity,
                                       uint64_t* generation_out = nullptr);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ServingModel> current_ DTREC_GUARDED_BY(mu_);
  std::shared_ptr<const ServingModel> previous_ DTREC_GUARDED_BY(mu_);
  std::atomic<uint64_t> generation_{0};  // lock-free readers via generation()
  CircuitBreaker swap_breaker_;
};

}  // namespace dtrec::serve

#endif  // DTREC_SERVE_MODEL_REGISTRY_H_
