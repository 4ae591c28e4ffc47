#include "serve/model_registry.h"

#include <cmath>
#include <utility>

#include "core/checkpoint.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace dtrec::serve {

namespace {

/// The probe body lives in its own Status-returning function so the
/// `serve/swap` failpoint can inject an error ahead of the real checks.
Status ProbeCandidate(const ServingModel& model) {
  DTREC_FAILPOINT_STATUS("serve/swap");
  return ModelRegistry::SanityProbe(model);
}

}  // namespace

ModelRegistry::ModelRegistry(CircuitBreakerConfig breaker_config,
                             CircuitBreaker::ClockFn breaker_clock)
    : swap_breaker_(breaker_config, std::move(breaker_clock)) {}

Status ModelRegistry::SanityProbe(const ServingModel& model) {
  if (model.num_users() == 0 || model.num_items() == 0) {
    return Status::InvalidArgument("candidate model has an empty catalogue");
  }
  if (model.popularity_ranking().size() != model.num_items()) {
    return Status::InvalidArgument(
        "candidate popularity ranking does not cover the catalogue");
  }
  // Canary scoring: a model whose head produces NaN/Inf anywhere tends to
  // produce it everywhere (a NaN parameter poisons every dot product it
  // touches), so a handful of corner probes catches the real failure mode
  // — a checkpoint of a diverged trainer — at O(canary·dim) cost.
  const size_t canary_users = std::min<size_t>(model.num_users(), 4);
  const size_t canary_items = std::min<size_t>(model.num_items(), 16);
  for (size_t u = 0; u < canary_users; ++u) {
    for (size_t i = 0; i < canary_items; ++i) {
      const double score = model.Score(u, i);
      if (!std::isfinite(score)) {
        return Status::InvalidArgument(StrFormat(
            "candidate scores non-finite value at canary (%zu, %zu)", u, i));
      }
    }
  }
  for (size_t r = 0; r < canary_items; ++r) {
    if (!std::isfinite(model.popularity(model.popularity_ranking()[r]))) {
      return Status::InvalidArgument(
          "candidate popularity prior is non-finite");
    }
  }
  return Status::OK();
}

Status ModelRegistry::TryPublish(ServingModel model,
                                 uint64_t* generation_out) {
  if (!swap_breaker_.Allow()) {
    return Status::FailedPrecondition(
        "swap breaker open: rejecting candidate publish");
  }
  Status probe;
  try {
    probe = ProbeCandidate(model);
  } catch (...) {
    // A simulated kill (failpoint abort) mid-probe still concludes the
    // breaker protocol before unwinding to the publisher's crash harness.
    swap_breaker_.RecordFailure();
    throw;
  }
  if (!probe.ok()) {
    swap_breaker_.RecordFailure();
    return probe;
  }
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    generation = generation_.load(std::memory_order_relaxed) + 1;
    model.set_generation(generation);
    previous_ = std::move(current_);
    current_ = std::make_shared<const ServingModel>(std::move(model));
    generation_.store(generation, std::memory_order_release);
  }
  swap_breaker_.RecordSuccess();
  if (generation_out != nullptr) *generation_out = generation;
  return Status::OK();
}

uint64_t ModelRegistry::Publish(ServingModel model) {
  uint64_t generation = 0;
  const Status st = TryPublish(std::move(model), &generation);
  DTREC_CHECK(st.ok()) << "Publish rejected: " << st;
  return generation;
}

Status ModelRegistry::RollbackToPrevious(uint64_t* generation_out) {
  std::lock_guard<std::mutex> lock(mu_);
  if (previous_ == nullptr) {
    return Status::FailedPrecondition(
        "no previous generation to roll back to");
  }
  const uint64_t generation =
      generation_.load(std::memory_order_relaxed) + 1;
  ServingModel restored = *previous_;  // copy: previous_ stays pinnable
  restored.set_generation(generation);
  previous_ = std::move(current_);
  current_ = std::make_shared<const ServingModel>(std::move(restored));
  generation_.store(generation, std::memory_order_release);
  if (generation_out != nullptr) *generation_out = generation;
  return Status::OK();
}

std::shared_ptr<const ServingModel> ModelRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Status ModelRegistry::PublishDisentangledCheckpoint(
    const std::string& path, const DisentangledShape& shape,
    std::vector<double> item_popularity, uint64_t* generation_out) {
  if (shape.num_users == 0 || shape.num_items == 0 || shape.total_dim == 0) {
    return Status::InvalidArgument("checkpoint shape must be fully specified");
  }
  const size_t primary =
      shape.primary_dim > 0 ? shape.primary_dim : (3 * shape.total_dim) / 4;
  // The Create() initialization is overwritten wholesale by the load; the
  // Rng only satisfies the constructor contract.
  Rng scratch_rng(1);
  DisentangledEmbeddings emb = DisentangledEmbeddings::Create(
      shape.num_users, shape.num_items, shape.total_dim, primary,
      /*init_scale=*/0.1, /*bias_init=*/0.0, &scratch_rng, shape.use_bias);
  DTREC_RETURN_IF_ERROR(LoadDisentangledEmbeddings(path, &emb));
  auto model =
      ServingModel::FromDisentangled(emb, std::move(item_popularity));
  if (!model.ok()) return model.status();
  return TryPublish(std::move(model).value(), generation_out);
}

}  // namespace dtrec::serve
