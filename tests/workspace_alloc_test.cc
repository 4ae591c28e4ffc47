// Asserts that a DT training step allocates nothing once the trainer's
// autograd workspace has grown: the graph build, Backward and (for
// DT-IPS) the optimizer step reuse the buffers of the step before. This
// binary replaces the global operator new with a counting one, so it is
// kept apart from the other suites.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/dt_dr.h"
#include "core/dt_ips.h"
#include "data/samplers.h"
#include "synth/mnar_generator.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

void* CountedMalloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* CountedAlignedMalloc(std::size_t size, std::align_val_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  const std::size_t alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  return posix_memalign(&p, alignment, size == 0 ? 1 : size) == 0 ? p
                                                                 : nullptr;
}

}  // namespace

// Every form of operator new is replaced, so every pointer the program
// frees came from malloc or posix_memalign, and free is the matching
// release; GCC cannot see that pairing through inlined new-expressions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedMalloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = CountedAlignedMalloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlignedMalloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAlignedMalloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace dtrec {
namespace {

/// Exposes one step of a DT trainer: the graph build plus Backward on its
/// workspace, or the whole TrainStep.
template <typename Trainer>
class StepProbe : public Trainer {
 public:
  using Trainer::Trainer;

  void GraphStep(const Batch& batch) {
    ag::Tape* tape = this->FreshTape();
    tape->Backward(this->BuildStepLoss(tape, batch));
  }
  void FullStep(const Batch& batch) { this->TrainStep(batch); }
};

SimulatedData World() {
  MnarGeneratorConfig config;
  config.num_users = 50;
  config.num_items = 60;
  config.base_logit = -1.5;
  config.seed = 5;
  return MnarGenerator(config).Generate();
}

TrainConfig Config() {
  TrainConfig config;
  config.epochs = 0;  // Fit only sets the trainer up
  config.embedding_dim = 8;
  config.disentangle_dim = 6;
  config.beta = 1e-2;
  config.gamma = 2e-3;
  config.seed = 9;
  return config;
}

/// Allocations `step` makes over three fresh batches, after one warm-up
/// step has grown the workspace.
template <typename Probe, typename Step>
size_t AllocationsAfterWarmUp(Probe* probe, const RatingDataset& dataset,
                              Step step) {
  FullMatrixBatchSampler sampler(dataset, 3);
  std::vector<Batch> batches;
  for (int i = 0; i < 4; ++i) batches.push_back(sampler.Sample(256));
  step(probe, batches[0]);
  g_allocations.store(0);
  g_counting.store(true);
  for (size_t i = 1; i < batches.size(); ++i) step(probe, batches[i]);
  g_counting.store(false);
  return g_allocations.load();
}

TEST(WorkspaceAllocTest, DtIpsStepAllocatesNothingAfterTheFirst) {
  const SimulatedData world = World();
  StepProbe<DtIpsTrainer> trainer(Config());
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  EXPECT_EQ(AllocationsAfterWarmUp(&trainer, world.dataset,
                                   [](auto* t, const Batch& b) {
                                     t->GraphStep(b);
                                   }),
            0u);
  EXPECT_EQ(AllocationsAfterWarmUp(&trainer, world.dataset,
                                   [](auto* t, const Batch& b) {
                                     t->FullStep(b);
                                   }),
            0u);
}

TEST(WorkspaceAllocTest, DtDrGraphAllocatesNothingAfterTheFirst) {
  const SimulatedData world = World();
  StepProbe<DtDrTrainer> trainer(Config());
  ASSERT_TRUE(trainer.Fit(world.dataset).ok());
  EXPECT_EQ(AllocationsAfterWarmUp(&trainer, world.dataset,
                                   [](auto* t, const Batch& b) {
                                     t->GraphStep(b);
                                   }),
            0u);
}

TEST(WorkspaceAllocTest, CounterSeesAllocations) {
  // Guards the test itself: an armed counter must see a vector grow.
  g_allocations.store(0);
  g_counting.store(true);
  std::vector<double>* grown = new std::vector<double>(64);
  g_counting.store(false);
  delete grown;
  EXPECT_GE(g_allocations.load(), 2u);
}

}  // namespace
}  // namespace dtrec
