#ifndef DTREC_CORE_TRAIN_CHECKPOINT_H_
#define DTREC_CORE_TRAIN_CHECKPOINT_H_

#include <string>
#include <vector>

#include "optim/adam.h"
#include "tensor/matrix.h"
#include "util/random.h"
#include "util/status.h"

namespace dtrec {

/// Full-state training checkpoint: everything the epoch loop mutates, so a
/// killed run resumed from the last checkpoint replays the exact trajectory
/// of an uninterrupted one (bit-identical final parameters).
///
/// The resume protocol deliberately snapshots *only* loop-mutated state:
/// on resume the trainer re-runs its deterministic preamble (model
/// construction, Setup(), sampler creation — all seeded from
/// TrainConfig::seed), then overwrites parameters, optimizer slots, and RNG
/// streams from the checkpoint and continues at `next_epoch`. Anything the
/// preamble rebuilds identically (frozen pre-fit propensities, dataset
/// lookups) stays out of the file.
///
/// File format, version 1 (written crash-atomically via WriteFileAtomic):
///
///   magic "DTCK" · u32 version ·
///   u64 len + method name ·
///   u64 next_epoch ·
///   trainer RNG state · sampler RNG state   (each 4×u64 · u8 · f64) ·
///   u64 num_groups ·
///   per group:  u64 len + optimizer name ·
///               u64 num_params · matrix records (tensor/serialization) ·
///               u64 len + optimizer slot blob (Adam::SaveSlots) ·
///   u32 CRC-32 over every preceding byte
///
/// Load verifies the CRC before parsing a single field, then checks method
/// name, optimizer names, parameter counts, and shapes — a checkpoint from
/// a different method/config is rejected with FailedPrecondition, a torn or
/// bit-flipped file with InvalidArgument.

/// One (parameters, optimizer) unit: the matrices stepped together and the
/// Adam holding their slot state. `opt` may be null for parameter groups
/// trained without slot state; such a group records an empty optimizer
/// name and no slot blob.
struct CheckpointGroup {
  std::vector<Matrix*> params;
  Adam* opt = nullptr;
};

/// Loop-cursor state saved alongside the parameter groups.
struct TrainState {
  std::string method;      ///< RecommenderTrainer::name() — identity check
  uint64_t next_epoch = 0; ///< first epoch the resumed run should execute
  Rng::State trainer_rng;
  Rng::State sampler_rng;
};

/// Serializes `state` + `groups` and commits the file crash-atomically.
/// Failpoint sites: "checkpoint/after_header" (between serializing the
/// header and the parameter groups), then the atomic_file/* sites.
Status SaveTrainCheckpoint(const std::string& path, const TrainState& state,
                           const std::vector<CheckpointGroup>& groups);

/// Restores a checkpoint written by SaveTrainCheckpoint into the live
/// `groups` (matrices overwritten in place, slots re-installed) and fills
/// `*state`. `groups` must have the same structure the save side used.
/// NotFound when no file exists at `path` (cold start for retry loops).
Status LoadTrainCheckpoint(const std::string& path, TrainState* state,
                           const std::vector<CheckpointGroup>& groups);

}  // namespace dtrec

#endif  // DTREC_CORE_TRAIN_CHECKPOINT_H_
