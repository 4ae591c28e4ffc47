#ifndef DTREC_OBS_EVENT_LOG_H_
#define DTREC_OBS_EVENT_LOG_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace dtrec::obs {

/// Everything worth knowing about one completed training epoch. Serialized
/// as one JSON object per line (JSONL), schema "dtrec-train-events-v1":
///
///   {"schema": "dtrec-train-events-v1", "method": "DT-DR", "epoch": 3,
///    "steps": 43, "wall_s": 0.812, "lr": 0.05,
///    "losses": {"total": 0.48, "propensity_bce": 0.21, ...},
///    "grad_norm": 1.94,
///    "propensity_clip": {"total": 88064, "fired": 12, "rate": 1.36e-4},
///    "rng_cursor": "0x9e3779b97f4a7c15"}
///
/// `losses` holds per-step means of whatever components the trainer
/// recorded (RecordEpochLoss); `propensity_clip` is the epoch-local delta
/// of the process-wide clip counters; `rng_cursor` fingerprints the
/// trainer RNG state after the epoch, so two runs can be diffed for
/// divergence epoch by epoch.
struct TrainEvent {
  std::string method;
  uint64_t epoch = 0;
  uint64_t steps = 0;
  double wall_seconds = 0.0;
  double learning_rate = 0.0;
  std::vector<std::pair<std::string, double>> losses;
  double grad_norm = 0.0;
  uint64_t clip_total = 0;
  uint64_t clip_fired = 0;
  double clip_rate = 0.0;
  uint64_t rng_cursor = 0;
};

/// One JSONL line (newline-terminated) for `event`.
std::string TrainEventToJsonLine(const TrainEvent& event);

/// Append-only JSONL sink for TrainEvents. Each Append writes and flushes
/// one line, so a crashed run keeps every completed epoch's record — the
/// stream is diagnostic output, deliberately not crash-atomic (a torn
/// final line is tolerated by the validator's line-wise parse).
class TrainEventLog {
 public:
  /// Opens `path` for writing; `append` continues an existing stream
  /// (resume) instead of truncating it.
  Status Open(const std::string& path, bool append);

  Status Append(const TrainEvent& event);

  bool is_open() const { return out_.is_open(); }

 private:
  std::string path_;
  std::ofstream out_;  // dtrec-analyze: allow(raw-ofstream-write)
};

}  // namespace dtrec::obs

#endif  // DTREC_OBS_EVENT_LOG_H_
