#ifndef DTREC_DATA_SAMPLERS_H_
#define DTREC_DATA_SAMPLERS_H_

#include <cstdint>
#include <vector>

#include "data/rating_dataset.h"
#include "tensor/matrix.h"
#include "util/random.h"

namespace dtrec {

/// One training mini-batch of user-item cells.
///
/// `ratings` holds the observed rating for cells with observed=1 and 0 for
/// unobserved cells (whose true rating is, by definition of the MNAR
/// problem, unknown to the trainer).
struct Batch {
  std::vector<size_t> users;
  std::vector<size_t> items;
  Matrix ratings;   // B×1
  Matrix observed;  // B×1, entries in {0,1}

  size_t size() const { return users.size(); }
};

/// Epoch-based shuffled mini-batches over the observed training triples.
/// Every batch has observed == 1 everywhere. Used by observed-only
/// objectives (naive MF) and by the error-imputation heads.
class ObservedBatchSampler {
 public:
  /// Keeps a reference to `dataset`; it must outlive the sampler.
  ObservedBatchSampler(const RatingDataset& dataset, size_t batch_size,
                       uint64_t seed);

  /// Fills `batch` with the next mini-batch of the current epoch; returns
  /// false (leaving `batch` empty) when the epoch is exhausted.
  bool NextBatch(Batch* batch);

  /// Reshuffles and restarts iteration.
  void NewEpoch();

  size_t batches_per_epoch() const;

 private:
  const RatingDataset& dataset_;
  size_t batch_size_;
  Rng rng_;
  std::vector<size_t> order_;
  size_t cursor_ = 0;
};

/// Uniform sampling of cells from the full matrix D = U×I, with observed
/// ratings looked up from the train split. This materializes the paper's
/// "1/|D| Σ_{(u,i)∈D}" losses stochastically: the mean over a uniform
/// batch is an unbiased estimate of the mean over D.
class FullMatrixBatchSampler {
 public:
  FullMatrixBatchSampler(const RatingDataset& dataset, uint64_t seed);

  /// Draws `batch_size` cells uniformly with replacement.
  Batch Sample(size_t batch_size);

  /// True observed-rating lookup; returns false for unobserved cells. A
  /// cell listed more than once in the train split reads its last rating.
  bool Lookup(size_t user, size_t item, double* rating) const;

  size_t num_users() const { return num_users_; }
  size_t num_items() const { return num_items_; }

  /// Direct access to the sampling stream, so training resume can restore
  /// the generator to its mid-run state (util/random.h Rng::State).
  Rng* mutable_rng() { return &rng_; }

 private:
  size_t num_users_;
  size_t num_items_;
  Rng rng_;
  // Observed train cells grouped by user (CSR): user u's cells are
  // [user_begin_[u], user_begin_[u + 1]) of items_ / ratings_, with items
  // ascending and unique, so Lookup is a binary search in one short row.
  std::vector<size_t> user_begin_;
  std::vector<size_t> items_;
  std::vector<double> ratings_;
};

/// Builds one batch containing every observed training triple (small
/// datasets only) — used by full-batch trainers and tests.
Batch MakeFullObservedBatch(const RatingDataset& dataset);

}  // namespace dtrec

#endif  // DTREC_DATA_SAMPLERS_H_
