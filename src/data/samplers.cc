#include "data/samplers.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "util/logging.h"

namespace dtrec {

ObservedBatchSampler::ObservedBatchSampler(const RatingDataset& dataset,
                                           size_t batch_size, uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), rng_(seed) {
  DTREC_CHECK_GT(batch_size, 0u);
  order_.resize(dataset.train().size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  NewEpoch();
}

bool ObservedBatchSampler::NextBatch(Batch* batch) {
  DTREC_CHECK(batch != nullptr);
  batch->users.clear();
  batch->items.clear();
  if (cursor_ >= order_.size()) return false;
  const size_t count = std::min(batch_size_, order_.size() - cursor_);
  batch->users.reserve(count);
  batch->items.reserve(count);
  batch->ratings = Matrix(count, 1);
  batch->observed = Matrix(count, 1, 1.0);
  for (size_t i = 0; i < count; ++i) {
    const RatingTriple& t = dataset_.train()[order_[cursor_ + i]];
    batch->users.push_back(t.user);
    batch->items.push_back(t.item);
    batch->ratings(i, 0) = t.rating;
  }
  cursor_ += count;
  return true;
}

void ObservedBatchSampler::NewEpoch() {
  rng_.Shuffle(&order_);
  cursor_ = 0;
}

size_t ObservedBatchSampler::batches_per_epoch() const {
  return (order_.size() + batch_size_ - 1) / batch_size_;
}

FullMatrixBatchSampler::FullMatrixBatchSampler(const RatingDataset& dataset,
                                               uint64_t seed)
    : num_users_(dataset.num_users()),
      num_items_(dataset.num_items()),
      rng_(seed),
      words_per_user_(num_items_ / 64 + (num_items_ % 64 != 0 ? 1 : 0)) {
  DTREC_CHECK_GT(num_users_, 0u);
  DTREC_CHECK_GT(num_items_, 0u);
  // The index spans every cell of the |U|×|I| matrix, 12 bytes (a word and
  // its rank) per 64 cells; a size whose byte count overflows is refused
  // here rather than wrapping into a short index.
  constexpr size_t kIndexBytesPerWord = sizeof(uint64_t) + sizeof(uint32_t);
  DTREC_CHECK_LE(words_per_user_, SIZE_MAX / kIndexBytesPerWord / num_users_)
      << "a " << num_users_ << " x " << num_items_
      << " observed-cell bitmap does not fit in memory";
  const std::vector<RatingTriple>& train = dataset.train();
  DTREC_CHECK_LE(train.size(), size_t{UINT32_MAX});  // ranks are 32-bit
  observed_.assign(num_users_ * words_per_user_, 0);
  for (const RatingTriple& t : train) {
    DTREC_CHECK_LT(t.user, num_users_);
    DTREC_CHECK_LT(t.item, num_items_);
    observed_[t.user * words_per_user_ + t.item / 64] |=
        uint64_t{1} << (t.item % 64);
  }
  rank_.resize(observed_.size());
  uint32_t cells = 0;
  for (size_t w = 0; w < observed_.size(); ++w) {
    rank_[w] = cells;
    cells += static_cast<uint32_t>(std::popcount(observed_[w]));
  }
  ratings_.resize(cells);
  // Assigning in train order leaves each cell holding its last rating.
  for (const RatingTriple& t : train) {
    const size_t w = t.user * words_per_user_ + t.item / 64;
    const uint64_t below = (uint64_t{1} << (t.item % 64)) - 1;
    ratings_[rank_[w] + std::popcount(observed_[w] & below)] = t.rating;
  }
}

Batch FullMatrixBatchSampler::Sample(size_t batch_size) {
  Batch batch;
  batch.users.reserve(batch_size);
  batch.items.reserve(batch_size);
  batch.ratings = Matrix(batch_size, 1);
  batch.observed = Matrix(batch_size, 1);
  for (size_t i = 0; i < batch_size; ++i) {
    const size_t u = rng_.UniformIndex(num_users_);
    const size_t it = rng_.UniformIndex(num_items_);
    batch.users.push_back(u);
    batch.items.push_back(it);
    double rating = 0.0;
    if (Lookup(u, it, &rating)) {
      batch.ratings(i, 0) = rating;
      batch.observed(i, 0) = 1.0;
    }
  }
  return batch;
}

bool FullMatrixBatchSampler::Lookup(size_t user, size_t item,
                                    double* rating) const {
  if (user >= num_users_ || item >= num_items_) return false;
  const size_t w = user * words_per_user_ + item / 64;
  const uint64_t bit = uint64_t{1} << (item % 64);
  if ((observed_[w] & bit) == 0) return false;
  if (rating != nullptr) {
    *rating = ratings_[rank_[w] + std::popcount(observed_[w] & (bit - 1))];
  }
  return true;
}

Batch MakeFullObservedBatch(const RatingDataset& dataset) {
  Batch batch;
  const size_t n = dataset.train().size();
  batch.users.reserve(n);
  batch.items.reserve(n);
  batch.ratings = Matrix(n, 1);
  batch.observed = Matrix(n, 1, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const RatingTriple& t = dataset.train()[i];
    batch.users.push_back(t.user);
    batch.items.push_back(t.item);
    batch.ratings(i, 0) = t.rating;
  }
  return batch;
}

}  // namespace dtrec
