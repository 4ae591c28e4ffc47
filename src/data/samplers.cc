#include "data/samplers.h"

#include <algorithm>
#include <numeric>
#include <utility>

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
      rng_(seed) {
  DTREC_CHECK_GT(num_users_, 0u);
  DTREC_CHECK_GT(num_items_, 0u);
  const std::vector<RatingTriple>& train = dataset.train();
  // Train positions sorted by cell, stably, so each duplicate run ends with
  // the rating repeated assignment would keep.
  std::vector<size_t> order(train.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const auto cell = [&](size_t k) {
    return std::make_pair(train[k].user, train[k].item);
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return cell(a) < cell(b); });
  user_begin_.assign(num_users_ + 1, 0);
  items_.reserve(order.size());
  ratings_.reserve(order.size());
  for (size_t k = 0; k < order.size(); ++k) {
    if (k + 1 < order.size() && cell(order[k]) == cell(order[k + 1])) {
      continue;
    }
    const RatingTriple& t = train[order[k]];
    DTREC_CHECK_LT(t.user, num_users_);
    items_.push_back(t.item);
    ratings_.push_back(t.rating);
    ++user_begin_[t.user + 1];
  }
  std::partial_sum(user_begin_.begin(), user_begin_.end(),
                   user_begin_.begin());
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
  if (user >= num_users_) return false;
  const auto first =
      items_.begin() + static_cast<std::ptrdiff_t>(user_begin_[user]);
  const auto last =
      items_.begin() + static_cast<std::ptrdiff_t>(user_begin_[user + 1]);
  const auto it = std::lower_bound(first, last, item);
  if (it == last || *it != item) return false;
  if (rating != nullptr) {
    *rating = ratings_[static_cast<size_t>(it - items_.begin())];
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
