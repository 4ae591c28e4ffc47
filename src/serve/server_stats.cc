#include "serve/server_stats.h"

#include "util/string_util.h"

namespace dtrec::serve {

const char* ToString(ServeRung rung) {
  switch (rung) {
    case ServeRung::kFullTopK:
      return "full_topk";
    case ServeRung::kCachedSlate:
      return "cached_slate";
    case ServeRung::kPopularity:
      return "popularity";
    case ServeRung::kShed:
      return "shed";
  }
  return "unknown";
}

const char* ToString(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::kNone:
      return "none";
    case DegradeReason::kDeadlineMiss:
      return "deadline_miss";
    case DegradeReason::kQueueShed:
      return "queue_shed";
    case DegradeReason::kUnknownUser:
      return "unknown_user";
  }
  return "unknown";
}

std::string ServerStats::Summary() const {
  return StrFormat(
      "requests=%llu full=%llu cached=%llu pop=%llu shed=%llu "
      "deadline_miss=%llu queue_shed=%llu unknown_user=%llu "
      "cache_hit=%.1f%% swaps=%llu generation=%llu p50=%.0fus p99=%.0fus",
      static_cast<unsigned long long>(requests),
      static_cast<unsigned long long>(rung_full),
      static_cast<unsigned long long>(rung_cached),
      static_cast<unsigned long long>(rung_popularity),
      static_cast<unsigned long long>(rung_shed),
      static_cast<unsigned long long>(deadline_miss),
      static_cast<unsigned long long>(queue_shed),
      static_cast<unsigned long long>(unknown_user), 100.0 * cache_hit_rate(),
      static_cast<unsigned long long>(model_swaps),
      static_cast<unsigned long long>(generation), total_us.p50_us,
      total_us.p99_us);
}

}  // namespace dtrec::serve
