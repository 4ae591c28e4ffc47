#include "obs/metrics.h"

#include <cmath>
#include <sstream>

#include "obs/prop_stats.h"
#include "util/json.h"
#include "util/string_util.h"

namespace dtrec::obs {

namespace internal {
std::atomic<uint64_t> g_propensity_clip_total{0};
std::atomic<uint64_t> g_propensity_clip_fired{0};
}  // namespace internal

namespace {

/// Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*; dtrec's
/// dot-separated names map onto that with '.' (and anything else exotic)
/// folded to '_'.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(keep ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

/// HELP-line escaping per the text format: '\' → "\\", newline → "\n".
std::string PromHelpEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

/// Prometheus, unlike JSON, has spellings for non-finite values.
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return StrFormat("%.17g", v);
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[name];
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[name];
}

std::string MetricsRegistry::DumpText() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    os << name << " " << counter.Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    os << name << " " << FormatDouble(gauge.Value(), 6) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const Histogram::Summary s = hist.Summarize();
    os << name << " count=" << s.count
       << StrFormat(" mean=%.1f p50=%.1f p95=%.1f p99=%.1f p999=%.1f "
                    "max=%.1f",
                    s.mean_us, s.p50_us, s.p95_us, s.p99_us, s.p999_us,
                    s.max_us)
       << "\n";
  }
  return os.str();
}

std::string MetricsRegistry::DumpJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "{\"schema\": \"dtrec-metrics-v1\", \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json::Escape(name) << "\": " << counter.Value();
  }
  os << "}, \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    if (!first) os << ", ";
    first = false;
    os << "\"" << json::Escape(name) << "\": " << json::Number(gauge.Value());
  }
  os << "}, \"histograms\": {";
  first = true;
  for (const auto& [name, hist] : histograms_) {
    if (!first) os << ", ";
    first = false;
    const Histogram::Summary s = hist.Summarize();
    os << "\"" << json::Escape(name) << "\": {\"count\": " << s.count
       << ", \"mean\": " << json::Number(s.mean_us)
       << ", \"p50\": " << json::Number(s.p50_us)
       << ", \"p95\": " << json::Number(s.p95_us)
       << ", \"p99\": " << json::Number(s.p99_us)
       << ", \"p999\": " << json::Number(s.p999_us)
       << ", \"max\": " << json::Number(s.max_us) << "}";
  }
  os << "}}\n";
  return os.str();
}

std::string MetricsRegistry::DumpPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& [name, counter] : counters_) {
    const std::string pn = PromName(name);
    os << "# HELP " << pn << " " << PromHelpEscape(name) << "\n";
    os << "# TYPE " << pn << " counter\n";
    os << pn << " " << counter.Value() << "\n";
  }
  for (const auto& [name, gauge] : gauges_) {
    const std::string pn = PromName(name);
    os << "# HELP " << pn << " " << PromHelpEscape(name) << "\n";
    os << "# TYPE " << pn << " gauge\n";
    os << pn << " " << PromNumber(gauge.Value()) << "\n";
  }
  for (const auto& [name, hist] : histograms_) {
    const Histogram::Snapshot snap = hist.TakeSnapshot();
    const std::string pn = PromName(name);
    os << "# HELP " << pn << " " << PromHelpEscape(name) << "\n";
    os << "# TYPE " << pn << " histogram\n";
    size_t last = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      if (snap.buckets[i] != 0) last = i;
    }
    uint64_t cum = 0;
    for (size_t i = 0; i <= last && snap.count != 0; ++i) {
      cum += snap.buckets[i];
      os << pn << "_bucket{le=\""
         << StrFormat("%.6g", Histogram::BucketUpperBound(i)) << "\"} "
         << cum << "\n";
    }
    os << pn << "_bucket{le=\"+Inf\"} " << snap.count << "\n";
    os << pn << "_sum " << PromNumber(static_cast<double>(snap.sum_milli) / 1e3)
       << "\n";
    os << pn << "_count " << snap.count << "\n";
  }
  return os.str();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second.Reset();
  for (auto& entry : histograms_) entry.second.Reset();
}

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry registry;
  return registry;
}

void PublishPropensityClipStats(MetricsRegistry* registry) {
  const PropensityClipSnapshot snapshot = GetPropensityClipSnapshot();
  registry->GetCounter("propensity.clip.total")->Set(snapshot.total);
  registry->GetCounter("propensity.clip.fired")->Set(snapshot.fired);
  registry->GetGauge("propensity.clip.rate")->Set(snapshot.rate());
}

}  // namespace dtrec::obs
