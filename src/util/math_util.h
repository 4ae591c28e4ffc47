#ifndef DTREC_UTIL_MATH_UTIL_H_
#define DTREC_UTIL_MATH_UTIL_H_

#include <cmath>

#include "obs/prop_stats.h"

namespace dtrec {

/// Numerically stable logistic sigmoid.
inline double Sigmoid(double x) {
  if (x >= 0.0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

/// Inverse sigmoid. Input must be in (0, 1).
inline double Logit(double p) { return std::log(p / (1.0 - p)); }

/// Clamps v into [lo, hi].
inline double Clamp(double v, double lo, double hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Standard normal density.
inline double NormalPdf(double x) {
  constexpr double kInvSqrt2Pi = 0.3989422804014327;
  return kInvSqrt2Pi * std::exp(-0.5 * x * x);
}

/// log(1 + exp(x)) without overflow.
inline double Log1pExp(double x) {
  if (x > 0.0) return x + std::log1p(std::exp(-x));
  return std::log1p(std::exp(x));
}

/// Binary cross-entropy for a single prediction p in (0,1) against label
/// y in {0,1}; clamps p away from {0,1} for stability.
inline double BinaryCrossEntropy(double y, double p) {
  const double q = Clamp(p, 1e-12, 1.0 - 1e-12);
  return -(y * std::log(q) + (1.0 - y) * std::log(1.0 - q));
}

/// Safe reciprocal: 1 / max(v, floor). The blessed way to invert a learned
/// propensity-like quantity (enforced by dtrec_analyze's propensity-taint
/// rule); the floor keeps the inverse finite when the estimate collapses
/// toward zero. Every call feeds the process-wide clip counters
/// (obs/prop_stats.h) — the floored fraction is the
/// extreme-inverse-propensity-variance early-warning signal exported via
/// metrics and the training event stream.
inline double SafeInverse(double v, double floor = 1e-12) {
  const bool fired = v < floor;
  obs::RecordPropensityClip(fired);
  return 1.0 / (fired ? floor : v);
}

/// True if |a - b| <= atol + rtol * |b|.
inline bool AlmostEqual(double a, double b, double atol = 1e-9,
                        double rtol = 1e-7) {
  return std::fabs(a - b) <= atol + rtol * std::fabs(b);
}

}  // namespace dtrec

#endif  // DTREC_UTIL_MATH_UTIL_H_
