#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "optim/adam.h"
#include "tensor/serialization.h"

namespace dtrec {
namespace {

TEST(AdamTest, FirstStepIsSignedLearningRate) {
  Adam opt(0.001);
  Matrix param{{1.0, 1.0}};
  Matrix grad{{0.5, -3.0}};
  opt.Step(&param, grad);
  // After bias correction the first Adam step is ≈ lr·sign(g).
  EXPECT_NEAR(param(0, 0), 1.0 - 0.001, 1e-6);
  EXPECT_NEAR(param(0, 1), 1.0 + 0.001, 1e-6);
}

TEST(AdamTest, LanesMatchScalarReferenceBitForBit) {
  // Step runs two entries at a time and the odd one alone; every entry of
  // the parameter and of both moments (read back through SaveSlots) must
  // take the bits of the scalar update, over three steps with weight
  // decay, for each n up to 9.
  const double lr = 0.01, b1 = 0.9, b2 = 0.999, eps = 1e-8, wd = 0.05;
  // Full-mantissa values, so a reordered product rounds differently.
  const double grads[] = {0.5,     -3.0,    0.0,  std::sin(1.0),
                          -0.0,    std::exp(1.1), -std::sqrt(2.0) * 1e-3,
                          7.0 / 3, -std::log(3.0)};
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  for (size_t n = 0; n <= 9; ++n) {
    SCOPED_TRACE(n);
    Adam opt(lr, b1, b2, eps, wd);
    Matrix param(1, n);
    std::vector<double> p(n), m(n, 0.0), v(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      p[i] = param(0, i) = std::cos(0.7 * static_cast<double>(i)) - 0.4;
    }
    for (int t = 1; t <= 3; ++t) {
      Matrix grad(1, n);
      for (size_t i = 0; i < n; ++i) grad(0, i) = grads[(i + t) % 9];
      opt.Step(&param, grad);
      const double bc1 = 1.0 - std::pow(b1, static_cast<double>(t));
      const double bc2 = 1.0 - std::pow(b2, static_cast<double>(t));
      std::stringstream slots;
      ASSERT_TRUE(opt.SaveSlots({&param}, &slots).ok());
      slots.get();  // the slot-present flag
      auto got_m = LoadMatrix(&slots);
      auto got_v = LoadMatrix(&slots);
      ASSERT_TRUE(got_m.ok() && got_v.ok());
      for (size_t i = 0; i < n; ++i) {
        SCOPED_TRACE(testing::Message() << "step " << t << " i " << i);
        const double g = grad(0, i) + wd * p[i];
        m[i] = b1 * m[i] + (1.0 - b1) * g;
        v[i] = b2 * v[i] + (1.0 - b2) * g * g;
        p[i] -= lr * (m[i] / bc1) / (std::sqrt(v[i] / bc2) + eps);
        EXPECT_EQ(bits(got_m.value()(0, i)), bits(m[i]));
        EXPECT_EQ(bits(got_v.value()(0, i)), bits(v[i]));
        EXPECT_EQ(bits(param(0, i)), bits(p[i]));
      }
    }
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Adam opt(0.1);
  Matrix x{{5.0, -3.0}};
  for (int i = 0; i < 500; ++i) {
    Matrix grad{{2.0 * x(0, 0), 2.0 * x(0, 1)}};  // f = x²+y²
    opt.Step(&x, grad);
  }
  EXPECT_NEAR(x(0, 0), 0.0, 1e-2);
  EXPECT_NEAR(x(0, 1), 0.0, 1e-2);
}

TEST(AdamTest, SeparateSlotsPerParameter) {
  Adam opt(0.1);
  Matrix a{{1.0}}, b{{1.0}};
  Matrix big{{100.0}}, small{{0.001}};
  opt.Step(&a, big);
  opt.Step(&b, small);
  // Both move by ≈ lr on the first step regardless of gradient scale
  // (per-parameter second-moment slots).
  EXPECT_NEAR(a(0, 0), 0.9, 1e-3);
  EXPECT_NEAR(b(0, 0), 0.9, 1e-3);
}

}  // namespace
}  // namespace dtrec
