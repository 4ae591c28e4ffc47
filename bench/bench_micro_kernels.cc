// Microbenchmarks for the numeric kernels that dominate dtrec training
// time, in two layers:
//
//  1. A deterministic blocked-vs-naive kernel sweep that times the packed
//     GEMM / row-dot kernels against the reference triple loops and writes
//     a schema-versioned BENCH_kernels.json (GFLOP/s, ns/op, speedup per
//     shape, build flavor stamped). This is the perf-trajectory record the
//     `bench-smoke` CTest leg regenerates and validates on every run.
//  2. The pre-existing google-benchmark suite (matmul wrappers, the
//     Gram-identity regularization ablation, tape-vs-analytic IPS step).
//
// Modes:
//   bench_micro_kernels                 sweep + JSON + google-benchmark
//   bench_micro_kernels --smoke         short sweep + JSON, skip gbench
//   bench_micro_kernels --json=PATH     override the JSON output path
//   bench_micro_kernels --validate=P    schema-check an existing JSON, exit

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "autograd/ops.h"
#include "autograd/tape.h"
#include "bench_common.h"
#include "core/disentangled_embeddings.h"
#include "core/losses.h"
#include "serve/serving_model.h"
#include "serve/topk_scorer.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "util/atomic_file.h"
#include "util/math_util.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace dtrec {
namespace {

// ----------------------------------------------------------------- sweep

/// Times `fn` with an adaptive repetition count sized so the measured
/// window is ~`target_seconds` long; returns nanoseconds per call.
double TimeNs(const std::function<void()>& fn, double target_seconds) {
  Stopwatch warm;
  fn();
  const double first = warm.ElapsedSeconds();
  size_t reps = 3;
  if (first > 0.0 && first < target_seconds) {
    reps = std::min<size_t>(
        1u << 20, std::max<size_t>(3, static_cast<size_t>(target_seconds /
                                                          first)));
  }
  Stopwatch timed;
  for (size_t r = 0; r < reps; ++r) fn();
  return timed.ElapsedSeconds() * 1e9 / static_cast<double>(reps);
}

struct SweepShape {
  // "gemm", "gemm_trans_a", "gemm_trans_b", "row_dot", "bound_i8"
  const char* kernel;
  size_t m, k, n;
};

/// Runs blocked and naive variants of each kernel shape, returning paired
/// rows (blocked first, carrying speedup_vs_naive).
std::vector<bench::KernelBenchResult> RunKernelSweep(bool smoke) {
  const double target = smoke ? 0.005 : 0.1;
  std::vector<SweepShape> shapes = {
      {"gemm", 256, 64, 256},  // the headline shape (ISSUE acceptance)
      {"gemm", 64, 64, 64},
      {"row_dot", 1682, 32, 1},  // serving: items × one user vector
      // The top-K sweep's fused int8 bound filter: the benchmark
      // catalogue's codes against one quantized user, 64-row chunks
      // (integer ops counted as flops).
      {"bound_i8", 30000, 32, 1},
  };
  if (!smoke) {
    shapes.push_back({"gemm", 128, 128, 128});
    shapes.push_back({"gemm", 256, 256, 256});
    shapes.push_back({"gemm_trans_a", 64, 256, 64});
    shapes.push_back({"gemm_trans_b", 943, 8, 1682});  // full predict matrix
    // The DT training step's products: the propensity head's two layers
    // forward (Coat and Yahoo batch shapes) and the first layer's two
    // backward products.
    shapes.push_back({"gemm", 1024, 48, 16});
    shapes.push_back({"gemm", 1024, 16, 1});
    shapes.push_back({"gemm", 2048, 24, 16});
    shapes.push_back({"gemm_trans_a", 48, 1024, 16});
    shapes.push_back({"gemm_trans_b", 1024, 16, 48});
    // Either side of the wide-C rule: up to n = 64 C stays cached from
    // tile to tile, above it each tile's rows of C are prefetched.
    shapes.push_back({"gemm", 1024, 48, 64});
    shapes.push_back({"gemm", 1024, 48, 128});
    shapes.push_back({"gemm_trans_a", 48, 1024, 64});
    shapes.push_back({"gemm_trans_a", 48, 1024, 128});
  }

  std::vector<bench::KernelBenchResult> results;
  Rng rng(42);
  for (const SweepShape& s : shapes) {
    const std::string kernel = s.kernel;
    std::function<void()> blocked, naive;
    double flops = 2.0 * s.m * s.k * s.n;

    // Operands sized for the storage layout of each variant; the C buffer
    // is shared (every kernel overwrites it).
    Matrix a, b;
    Matrix c(s.m, std::max<size_t>(s.n, 1));
    std::vector<double> y(s.m);
    // bound_i8: m rows of codes (row 0 doubles as the user's codes) with
    // their scales and residuals, and the chunk's bounds.
    const bool bound_i8 = kernel == "bound_i8";
    std::vector<int8_t> codes(bound_i8 ? s.m * s.k : 0);
    std::vector<double> scales(bound_i8 ? s.m : 0);
    std::vector<double> residuals(bound_i8 ? s.m : 0);
    double bounds[64];
    if (kernel == "gemm") {
      a = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
      b = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
      blocked = [&, s] {
        kernels::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n, c.data(),
                      s.n);
        benchmark::DoNotOptimize(c.data());
      };
      naive = [&, s] {
        kernels::naive::Gemm(s.m, s.n, s.k, a.data(), s.k, b.data(), s.n,
                             c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
      };
    } else if (kernel == "gemm_trans_a") {
      a = Matrix::RandomNormal(s.k, s.m, 1.0, &rng);
      b = Matrix::RandomNormal(s.k, s.n, 1.0, &rng);
      blocked = [&, s] {
        kernels::GemmTransA(s.m, s.n, s.k, a.data(), s.m, b.data(), s.n,
                            c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
      };
      naive = [&, s] {
        kernels::naive::GemmTransA(s.m, s.n, s.k, a.data(), s.m, b.data(),
                                   s.n, c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
      };
    } else if (kernel == "gemm_trans_b") {
      a = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
      b = Matrix::RandomNormal(s.n, s.k, 1.0, &rng);
      blocked = [&, s] {
        kernels::GemmTransB(s.m, s.n, s.k, a.data(), s.k, b.data(), s.k,
                            c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
      };
      naive = [&, s] {
        kernels::naive::GemmTransB(s.m, s.n, s.k, a.data(), s.k, b.data(),
                                   s.k, c.data(), s.n);
        benchmark::DoNotOptimize(c.data());
      };
    } else if (bound_i8) {
      flops = 2.0 * s.m * s.k;
      for (int8_t& v : codes) v = static_cast<int8_t>(rng.UniformIndex(256));
      for (double& v : scales) v = rng.Uniform() / 127.0;
      for (double& v : residuals) v = 0.1 * rng.Uniform();
      const kernels::QuantizedBoundTerms terms{.user_scale = 1.0 / 127.0,
                                               .user_code_norm = 1.0,
                                               .shared = 0.5,
                                               .bias_slack = 1e-9};
      // A root no bound reaches, as on a flat miss, where nearly every
      // item is dropped; the kernel's work does not depend on it.
      const double root = std::numeric_limits<double>::infinity();
      auto sweep = [&, s, terms, root](auto kernel_fn) {
        uint64_t kept = 0;
        for (size_t j = 0; j < s.m; j += 64) {
          kept |= kernel_fn(std::min<size_t>(64, s.m - j), s.k,
                            codes.data() + j * s.k, s.k, codes.data(),
                            scales.data() + j, residuals.data() + j, nullptr,
                            terms, root, bounds);
          benchmark::DoNotOptimize(bounds);
        }
        benchmark::DoNotOptimize(kept);
      };
      // By value: the timed calls run after this block has ended.
      blocked = [sweep] { sweep(kernels::QuantizedBoundMask); };
      naive = [sweep] { sweep(kernels::naive::QuantizedBoundMask); };
    } else {  // row_dot: m rows of length k against one broadcast vector
      a = Matrix::RandomNormal(s.m, s.k, 1.0, &rng);
      b = Matrix::RandomNormal(1, s.k, 1.0, &rng);
      flops = 2.0 * s.m * s.k;
      blocked = [&, s] {
        kernels::BatchedRowDot(s.m, s.k, a.data(), s.k, b.data(), 0,
                               y.data());
        benchmark::DoNotOptimize(y.data());
      };
      naive = [&, s] {
        kernels::naive::BatchedRowDot(s.m, s.k, a.data(), s.k, b.data(), 0,
                                      y.data());
        benchmark::DoNotOptimize(y.data());
      };
    }

    const double naive_ns = TimeNs(naive, target);
    const double blocked_ns = TimeNs(blocked, target);

    bench::KernelBenchResult nr;
    nr.kernel = kernel;
    nr.variant = "naive";
    nr.m = s.m;
    nr.k = s.k;
    nr.n = s.n;
    nr.ns_per_op = naive_ns;
    nr.gflops = flops / naive_ns;  // flops/ns == GFLOP/s
    nr.speedup_vs_naive = 1.0;

    bench::KernelBenchResult br = nr;
    br.variant = "blocked";
    br.ns_per_op = blocked_ns;
    br.gflops = flops / blocked_ns;
    br.speedup_vs_naive = naive_ns / blocked_ns;

    results.push_back(br);
    results.push_back(nr);

    std::printf("%-14s %4zux%-4zu * %4zux%-4zu  blocked %8.2f GF/s  "
                "naive %8.2f GF/s  speedup %5.2fx\n",
                kernel.c_str(), s.m, s.k, s.k, s.n, br.gflops, nr.gflops,
                br.speedup_vs_naive);
  }
  return results;
}

/// Serving top-K rows: TopKScorer::ScoreFresh (the norm-bound pruned
/// sweep, variant "pruned") against BruteForceTopK (the full argsort
/// oracle, variant "naive") on two catalogues of the same shape. In
/// `topk_skewed` item norms decay as (1+i)^-0.5, a head the sweep exits
/// after; in `topk_flat` they are flat, so the bound barely cuts and the
/// sweep scores nearly every item. `m`/`k`/`n` carry items/dim/K;
/// ns_per_op is one full per-user top-K; gflops is the dense-equivalent
/// rate (2·items·dim per request).
std::vector<bench::KernelBenchResult> RunTopKSweep(bool smoke) {
  const double target = smoke ? 0.005 : 0.1;
  const size_t users = 64;
  const size_t items = smoke ? 4096 : 30000;
  const size_t dim = 32;
  const size_t topk = 10;
  const double flops = 2.0 * static_cast<double>(items) * dim;

  std::vector<bench::KernelBenchResult> results;
  for (const bool skewed : {true, false}) {
    Rng rng(97);
    Matrix p = Matrix::RandomNormal(users, dim, 1.0, &rng);
    Matrix q = Matrix::RandomNormal(items, dim, 1.0, &rng);
    std::vector<double> popularity(items);
    for (size_t i = 0; i < items; ++i) {
      if (skewed) {
        const double scale = std::pow(1.0 + static_cast<double>(i), -0.5);
        double* row = q.row(i);
        for (size_t d = 0; d < dim; ++d) row[d] *= scale;
      }
      popularity[i] = static_cast<double>(items - i);
    }
    Result<serve::ServingModel> built = serve::ServingModel::FromFactors(
        std::move(p), std::move(q), Matrix(), Matrix(),
        std::move(popularity));
    DTREC_CHECK(built.ok()) << built.status();
    const serve::ServingModel& model = built.value();

    serve::TopKScorer scorer(serve::ScoreCacheConfig{.capacity = 0});
    size_t next_user = 0;
    auto time_user = [&](auto&& top_k) {
      return TimeNs(
          [&] {
            std::vector<serve::ScoredItem> slate = top_k(next_user);
            benchmark::DoNotOptimize(slate.data());
            next_user = (next_user + 1) % users;
          },
          target);
    };
    const double naive_ns = time_user([&](size_t user) {
      return serve::BruteForceTopK(model, user, topk);
    });
    const double pruned_ns = time_user([&](size_t user) {
      return scorer.ScoreFresh(model, user, topk);
    });

    bench::KernelBenchResult nr;
    nr.kernel = skewed ? "topk_skewed" : "topk_flat";
    nr.variant = "naive";
    nr.m = items;
    nr.k = dim;
    nr.n = topk;
    nr.ns_per_op = naive_ns;
    nr.gflops = flops / naive_ns;
    nr.speedup_vs_naive = 1.0;

    bench::KernelBenchResult pr = nr;
    pr.variant = "pruned";
    pr.ns_per_op = pruned_ns;
    pr.gflops = flops / pruned_ns;
    pr.speedup_vs_naive = naive_ns / pruned_ns;

    results.push_back(pr);
    results.push_back(nr);
    std::printf("%-14s %5zu items x dim %-3zu K=%-3zu  pruned %9.1f ns/user  "
                "naive %9.1f ns/user  speedup %6.2fx\n",
                nr.kernel.c_str(), items, dim, topk, pruned_ns, naive_ns,
                pr.speedup_vs_naive);
  }
  return results;
}

int ValidateFile(const std::string& path) {
  std::string content;
  if (const Status read = ReadFile(path, &content); !read.ok()) {
    std::fprintf(stderr, "cannot open %s: %s\n", path.c_str(),
                 read.ToString().c_str());
    return 1;
  }
  const Status st = obs::ValidateKernelBenchJson(content);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: schema validation FAILED: %s\n", path.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::printf("%s: schema %s OK\n", path.c_str(), obs::kKernelBenchSchema);
  return 0;
}

// ------------------------------------------------- google-benchmark suite
//
// Design-choice ablations from DESIGN.md: the Gram-identity regularization
// kernel vs the naive |U|×|I| product, and the autograd tape vs
// hand-derived analytic gradients for an IPS step.

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(n, n, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Arg(256);

/// The raw blocked kernel vs its naive reference on the headline shape, so
/// `--benchmark_filter=Gemm` reproduces the JSON speedup interactively.
void BM_GemmBlocked(benchmark::State& state) {
  Rng rng(7);
  const Matrix a = Matrix::RandomNormal(256, 64, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(64, 256, 1.0, &rng);
  Matrix c(256, 256);
  for (auto _ : state) {
    kernels::Gemm(256, 256, 64, a.data(), 64, b.data(), 256, c.data(), 256);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 64 * 256);
}
BENCHMARK(BM_GemmBlocked);

void BM_GemmNaive(benchmark::State& state) {
  Rng rng(7);
  const Matrix a = Matrix::RandomNormal(256, 64, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(64, 256, 1.0, &rng);
  Matrix c(256, 256);
  for (auto _ : state) {
    kernels::naive::Gemm(256, 256, 64, a.data(), 64, b.data(), 256, c.data(),
                         256);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 256 * 64 * 256);
}
BENCHMARK(BM_GemmNaive);

void BM_MatMulTransB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::RandomNormal(n, 8, 1.0, &rng);
  const Matrix b = Matrix::RandomNormal(n, 8, 1.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransB(a, b));
  }
}
BENCHMARK(BM_MatMulTransB)->Arg(256)->Arg(1024);

void BM_SigmoidMat(benchmark::State& state) {
  Rng rng(3);
  const Matrix a = Matrix::RandomNormal(1024, 64, 2.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SigmoidMat(a));
  }
  state.SetItemsProcessed(state.iterations() * a.size());
}
BENCHMARK(BM_SigmoidMat);

void BM_RegularizationNaive(benchmark::State& state) {
  Rng rng(4);
  DisentangledEmbeddings emb = DisentangledEmbeddings::Create(
      943, 1682, 8, 4, 0.1, 0.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegularizationLossNaive(emb));
  }
}
BENCHMARK(BM_RegularizationNaive);

void BM_RegularizationGram(benchmark::State& state) {
  Rng rng(4);
  DisentangledEmbeddings emb = DisentangledEmbeddings::Create(
      943, 1682, 8, 4, 0.1, 0.0, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RegularizationLossGram(emb));
  }
}
BENCHMARK(BM_RegularizationGram);

/// One IPS training step via the autograd tape, reusing one tape across
/// iterations as the trainers do (Reset keeps the node buffers).
void BM_IpsStepTape(benchmark::State& state) {
  const size_t batch = 2048, m = 943, n = 1682, dim = 8;
  Rng rng(5);
  Matrix p = Matrix::RandomNormal(m, dim, 0.1, &rng);
  Matrix q = Matrix::RandomNormal(n, dim, 0.1, &rng);
  std::vector<size_t> users(batch), items(batch);
  Matrix labels(batch, 1), weights(batch, 1);
  for (size_t i = 0; i < batch; ++i) {
    users[i] = rng.UniformIndex(m);
    items[i] = rng.UniformIndex(n);
    labels(i, 0) = rng.Bernoulli(0.5);
    weights(i, 0) = rng.Bernoulli(0.1) ? 10.0 / batch : 0.0;
  }
  ag::Tape tape;
  for (auto _ : state) {
    tape.Reset();
    ag::Var vp = tape.Leaf(p);
    ag::Var vq = tape.Leaf(q);
    ag::Var logits = ag::RowwiseDot(ag::GatherRows(vp, users),
                                    ag::GatherRows(vq, items));
    ag::Var loss = ag::SigmoidSquaredErrorSum(logits, labels, weights);
    tape.Backward(loss);
    benchmark::DoNotOptimize(tape.GradOf(vp));
  }
}
BENCHMARK(BM_IpsStepTape);

/// The same IPS step with hand-derived analytic gradients (no tape).
void BM_IpsStepAnalytic(benchmark::State& state) {
  const size_t batch = 2048, m = 943, n = 1682, dim = 8;
  Rng rng(5);
  Matrix p = Matrix::RandomNormal(m, dim, 0.1, &rng);
  Matrix q = Matrix::RandomNormal(n, dim, 0.1, &rng);
  std::vector<size_t> users(batch), items(batch);
  Matrix labels(batch, 1), weights(batch, 1);
  for (size_t i = 0; i < batch; ++i) {
    users[i] = rng.UniformIndex(m);
    items[i] = rng.UniformIndex(n);
    labels(i, 0) = rng.Bernoulli(0.5);
    weights(i, 0) = rng.Bernoulli(0.1) ? 10.0 / batch : 0.0;
  }
  Matrix grad_p(m, dim), grad_q(n, dim);
  for (auto _ : state) {
    grad_p.SetZero();
    grad_q.SetZero();
    for (size_t i = 0; i < batch; ++i) {
      if (weights(i, 0) == 0.0) continue;
      const double* pu = p.row(users[i]);
      const double* qi = q.row(items[i]);
      double score = 0.0;
      for (size_t d = 0; d < dim; ++d) score += pu[d] * qi[d];
      const double prob = Sigmoid(score);
      const double dloss = weights(i, 0) * 2.0 * (prob - labels(i, 0)) *
                           prob * (1.0 - prob);
      double* gp = grad_p.row(users[i]);
      double* gq = grad_q.row(items[i]);
      for (size_t d = 0; d < dim; ++d) {
        gp[d] += dloss * qi[d];
        gq[d] += dloss * pu[d];
      }
    }
    benchmark::DoNotOptimize(grad_p);
  }
}
BENCHMARK(BM_IpsStepAnalytic);

void BM_GatherScatter(benchmark::State& state) {
  Rng rng(6);
  const Matrix table = Matrix::RandomNormal(2000, 16, 1.0, &rng);
  std::vector<size_t> rows(4096);
  for (auto& r : rows) r = rng.UniformIndex(2000);
  Matrix accum(2000, 16);
  for (auto _ : state) {
    const Matrix gathered = GatherRows(table, rows);
    ScatterAddRows(&accum, rows, gathered);
    benchmark::DoNotOptimize(accum);
  }
}
BENCHMARK(BM_GatherScatter);

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  std::vector<char*> gbench_args = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--validate=", 0) == 0) {
      return ValidateFile(arg.substr(11));
    } else {
      gbench_args.push_back(argv[i]);
    }
  }

  std::vector<bench::KernelBenchResult> results = RunKernelSweep(smoke);
  const std::vector<bench::KernelBenchResult> topk_rows = RunTopKSweep(smoke);
  results.insert(results.end(), topk_rows.begin(), topk_rows.end());
  if (const Status write =
          WriteFileAtomic(json_path, bench::KernelResultsToJson(results));
      !write.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", json_path.c_str(),
                 write.ToString().c_str());
    return 1;
  }
  std::printf("[json written to %s]\n", json_path.c_str());
  if (smoke) return 0;

  int gbench_argc = static_cast<int>(gbench_args.size());
  benchmark::Initialize(&gbench_argc, gbench_args.data());
  if (benchmark::ReportUnrecognizedArguments(gbench_argc,
                                             gbench_args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace
}  // namespace dtrec

int main(int argc, char** argv) { return dtrec::Main(argc, argv); }
