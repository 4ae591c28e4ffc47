// Training half of a workload: DT-IPS then DT-DR Fit on a synthetic MNAR
// world, timed from outside through the public trainer API, with the
// MCAR-test AUC as the quality guard.

#include <cmath>
#include <cstdio>
#include <memory>

#include "baselines/registry.h"
#include "bench.h"
#include "experiments/evaluator.h"
#include "obs/trace.h"
#include "synth/coat_like.h"
#include "synth/yahoo_like.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace dtrec::perf {
namespace {

const char* const kMethods[] = {"DT-IPS", "DT-DR"};

/// Seed of the world and of both trainers, the same in every run. The AUC
/// of a fixed world and seed repeats bit for bit, so `auc` reads the same
/// in every run until a change alters what training computes, and its
/// bound can be tight. World-to-world spread (1–2% of AUC over seeds)
/// would otherwise set the bound. `--seed` drives the serving inputs.
constexpr uint64_t kWorldSeed = 1;

/// Timed world generations + trainer constructions per block.
constexpr int kSetUpsPerBlock = 2;

DatasetProfile Profile(const RunOptions& options) {
  DatasetProfile profile = DefaultProfile(options.workload->world);
  if (options.workload->epochs > 0) {
    profile.train.epochs = options.workload->epochs;
  }
  if (options.smoke) profile.train.epochs = 1;
  return profile;
}

RatingDataset MakeWorld(const RunOptions& options,
                        const DatasetProfile& profile) {
  return options.workload->world == DatasetKind::kCoat
             ? MakeCoatLike(kWorldSeed).dataset
             : MakeYahooLike(kWorldSeed, profile.dataset_scale).dataset;
}

std::unique_ptr<RecommenderTrainer> MakeDt(const char* method,
                                           TrainConfig train) {
  TrainConfig config = TuneForMethod(method, train);
  config.seed = kWorldSeed;
  auto made = MakeTrainer(method, config);
  DTREC_CHECK(made.ok()) << made.status();
  return std::move(made).value();
}

/// One DT-IPS + DT-DR fit pair: per-method wall seconds and test AUCs.
struct PairResult {
  double seconds[2] = {0.0, 0.0};
  double auc[2] = {0.0, 0.0};
  FoldedSpans spans;
  double total() const { return seconds[0] + seconds[1]; }
};

class TrainPhase : public Phase {
 public:
  TrainPhase(const RunOptions& options, RunResult* result)
      : options_(options), result_(result), profile_(Profile(options)) {}

  /// The world trained on, then an untimed one-epoch pair. The first fits
  /// of a process grow its heap (on Yahoo the first pair ran 30–40% slower
  /// than later ones, and so did the set-ups before it); the one-epoch pair
  /// pays for that before any timing, and counts the allocations the
  /// traced run reports.
  void SetUp(std::vector<double>* setup_s) {
    setup_s_ = setup_s;
    dataset_ = MakeWorld(options_, profile_);
    CountAllocations();
  }

  /// Timed set-ups, then one fit pair; the traced run adds a traced pair.
  /// The set-ups are spread over the run as the fits are: run back to back,
  /// five Coat set-ups read within 5% of each other but up to 50% apart
  /// from one process to the next, so the host's spell at one moment set
  /// their median.
  void Block() override {
    for (int rep = 0; rep < kSetUpsPerBlock; ++rep) TimedSetUp();
    const PairResult plain = FitPair(/*traced=*/false);
    pair_s_.push_back(plain.total());
    method_s_[0].push_back(plain.seconds[0]);
    method_s_[1].push_back(plain.seconds[1]);
    if (options_.traced) {
      const PairResult traced = FitPair(/*traced=*/true);
      traced_s_.push_back(traced.total());
      spans_.Add(traced.spans);
    }
  }

  void Finish() override {
    if (!options_.traced) {
      result_->Set("fit_s", Median(pair_s_));
      result_->Set("auc", 0.5 * (first_auc_[0] + first_auc_[1]));
      return;
    }
    const double steps = static_cast<double>(spans_.Count("train_step"));
    result_->Check(steps > 0.0, "traced fits recorded no train_step span");
    result_->Check(
        std::fabs(spans_.step_tree_self_us - spans_.step_total_us) <=
            0.05 * spans_.step_total_us,
        "folded self times do not sum to the train_step spans");
    const auto per_step = [&](const char* span) {
      return steps > 0.0 ? spans_.Self(span) / steps : 0.0;
    };
    result_->Set("synth.world_s", Median(world_s_));
    result_->Set("baselines.step_self_us", per_step("train_step"));
    result_->Set("autograd.forward_us", per_step("forward"));
    result_->Set("autograd.backward_us", per_step("backward"));
    result_->Set("optim.step_us", per_step("optimizer_step"));
    result_->Set("core.propensity_bce_us", per_step("propensity_bce"));
    result_->Set("core.disentangle_us", per_step("disentangle_loss"));
    result_->Set("core.reg_us", per_step("reg_loss"));
    result_->Set("core.imputation_us", per_step("imputation"));
    result_->Set("core.fit_s.dt-ips", Median(method_s_[0]));
    result_->Set("core.fit_s.dt-dr", Median(method_s_[1]));
    // Steps of one epoch of both methods: each traced pair trains the
    // profile's epochs of equal length.
    const double epoch_steps = steps / static_cast<double>(traced_s_.size()) /
                               static_cast<double>(profile_.train.epochs);
    if (epoch_steps > 0.0) {
      result_->Set("baselines.allocs_per_step",
                   static_cast<double>(epoch_allocs_.calls) / epoch_steps);
      result_->Set("baselines.alloc_bytes_per_step",
                   static_cast<double>(epoch_allocs_.bytes) / epoch_steps);
    }
    result_->Set("obs.trace_overhead_pct",
                 100.0 * (Median(traced_s_) / Median(pair_s_) - 1.0));
  }

 private:
  /// World generation + trainer construction, timed into setup_s and
  /// synth.world_s.
  RatingDataset TimedSetUp() {
    const Stopwatch watch;
    RatingDataset world = MakeWorld(options_, profile_);
    const double world_s = watch.ElapsedSeconds();
    for (const char* method : kMethods) {
      DTREC_CHECK(MakeDt(method, profile_.train) != nullptr);
    }
    setup_s_->push_back(watch.ElapsedSeconds());
    world_s_.push_back(world_s);
    return world;
  }

  /// Counts allocations over a one-epoch, untraced DT-IPS + DT-DR pair,
  /// apart from the timed fits so the counter's atomics slow none of them.
  /// The traced run's Finish spreads them, one-off allocations of a Fit
  /// included, over one epoch's steps.
  void CountAllocations() {
    TrainConfig one_epoch = profile_.train;
    one_epoch.epochs = 1;
    for (const char* method : kMethods) {
      auto trainer = MakeDt(method, one_epoch);
      ArmAllocCounter(true);
      const Status status = trainer->Fit(dataset_);
      ArmAllocCounter(false);
      result_->Check(status.ok(), std::string(method) +
                                      " one-epoch Fit: " + status.ToString());
      const AllocCount count = ReadAllocCounter();
      epoch_allocs_.calls += count.calls;
      epoch_allocs_.bytes += count.bytes;
    }
  }

  /// Fits both methods. `traced` arms span recording around each Fit and
  /// folds it, clearing the rings between fits so they never wrap.
  PairResult FitPair(bool traced) {
    PairResult pair;
    for (int m = 0; m < 2; ++m) {
      auto trainer = MakeDt(kMethods[m], profile_.train);
      ++result_->attempted;
      if (traced) {
        obs::ClearTrace();
        obs::EnableTracing();
      }
      const Stopwatch watch;
      const Status status = trainer->Fit(dataset_);
      pair.seconds[m] = watch.ElapsedSeconds();
      if (traced) {
        obs::DisableTracing();
        CollectTrace(result_, &pair.spans);
      }
      const double auc =
          status.ok() ? EvaluateRanking(*trainer, dataset_, profile_.ranking_k,
                                        profile_.positive_threshold)
                            .auc
                      : std::nan("");
      pair.auc[m] = auc;
      if (!status.ok() || !std::isfinite(auc)) ++result_->failed;
      result_->Check(status.ok(), std::string(kMethods[m]) +
                                      " Fit: " + status.ToString());
      result_->Check(std::isfinite(auc),
                     std::string(kMethods[m]) + " AUC is not finite");
    }
    // The floor applies to the reported mean: DT-IPS alone reads 0.533 on
    // the Yahoo world, too close to 0.5 for a floor of its own.
    const double mean_auc = 0.5 * (pair.auc[0] + pair.auc[1]);
    if (!(mean_auc >= 0.5)) ++result_->failed;
    result_->Check(mean_auc >= 0.5, "mean AUC " + std::to_string(mean_auc) +
                                        " is below 0.5");
    // Every fit uses kWorldSeed, so every pair trains the same two
    // models: a differing AUC means training stopped being deterministic.
    if (!aucs_seen_) {
      first_auc_[0] = pair.auc[0];
      first_auc_[1] = pair.auc[1];
      aucs_seen_ = true;
    }
    result_->Check(
        pair.auc[0] == first_auc_[0] && pair.auc[1] == first_auc_[1],
        "repeated fits with one seed gave different AUCs");
    std::fprintf(stderr,
                 "%s %s fit pair: DT-IPS %.3f s, DT-DR %.3f s, AUC %.4f / "
                 "%.4f\n",
                 options_.workload->name, traced ? "traced" : "untraced",
                 pair.seconds[0], pair.seconds[1], pair.auc[0], pair.auc[1]);
    return pair;
  }

  const RunOptions& options_;
  RunResult* const result_;
  const DatasetProfile profile_;
  RatingDataset dataset_{0, 0};
  std::vector<double>* setup_s_ = nullptr;
  std::vector<double> world_s_;
  std::vector<double> pair_s_, traced_s_, method_s_[2];
  FoldedSpans spans_;
  AllocCount epoch_allocs_;
  bool aucs_seen_ = false;
  double first_auc_[2] = {0.0, 0.0};
};

}  // namespace

std::unique_ptr<Phase> SetUpTraining(const RunOptions& options,
                                     RunResult* result,
                                     std::vector<double>* setup_s) {
  auto phase = std::make_unique<TrainPhase>(options, result);
  phase->SetUp(setup_s);
  return phase;
}

}  // namespace dtrec::perf
