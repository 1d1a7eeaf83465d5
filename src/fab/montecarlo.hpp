// Parallel Monte-Carlo robustness evaluation over fabrication variability.
//
// The MonteCarloEvaluator fans R device realizations across the shared
// thread pool: realization r perturbs the model's phase masks with a
// PerturbationStack seeded from a counter-based stream (pure function of
// (base seed, r) — results are bitwise independent of ODONN_THREADS and of
// scheduling), optionally deploys the perturbed masks through the
// interpixel-crosstalk emulation, and measures test accuracy with
// DonnModel::infer_batch — the per-sample frame runner serving runs too,
// with each model's modulation tables built once per call. The
// per-realization accuracies aggregate into a RobustnessReport:
// mean/std/min/max, percentiles, and yield (the fraction of fabricated
// devices that clear an accuracy spec) — the question "what accuracy
// distribution do I get across many fabricated devices?" that a single
// deterministic deployment point cannot answer.
//
// First hops: no perturbation touches free space, so every model scored
// against one eval set starts from the same first hops — the eval inputs
// already propagated to the first mask, one frame per input, the memory of
// the encoded fields they replace. The evaluator builds them on the first
// evaluate() for a grid and PropagatorOptions and scores the clean model,
// every realization and every compare() variant from them: an L-layer model
// costs L propagations per sample and model instead of L + 1.
//
// Common random numbers: realization seeds depend only on (seed, r), never
// on the model, so evaluate()-ing two model variants (e.g. baseline vs
// 2*pi-smoothed) subjects them to IDENTICAL perturbation draws; compare()
// packages that A/B.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "data/dataset.hpp"
#include "donn/model.hpp"
#include "fab/perturbation.hpp"

namespace odonn::fab {

struct MonteCarloOptions {
  std::size_t realizations = 32;
  std::uint64_t seed = 7;
  /// Antithetic realization pairs (fab::realization_rng): realizations
  /// (2m, 2m+1) share one seed with mirrored Gaussian draws, lowering the
  /// variance of the mean-accuracy estimator at equal R. Works best with
  /// an even R so every pair is complete.
  bool antithetic = false;
  /// Accuracy a fabricated device must reach to count toward yield.
  double yield_threshold = 0.5;
  /// Deploy each realization through the interpixel-crosstalk emulation
  /// (the nominal options below, possibly jittered by the stack).
  bool deploy_crosstalk = true;
  donn::CrosstalkOptions crosstalk = {};
};

struct RobustnessReport {
  std::string model_name;
  std::size_t realizations = 0;
  double clean_accuracy = 0.0;  ///< unperturbed, crosstalk-free reference
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p5 = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double yield = 0.0;  ///< fraction of realizations >= yield_threshold
  double yield_threshold = 0.5;
  /// Per-realization accuracies, indexed by realization id (fixed order).
  std::vector<double> accuracies;

  /// FNV-1a hash over the exact bit patterns of clean_accuracy and every
  /// per-realization accuracy: two reports are bitwise identical iff their
  /// digests match (scripts/check.sh compares this across ODONN_THREADS).
  std::uint64_t digest() const;
};

/// Yield of an existing report at a different accuracy spec (reports keep
/// the per-realization accuracies, so yield curves need no re-simulation).
double yield_at(const RobustnessReport& report, double threshold);

/// Nearest-rank percentile of the report's accuracy distribution (the
/// repo-wide odonn::nearest_rank rule from tensor/stats).
double percentile(const RobustnessReport& report, double q);

class MonteCarloEvaluator {
 public:
  /// `eval_set` images must already match the model grid (the trainer's
  /// convention; use data::resize_dataset). The dataset must outlive the
  /// evaluator, so a temporary one is rejected at compile time.
  MonteCarloEvaluator(const data::Dataset& eval_set,
                      const MonteCarloOptions& options);
  MonteCarloEvaluator(data::Dataset&& eval_set,
                      const MonteCarloOptions& options) = delete;

  const MonteCarloOptions& options() const { return options_; }

  /// Runs R realizations of `stack` against `model` (parallel across
  /// realizations; each realization scores the whole eval set with one
  /// infer_batch call from the cached first hops).
  RobustnessReport evaluate(const std::string& name,
                            const donn::DonnModel& model,
                            const PerturbationStack& stack) const;

  /// Evaluates several variants under common random numbers (identical
  /// perturbation draws per realization index) — the fair yield A/B.
  std::vector<RobustnessReport> compare(
      const std::vector<std::pair<std::string, const donn::DonnModel*>>&
          variants,
      const PerturbationStack& stack) const;

 private:
  /// The eval set's first hops under `model`'s grid and propagation
  /// options. Shared immutable snapshot: evaluate() holds its own reference
  /// for the whole run, so a concurrent rebuild for another geometry can
  /// never mutate frames another call is still reading.
  std::shared_ptr<const donn::DonnModel::FirstHops> first_hops(
      const donn::DonnModel& model) const;

  const data::Dataset& eval_;
  MonteCarloOptions options_;
  /// The eval set's first hops, built by the first evaluate() for a
  /// geometry (never by the constructor) and reused across
  /// evaluate()/compare() calls until a model of another grid or
  /// propagation options replaces them. Guarded by cache_mutex_ so
  /// concurrent evaluate() calls on one instance are safe (each call still
  /// owns the realization-level parallelism inside it).
  mutable Mutex cache_mutex_;
  mutable std::shared_ptr<const donn::DonnModel::FirstHops> hops_
      ODONN_GUARDED_BY(cache_mutex_);
};

}  // namespace odonn::fab
