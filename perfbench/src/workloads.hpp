// The three benchmark workloads. Each constructor is the workload's set-up
// (data synthesis, model build, FFT plans, encoding, warm-up); the member
// functions run the timed work and feed every output through the digest
// gate.
//
//   train_oursd_g64  one Ours-D recipe end to end (train -> sparsify ->
//                    report -> smooth -> evaluate) at grid 64, default
//                    bench scale.
//   mc_yield_g200    MonteCarloEvaluator::evaluate of one seeded
//                    uniform-init model at the paper grid n=200 (Bluestein
//                    FFT, infer_batch fallback), default perturbation stack
//                    deployed through crosstalk.
//   serve_open_g32   ServeCluster (2 replicas, inner_threads=1, continuous
//                    batching, max_batch 8) at grid 32: closed-loop
//                    saturation, then open loop at two fixed rates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/rng.hpp"
#include "data/dataset.hpp"
#include "donn/model.hpp"
#include "fab/montecarlo.hpp"
#include "harness.hpp"
#include "optics/field.hpp"
#include "serve/cluster.hpp"

namespace perfbench {

/// What every workload needs from the run: options, the input seed it
/// derives its inputs from, and where outputs are checked and counted.
struct Context {
  const Options& options;
  std::uint64_t input_seed = 0;
  DigestGate& gate;
  Outcome& outcome;
};

/// A seeded model with uniform [0, 2*pi) phases (no training).
odonn::donn::DonnModel uniform_model(std::size_t grid, std::uint64_t seed);

/// `count` encoded images of uniform random pixels at the model's grid.
std::vector<odonn::optics::Field> random_inputs(
    const odonn::donn::DonnModel& model, std::size_t count, odonn::Rng& rng);

inline constexpr const char* kTrainName = "train_oursd_g64";
inline constexpr const char* kMcName = "mc_yield_g200";
inline constexpr const char* kServeName = "serve_open_g32";

class TrainWorkload {
 public:
  explicit TrainWorkload(const Context& ctx);

  struct Unit {
    double seconds = 0.0;
    /// Stage wall times from the public progress sink (traced units only).
    std::map<std::string, double> stage_s;
  };
  /// Runs one Ours-D recipe and checks its trained and smoothed phase
  /// digests.
  Unit run_unit(bool traced);

 private:
  Context ctx_;
  odonn::bench::BenchConfig config_;
  odonn::train::RecipeOptions recipe_;
  odonn::bench::PreparedData data_;
};

class McWorkload {
 public:
  explicit McWorkload(const Context& ctx);
  McWorkload(const McWorkload&) = delete;
  McWorkload& operator=(const McWorkload&) = delete;

  std::size_t realizations() const { return options_.realizations; }

  /// One evaluate() over every realization; checks the report digest and
  /// returns its wall seconds.
  double run_unit();

 private:
  Context ctx_;
  odonn::data::Dataset eval_;  ///< referenced by evaluator_, declared first
  odonn::donn::DonnModel model_;
  odonn::fab::PerturbationStack stack_;
  odonn::fab::MonteCarloOptions options_;
  odonn::fab::MonteCarloEvaluator evaluator_;
};

class ServeWorkload {
 public:
  explicit ServeWorkload(const Context& ctx);
  ServeWorkload(const ServeWorkload&) = delete;
  ServeWorkload& operator=(const ServeWorkload&) = delete;

  /// Fixed offered loads of the open-loop phases [requests/s]: about 15%
  /// and 65% of the grid-32 saturation measured on a 4-core host when the
  /// benchmark was defined. Constants, so every commit is offered the same
  /// load.
  static constexpr double kLowRps = 2000.0;
  static constexpr double kHighRps = 8000.0;

  /// Requests the closed-loop client keeps in flight.
  static constexpr std::size_t kInFlight = 64;

  struct Saturation {
    std::vector<double> slice_rps;  ///< completions per second, per slice
    double mean_batch = 0.0;
    /// Throughput the cluster sustains: the upper decile over slices
    /// (nearest rank), which discounts slices slowed by other tenants of
    /// a shared host.
    double capacity_rps() const { return quantile(slice_rps, 0.9); }
  };
  /// Closed loop for `seconds` (at least three slices): kInFlight requests
  /// outstanding, the next one submitted as the oldest completes.
  /// Throughput is counted per 0.25 s slice.
  Saturation saturation(double seconds);

  struct OpenLoop {
    double offered_rps = 0.0;
    /// Per request, in submit order (completed requests only) [s]:
    std::vector<double> latency;     ///< scheduled send -> response ready
    std::vector<double> queue_wait;  ///< LatencyBreakdown components
    std::vector<double> batch_wait;
    std::vector<double> compute;
    std::vector<double> gen_lag;     ///< actual submit - scheduled send
    double mean_batch = 0.0;
  };
  /// Open loop at a fixed rate for `seconds`: request k is due at
  /// start + k / rate and is submitted then, whatever is still in flight.
  /// Rejected or errored requests count as failed and are never retried.
  OpenLoop open_loop(double rate, double seconds);

 private:
  /// Exact comparison against the expected sums of pool entry k % pool
  /// size (after the optional self-test corruption of the first response).
  bool check_response(std::size_t k, odonn::serve::PredictResult& r);

  Context ctx_;
  std::vector<odonn::optics::Field> pool_;
  std::vector<std::vector<double>> reference_;  ///< per pool entry
  std::unique_ptr<odonn::serve::ServeCluster> cluster_;
  bool corrupt_pending_ = false;
};

}  // namespace perfbench
