// Mini-batch trainer for DonnModel with the paper's regularizers, the
// SLR/ADMM compression hooks and noise-in-the-loop robust training.
//
// Per batch:  grad = (1/(B*K)) sum_k sum_samples dLoss_k/dphi
//             (K = 1 clean, K = robust.realizations fabricated devices)
//           + p * dR(W)/dW + q * dR_intra(W)/dW              (Eq. 5 / Eq. 8)
//           + dPenalty/dW from the SLR or ADMM state (if attached)
// then masked-gradient zeroing (if sparsity masks are frozen), an Adam step
// at the fixed learning rate of the stage (§IV-A2: no schedule), and mask
// re-application. Compression rounds (Z-step + multiplier updates) run four
// times per epoch.
//
// Robust mode (RobustTrainOptions): each step samples K fabrication
// realizations of the current device via counter-based fab streams, runs
// forward/backward through the PERTURBED deployments and applies the
// averaged gradient to the clean phases (the straight-through
// weight-noise-injection estimator), so the optimizer descends the
// EXPECTED fabricated loss instead of the clean loss. For the additive
// noise of the perturbation stack that estimator is unbiased; the
// realizations skip the interpixel-crosstalk emulation, through whose
// roughness-gated blur it would acquire a bias that dominates the update
// (the blur rides on the injected noise, not on the clean mask). The K
// deployments share one batch of first hops (DonnModel::first_hops): the
// batch inputs are propagated to the first mask once per step, not once
// per device.
//
// Determinism contract: gradient accumulation uses a FIXED number of
// reduction slices (not the pool size), so for a given seed the trained
// model is bitwise independent of ODONN_THREADS and of scheduling — the
// same contract the Monte-Carlo evaluator gives for reports.
//
// Images are expected to be pre-resized to the optical grid (use
// data::resize_dataset); they are amplitude-encoded to a unit-power
// coherent field on the fly (optics::encode_image, §III-A).
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"
#include "donn/crosstalk.hpp"
#include "donn/model.hpp"
#include "fab/perturbation.hpp"
#include "roughness/intra_block.hpp"
#include "roughness/roughness.hpp"
#include "slr/admm.hpp"
#include "slr/slr.hpp"
#include "train/optim.hpp"

namespace odonn::train {

struct RegularizerOptions {
  /// Eq. 5 factor p (0 disables). The trainer normalizes R(W) per pixel, so
  /// p is grid-size invariant: the paper's published inflection point
  /// p ~ 0.1 (Fig. 6c) applies unchanged at reduced CPU scales.
  double roughness_p = 0.0;
  /// Eq. 8 factor q (0 disables), over the IntraBlockOptions default 2x2
  /// tiles; R_intra is normalized per block for the same reason (paper
  /// inflection at log q = 1, Fig. 6d).
  double intra_q = 0.0;
  roughness::RoughnessOptions roughness = {};
};

/// Noise-in-the-loop robust training: optimize the expected FABRICATED
/// loss by sampling fabrication-variability realizations inside the
/// training loop (complementing the Eq. 5/8 roughness regularizers, which
/// only shape the clean masks). Enabled by a non-null perturbation stack.
struct RobustTrainOptions {
  /// Non-owning; non-null enables robust training. Must outlive the run.
  const fab::PerturbationStack* stack = nullptr;
  /// K: fabricated-device samples averaged into every gradient step.
  std::size_t realizations = 2;
  /// Mirrored realization pairs (fab::realization_rng): the pair mean
  /// cancels the loss's linear response to the perturbation, reducing
  /// gradient-estimator variance at equal K. Requires an even K (enforced
  /// by the Trainer) so pairs never straddle a step boundary.
  bool antithetic = true;
  /// Sample the K noise draws once per EPOCH (re-applied to the evolving
  /// phases every batch) instead of fresh draws per batch.
  bool per_epoch = false;
  /// Base of the counter-based realization stream (independent of the
  /// shuffle and init streams).
  std::uint64_t seed = 7;
  /// Stream counter to start from: checkpointed runs persist
  /// Trainer::realizations_sampled() and continue the identical stream.
  std::uint64_t counter_start = 0;
};

struct TrainOptions {
  std::size_t epochs = 5;
  std::size_t batch_size = 200;  ///< paper batch size
  double lr = 0.2;               ///< paper baseline lr (Adam)
  RegularizerOptions reg = {};
  std::uint64_t seed = 7;
  /// Optional compression state; at most one may be attached.
  slr::SlrState* slr = nullptr;
  slr::AdmmState* admm = nullptr;
  /// Noise-in-the-loop robust training (stack != nullptr enables).
  RobustTrainOptions robust = {};
  bool verbose = false;
};

struct EpochStats {
  /// Mean per-sample loss; in robust mode the mean over samples AND the K
  /// realizations — the expected fabricated loss being minimized.
  double data_loss = 0.0;
  double reg_loss = 0.0;       ///< p*R + q*R_intra at epoch end
  double penalty_loss = 0.0;   ///< SLR/ADMM penalty at epoch end
  /// Training accuracy; in robust mode the expected fabricated accuracy.
  double train_accuracy = 0.0;
};

class Trainer {
 public:
  /// `train` images must already match the model grid.
  Trainer(donn::DonnModel& model, const data::Dataset& train,
          const TrainOptions& options);

  /// One full pass over the training set.
  EpochStats run_epoch();

  /// All configured epochs; returns per-epoch stats.
  std::vector<EpochStats> run();

  const TrainOptions& options() const { return options_; }

  /// Total fabrication realizations drawn from the robust stream so far
  /// (counter_start included). Serialize this to resume the stream: a
  /// continuation run with counter_start = realizations_sampled() draws
  /// exactly the realizations an uninterrupted run would have.
  std::uint64_t realizations_sampled() const { return realization_counter_; }

 private:
  void compress_round(double surrogate_loss);

  donn::DonnModel& model_;
  const data::Dataset& train_;
  TrainOptions options_;
  Adam optimizer_;
  Rng rng_;
  /// Reduction slices per realization block.
  std::size_t slices_ = 0;
  /// One frame-layout gradient set per reduction slot (realization-major),
  /// allocated once; each batch's slot task zeroes its own.
  std::vector<donn::DonnModel::FrameGradients> slot_grads_;
  std::size_t epoch_ = 0;
  std::uint64_t realization_counter_ = 0;
};

/// Test-set accuracy of a model (batch-parallel). Images must match the
/// model grid.
double evaluate_accuracy(const donn::DonnModel& model,
                         const data::Dataset& test);

/// Accuracy with every phase mask passed through the interpixel-crosstalk
/// deployment model first (DESIGN.md §2) — the "physical deployment" column.
double evaluate_deployed_accuracy(const donn::DonnModel& model,
                                  const data::Dataset& test,
                                  const donn::CrosstalkOptions& crosstalk);

}  // namespace odonn::train
