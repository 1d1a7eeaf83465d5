#include "train/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "obs/obs.hpp"
#include "optics/encode.hpp"

namespace odonn::train {

namespace {

void check_dataset(const donn::DonnModel& model, const data::Dataset& ds,
                   const char* what) {
  ODONN_CHECK(!ds.empty(), std::string(what) + ": empty dataset");
  ODONN_CHECK_SHAPE(ds.image(0).rows() == model.config().grid.n &&
                        ds.image(0).cols() == model.config().grid.n,
                    std::string(what) +
                        ": images must be pre-resized to the model grid");
  ODONN_CHECK(ds.num_classes() == model.config().num_classes,
              std::string(what) + ": class count mismatch");
}

/// SLR/ADMM compression rounds (Z-step + multiplier updates) per epoch.
constexpr std::size_t kCompressRoundsPerEpoch = 4;

/// Reduction-slice count. FIXED (not thread_count()) so the accumulation
/// layout — which samples share a partial sum, and the order partials are
/// reduced in — is a pure function of the configuration: trained models
/// are bitwise independent of ODONN_THREADS. 32 keeps every realistic pool
/// busy while bounding the per-batch scratch to 32 gradient sets.
constexpr std::size_t kGradientSlices = 32;

/// The Eq. 8 tiles of the intra-block term: the IntraBlockOptions default.
constexpr roughness::IntraBlockOptions kIntraBlocks{};

/// Lane groups (of fft::Frame::kLanes rows) per task of the slot fold. A
/// constant, so the fold's tasks never depend on the pool size.
constexpr std::size_t kFoldGroups = 4;

}  // namespace

Trainer::Trainer(donn::DonnModel& model, const data::Dataset& train,
                 const TrainOptions& options)
    : model_(model), train_(train), options_(options),
      optimizer_(options.lr), rng_(options.seed),
      realization_counter_(options.robust.counter_start) {
  check_dataset(model, train, "trainer");
  ODONN_CHECK(options.batch_size >= 1, "trainer: batch_size must be >= 1");
  ODONN_CHECK(!(options.slr && options.admm),
              "trainer: attach at most one compression state");
  if (options.robust.stack != nullptr) {
    ODONN_CHECK(options.robust.realizations >= 1,
                "trainer: robust training needs at least one realization");
    // Odd K — or resuming at an odd stream counter — would straddle pair
    // boundaries across steps (the mirror of a step's last realization
    // lands in the NEXT step, against different phases), silently
    // degrading to plain sampling — reject instead.
    ODONN_CHECK(!options.robust.antithetic ||
                    options.robust.realizations % 2 == 0,
                "trainer: antithetic robust training needs an even number "
                "of realizations (or set antithetic=0)");
    ODONN_CHECK(!options.robust.antithetic ||
                    options.robust.counter_start % 2 == 0,
                "trainer: antithetic robust training must resume at an "
                "even realization counter (stream from a plain odd-K run "
                "cannot be pair-aligned)");
  }
  // Slot layout: `realizations` blocks of `slices_` reduction slices each.
  // Both factors are pure functions of the configuration (kGradientSlices
  // is a constant, never thread_count()), so partial-sum membership and
  // reduction order — hence the trained model — are bitwise independent of
  // ODONN_THREADS.
  const bool robust = options.robust.stack != nullptr;
  const std::size_t realizations = robust ? options.robust.realizations : 1;
  slices_ = robust ? std::max<std::size_t>(1, kGradientSlices / realizations)
                   : kGradientSlices;
  slot_grads_.assign(realizations * slices_, model.zero_frame_gradients());
}

void Trainer::compress_round(double surrogate_loss) {
  if (options_.slr != nullptr) {
    options_.slr->round(model_.phases(), surrogate_loss);
  } else if (options_.admm != nullptr) {
    options_.admm->round(model_.phases());
  }
}

EpochStats Trainer::run_epoch() {
  ODONN_OBS_SPAN(epoch_span, "train.epoch");
  ODONN_OBS_COUNT("train.epochs", 1);
  const std::size_t count = train_.size();
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), 0);
  rng_.shuffle(order);

  const bool robust = options_.robust.stack != nullptr;
  const std::size_t realizations = robust ? options_.robust.realizations : 1;
  const std::size_t slices = slices_;
  const std::size_t slots = slot_grads_.size();
  const std::size_t layers = model_.num_layers();
  const std::size_t n = model_.config().grid.n;
  const std::size_t groups = (n + fft::Frame::kLanes - 1) / fft::Frame::kLanes;
  const std::size_t fold_ranges = (groups + kFoldGroups - 1) / kFoldGroups;
  const std::size_t batches = (count + options_.batch_size - 1) / options_.batch_size;
  const std::size_t round_every =
      std::max<std::size_t>(1, batches / kCompressRoundsPerEpoch);

  double epoch_loss = 0.0;
  std::size_t epoch_correct = 0;
  double last_surrogate = 0.0;

  // Per-epoch resampling: the K noise streams are pinned at epoch start
  // and re-applied to the evolving phases every batch; per-batch mode
  // draws fresh streams each step.
  std::uint64_t realization_base = realization_counter_;
  if (robust && options_.robust.per_epoch) {
    realization_counter_ += realizations;
    ODONN_OBS_COUNT("train.robust_realizations", realizations);
  }

  for (std::size_t batch = 0; batch < batches; ++batch) {
    const std::size_t begin = batch * options_.batch_size;
    const std::size_t end = std::min(count, begin + options_.batch_size);
    const std::size_t batch_count = end - begin;

    // Realize the K fabricated deployments of the CURRENT phases. Stream k
    // is a pure function of (robust.seed, realization index), so the
    // devices are reproducible, resume-safe via the counter, and safe to
    // generate in parallel (each slot written exactly once). Each model in
    // use this batch (the clean model, or each realized device) gets its
    // modulation tables once, so exp(i*phi) is evaluated once per pixel per
    // batch rather than twice per sample.
    std::vector<std::unique_ptr<donn::DonnModel>> realized;
    std::vector<donn::DonnModel::ModulationFrames> modulations(realizations);
    if (robust) {
      if (!options_.robust.per_epoch) {
        realization_base = realization_counter_;
        realization_counter_ += realizations;
        ODONN_OBS_COUNT("train.robust_realizations", realizations);
      }
      realized.resize(realizations);
      parallel_for(0, realizations, [&](std::size_t k) {
        Rng stream = fab::realization_rng(
            options_.robust.seed, realization_base + k,
            options_.robust.antithetic);
        realized[k] = std::make_unique<donn::DonnModel>(fab::realize_device(
            model_, *options_.robust.stack, {}, /*deploy_crosstalk=*/false,
            stream));
        modulations[k] = realized[k]->modulation_frames();
      });
    } else {
      modulations[0] = model_.modulation_frames();
    }

    // Robust mode propagates the batch to the first mask once up front: the
    // first hop P(input) depends only on (sample, grid, propagation options),
    // never on the phases, so the K realization blocks start from
    // one batch of first-hop frames (the memory of the encoded fields)
    // instead of each re-encoding and re-propagating it. The clean path
    // (K = 1, each sample visited once) makes none and keeps encoding
    // inline, to avoid holding a batch of frames at paper-scale grids.
    const donn::DonnModel::FirstHops batch_hops = model_.first_hops(
        robust ? batch_count : 0, [&](std::size_t i) {
          return optics::encode_image(train_.image(order[begin + i]),
                                      model_.config().grid);
        });

    // Each slot accumulates its samples' gradients in its own frame-layout
    // set, which its task zeroes first.
    std::vector<double> losses(slots, 0.0);
    std::vector<std::size_t> correct(slots, 0);
    parallel_for(0, slots, [&](std::size_t slot) {
      const auto slot_start = std::chrono::steady_clock::now();
      // Gradients flow through the perturbed deployment but are applied to
      // the clean phases below — the straight-through weight-noise-
      // injection estimator of the expected fabricated loss.
      const donn::DonnModel& net = robust ? *realized[slot / slices] : model_;
      const donn::DonnModel::ModulationFrames& net_modulations =
          modulations[slot / slices];
      donn::DonnModel::FrameGradients& slot_grads = slot_grads_[slot];
      for (fft::Plane& g : slot_grads) std::fill(g.begin(), g.end(), 0.0);
      donn::DonnModel::Workspace workspace;
      const std::size_t s = slot % slices;
      for (std::size_t i = begin + s; i < end; i += slices) {
        const std::size_t idx = order[i];
        const std::size_t label = train_.label(idx);
        const auto result =
            robust ? net.forward_backward(batch_hops, i - begin, label,
                                          net_modulations, workspace,
                                          slot_grads, donn::LossOptions{})
                   : net.forward_backward(
                         optics::encode_image(train_.image(idx),
                                              model_.config().grid),
                         label, net_modulations, workspace, slot_grads,
                         donn::LossOptions{});
        losses[slot] += result.loss;
        if (result.predicted == label) ++correct[slot];
      }
      ODONN_OBS_HIST("train.grad_slice_ms",
                     std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - slot_start)
                         .count());
    });

    // Reduce slots in index order (realization-major; bitwise identical
    // for any thread count). The gradient fold runs one task per fixed
    // range of lane groups of one layer: it sums the slots' planes over the
    // range into slot 0's, in slot order, then stores the sum row-major,
    // scaled.
    double batch_loss = losses[0];
    std::size_t batch_correct = correct[0];
    for (std::size_t s = 1; s < slots; ++s) {
      batch_loss += losses[s];
      batch_correct += correct[s];
    }
    const double inv_batch =
        1.0 / static_cast<double>(batch_count * realizations);
    std::vector<MatrixD> grads = model_.zero_gradients();
    parallel_for(0, layers * fold_ranges, [&](std::size_t task) {
      const std::size_t l = task / fold_ranges;
      const std::size_t g0 = task % fold_ranges * kFoldGroups;
      const std::size_t g1 = std::min(groups, g0 + kFoldGroups);
      const std::size_t lo = g0 * n * fft::Frame::kLanes;
      const std::size_t hi = g1 * n * fft::Frame::kLanes;
      double* sum = slot_grads_[0][l].data();
      for (std::size_t s = 1; s < slots; ++s) {
        const double* part = slot_grads_[s][l].data();
        for (std::size_t f = lo; f < hi; ++f) sum[f] += part[f];
      }
      double* out = grads[l].data();
      fft::for_each_element(n, n, g0, g1, [&](std::size_t f, std::size_t i) {
        out[i] = sum[f] * inv_batch;
      });
    });

    // Regularizers (functions of the weights, added once per batch), one
    // task per layer, summed in layer order. Normalized per pixel / per
    // block so the factors p, q are independent of the grid size (see
    // RegularizerOptions).
    auto& phases = model_.phases();
    std::vector<double> roughness_terms(layers, 0.0);
    std::vector<double> intra_terms(layers, 0.0);
    parallel_for(0, layers, [&](std::size_t l) {
      if (options_.reg.roughness_p > 0.0) {
        const double scale = options_.reg.roughness_p /
                             static_cast<double>(phases[l].size());
        roughness_terms[l] =
            scale * roughness::roughness_with_grad(phases[l], grads[l], scale,
                                                   options_.reg.roughness);
      }
      if (options_.reg.intra_q > 0.0) {
        const std::size_t b = kIntraBlocks.block_size;
        const std::size_t blocks = ((phases[l].rows() + b - 1) / b) *
                                   ((phases[l].cols() + b - 1) / b);
        const double scale =
            options_.reg.intra_q / static_cast<double>(blocks);
        intra_terms[l] = scale * roughness::intra_block_variance_with_grad(
                                     phases[l], grads[l], scale, kIntraBlocks);
      }
    });
    double reg_value = 0.0;
    for (std::size_t l = 0; l < layers; ++l) {
      if (options_.reg.roughness_p > 0.0) reg_value += roughness_terms[l];
      if (options_.reg.intra_q > 0.0) reg_value += intra_terms[l];
    }

    // Compression penalty.
    double penalty = 0.0;
    if (options_.slr != nullptr) {
      penalty = options_.slr->penalty_value(phases);
      options_.slr->add_penalty_gradient(phases, grads);
    } else if (options_.admm != nullptr) {
      penalty = options_.admm->penalty_value(phases);
      options_.admm->add_penalty_gradient(phases, grads);
    }

    model_.mask_gradients(grads);
    optimizer_.step(phases, grads);
    model_.apply_masks();

    epoch_loss += batch_loss;
    epoch_correct += batch_correct;
    last_surrogate = batch_loss * inv_batch + reg_value + penalty;
    if ((options_.slr != nullptr || options_.admm != nullptr) &&
        (batch + 1) % round_every == 0) {
      compress_round(last_surrogate);
    }
  }

  ++epoch_;

  EpochStats stats;
  // In robust mode these are means over the K realizations as well: the
  // expected fabricated loss / accuracy the optimizer actually descends.
  stats.data_loss =
      epoch_loss / static_cast<double>(count * realizations);
  stats.train_accuracy = static_cast<double>(epoch_correct) /
                         static_cast<double>(count * realizations);
  const auto& phases = model_.phases();
  for (const auto& phi : phases) {
    if (options_.reg.roughness_p > 0.0) {
      stats.reg_loss += options_.reg.roughness_p / static_cast<double>(phi.size()) *
                        roughness::mask_roughness(phi, options_.reg.roughness);
    }
    if (options_.reg.intra_q > 0.0) {
      const std::size_t b = kIntraBlocks.block_size;
      const std::size_t blocks = ((phi.rows() + b - 1) / b) *
                                 ((phi.cols() + b - 1) / b);
      stats.reg_loss += options_.reg.intra_q / static_cast<double>(blocks) *
                        roughness::intra_block_variance_sum(phi, kIntraBlocks);
    }
  }
  if (options_.slr != nullptr) {
    stats.penalty_loss = options_.slr->penalty_value(phases);
  } else if (options_.admm != nullptr) {
    stats.penalty_loss = options_.admm->penalty_value(phases);
  }
  if (options_.verbose) {
    log::info() << "epoch " << epoch_ << " loss " << stats.data_loss
                << " acc " << stats.train_accuracy << " reg " << stats.reg_loss
                << " penalty " << stats.penalty_loss;
  }
  if (!std::isfinite(stats.data_loss)) {
    throw NumericsError("training loss diverged (non-finite)");
  }
  return stats;
}

std::vector<EpochStats> Trainer::run() {
  std::vector<EpochStats> history;
  history.reserve(options_.epochs);
  for (std::size_t e = 0; e < options_.epochs; ++e) {
    history.push_back(run_epoch());
  }
  return history;
}

double evaluate_accuracy(const donn::DonnModel& model,
                         const data::Dataset& test) {
  check_dataset(model, test, "evaluate");
  const donn::DonnModel::ModulationFrames modulations =
      model.modulation_frames();
  std::vector<std::uint8_t> hits(test.size(), 0);
  parallel_for_chunks(0, test.size(), [&](std::size_t lo, std::size_t hi) {
    donn::DonnModel::Workspace workspace;
    for (std::size_t i = lo; i < hi; ++i) {
      const optics::Field input =
          optics::encode_image(test.image(i), model.config().grid);
      const std::size_t predicted =
          model.predict(input, modulations, workspace);
      hits[i] = predicted == test.label(i) ? 1 : 0;
    }
  });
  std::size_t correct = 0;
  for (auto h : hits) correct += h;
  return static_cast<double>(correct) / static_cast<double>(test.size());
}

double evaluate_deployed_accuracy(const donn::DonnModel& model,
                                  const data::Dataset& test,
                                  const donn::CrosstalkOptions& crosstalk) {
  // Copy the model and corrupt its phases with the crosstalk emulation.
  donn::DonnModel deployed = model;
  std::vector<MatrixD> corrupted;
  corrupted.reserve(model.phases().size());
  for (const auto& phi : model.phases()) {
    corrupted.push_back(donn::apply_crosstalk(phi, crosstalk));
  }
  deployed.clear_masks();  // corrupted masks are dense surfaces
  deployed.set_phases(std::move(corrupted));
  return evaluate_accuracy(deployed, test);
}

}  // namespace odonn::train
