#include "donn/model.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "donn/phase_mask.hpp"

namespace odonn::donn {

namespace {

/// Paper mixing ratio lambda*z/(n*pitch^2): how far one pixel's diffraction
/// cone spreads relative to the aperture after one inter-layer hop.
constexpr double kPaperMixingRatio = 0.5735;

constexpr std::size_t L = fft::Frame::kLanes;

/// Calls fn(f, i) for every element of an n x n frame, lane group by lane
/// group: f is its plane offset, i its row-major index. Idle lanes of a
/// partial last group are skipped.
template <typename Fn>
void for_each_pixel(std::size_t n, Fn&& fn) {
  for (std::size_t g = 0; g * L < n; ++g) {
    const std::size_t rows = std::min(L, n - g * L);
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t f = (g * n + c) * L;
      const std::size_t i = g * L * n + c;
      for (std::size_t u = 0; u < rows; ++u) fn(f + u, i + u * n);
    }
  }
}

std::size_t argmax(const std::vector<double>& scores) {
  return static_cast<std::size_t>(
      std::max_element(scores.begin(), scores.end()) - scores.begin());
}

}  // namespace

DonnConfig DonnConfig::paper() { return DonnConfig{}; }

DonnConfig DonnConfig::scaled(std::size_t grid_n) {
  ODONN_CHECK(grid_n >= 16, "scaled config needs grid_n >= 16");
  DonnConfig cfg;
  cfg.grid.n = grid_n;
  // lambda*z/(n*pitch^2) = kPaperMixingRatio  =>  pitch as below; at n=200
  // this recovers the paper's 36 um pixels exactly.
  cfg.grid.pitch = std::sqrt(cfg.wavelength * cfg.distance /
                             (kPaperMixingRatio * static_cast<double>(grid_n)));
  cfg.detector_size = std::max<std::size_t>(2, grid_n / 10);
  return cfg;
}

DonnModel::DonnModel(const DonnConfig& config, Rng& rng)
    : config_(config),
      propagator_(std::make_shared<const optics::Propagator>(
          config.grid,
          optics::PropagatorOptions{
              {config.kernel, config.wavelength, config.distance},
              config.pad2x})),
      detector_(ReadoutStrategy::evenly_spaced(config.detector, config.grid.n,
                                               config.num_classes,
                                               config.detector_size)) {
  ODONN_CHECK(config.num_layers >= 1, "model needs at least one layer");
  phases_.reserve(config.num_layers);
  for (std::size_t i = 0; i < config.num_layers; ++i) {
    phases_.push_back(config.init == PhaseInit::Flat
                          ? flat_phase_mask(config.grid.n, rng)
                          : random_phase_mask(config.grid.n, rng));
  }
}

void DonnModel::set_phases(std::vector<MatrixD> phases) {
  ODONN_CHECK_SHAPE(phases.size() == phases_.size(),
                    "set_phases: layer count mismatch");
  for (const auto& phi : phases) {
    ODONN_CHECK_SHAPE(phi.rows() == config_.grid.n && phi.cols() == config_.grid.n,
                      "set_phases: mask shape mismatch");
  }
  phases_ = std::move(phases);
  apply_masks();
}

void DonnModel::set_masks(std::vector<sparsify::SparsityMask> masks) {
  if (!masks.empty()) {
    ODONN_CHECK_SHAPE(masks.size() == phases_.size(),
                      "set_masks: layer count mismatch");
    for (const auto& m : masks) {
      ODONN_CHECK_SHAPE(m.rows() == config_.grid.n && m.cols() == config_.grid.n,
                        "set_masks: mask shape mismatch");
    }
  }
  masks_ = std::move(masks);
  apply_masks();
}

void DonnModel::clear_masks() { masks_.clear(); }

void DonnModel::apply_masks() {
  if (masks_.empty()) return;
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    sparsify::apply_mask(phases_[i], masks_[i]);
  }
}

void DonnModel::mask_gradients(std::vector<MatrixD>& grads) const {
  if (masks_.empty()) return;
  ODONN_CHECK_SHAPE(grads.size() == masks_.size(),
                    "mask_gradients: layer count mismatch");
  for (std::size_t i = 0; i < grads.size(); ++i) {
    sparsify::apply_mask(grads[i], masks_[i]);
  }
}

void DonnModel::check_modulations(const std::vector<MatrixC>& modulations,
                                  const char* what) const {
  const std::size_t n = config_.grid.n;
  ODONN_CHECK_SHAPE(modulations.size() == phases_.size(),
                    std::string(what) + ": modulation table count mismatch");
  for (const auto& w : modulations) {
    ODONN_CHECK_SHAPE(w.rows() == n && w.cols() == n,
                      std::string(what) + ": modulation table shape mismatch");
  }
}

bool DonnModel::accepts(const FirstHops& hops) const {
  return hops.grid_ == config_.grid &&
         hops.propagation_ == propagator_->options();
}

void DonnModel::first_hop(const optics::Field& input, fft::Frame& frame,
                          optics::Propagator::Workspace& propagation) const {
  ODONN_CHECK_SHAPE(input.grid() == config_.grid,
                    "model grid does not match input field grid");
  frame.reshape(config_.grid.n, config_.grid.n);
  frame.load(input.values().data());
  propagator_->forward_frame(frame, propagation);
}

void DonnModel::run_stack(const std::vector<MatrixC>& modulations,
                          Workspace& workspace, bool keep_propagated) const {
  const std::size_t n = config_.grid.n;
  fft::Frame& field = workspace.field;
  if (keep_propagated) workspace.propagated.resize(modulations.size());
  double* re = field.re();
  double* im = field.im();
  for (std::size_t l = 0; l < modulations.size(); ++l) {
    if (keep_propagated) workspace.propagated[l] = field;
    // field *= w, as std::complex's operator*=: (ac - bd, ad + bc).
    const std::complex<double>* w = modulations[l].data();
    for_each_pixel(n, [&](std::size_t f, std::size_t i) {
      const double a = re[f];
      const double b = im[f];
      const double c = w[i].real();
      const double d = w[i].imag();
      re[f] = a * c - b * d;
      im[f] = a * d + b * c;
    });
    propagator_->forward_frame(field, workspace.propagation);
  }
}

void DonnModel::run_stack(const optics::Field& input,
                          const std::vector<MatrixC>& modulations,
                          Workspace& workspace, bool keep_propagated) const {
  first_hop(input, workspace.field, workspace.propagation);
  run_stack(modulations, workspace, keep_propagated);
}

std::vector<double> DonnModel::readout(const Workspace& workspace) const {
  // DetectorLayout::readout over |f|^2 = re*re + im*im (std::norm), summed
  // region by region in raster order.
  const fft::Frame& field = workspace.field;
  const double* re = field.re();
  const double* im = field.im();
  const auto& regions = detector_.layout().regions();
  std::vector<double> region_sums(regions.size(), 0.0);
  for (std::size_t k = 0; k < regions.size(); ++k) {
    const auto& region = regions[k];
    double acc = 0.0;
    for (std::size_t r = region.r0; r < region.r0 + region.size; ++r) {
      for (std::size_t c = region.c0; c < region.c0 + region.size; ++c) {
        const std::size_t f = field.index(r, c);
        acc += re[f] * re[f] + im[f] * im[f];
      }
    }
    region_sums[k] = acc;
  }
  return detector_.scores_from_region_sums(std::move(region_sums));
}

void DonnModel::fill_intensity(Workspace& workspace) const {
  const std::size_t n = config_.grid.n;
  MatrixD& intensity = workspace.intensity;
  if (intensity.rows() != n || intensity.cols() != n) {
    intensity = MatrixD(n, n);
  }
  const double* re = workspace.field.re();
  const double* im = workspace.field.im();
  double* out = intensity.data();
  for_each_pixel(n, [&](std::size_t f, std::size_t i) {
    out[i] = re[f] * re[f] + im[f] * im[f];
  });
}

optics::Field DonnModel::propagate_through(const optics::Field& input) const {
  Workspace workspace;
  run_stack(input, modulation_tables(), workspace, /*keep_propagated=*/false);
  MatrixC values(config_.grid.n, config_.grid.n);
  workspace.field.store(values.data());
  return optics::Field(config_.grid, std::move(values));
}

std::vector<double> DonnModel::detector_sums(const optics::Field& input) const {
  Workspace workspace;
  run_stack(input, modulation_tables(), workspace, /*keep_propagated=*/false);
  return readout(workspace);
}

std::size_t DonnModel::predict(const optics::Field& input,
                               const std::vector<MatrixC>& modulations,
                               Workspace& workspace) const {
  check_modulations(modulations, "predict");
  run_stack(input, modulations, workspace, /*keep_propagated=*/false);
  return argmax(readout(workspace));
}

std::vector<MatrixC> DonnModel::modulation_tables() const {
  std::vector<MatrixC> mods;
  mods.reserve(phases_.size());
  for (const auto& phi : phases_) {
    MatrixC w(phi.rows(), phi.cols());
    for (std::size_t i = 0; i < phi.size(); ++i) {
      w[i] = std::complex<double>(std::cos(phi[i]), std::sin(phi[i]));
    }
    mods.push_back(std::move(w));
  }
  return mods;
}

void DonnModel::infer_samples(
    std::size_t count, std::vector<std::size_t>* predictions,
    std::vector<std::vector<double>>* sums, std::vector<MatrixD>* intensities,
    const std::function<void(std::size_t, Workspace&)>& run) const {
  if (predictions) predictions->resize(count);
  if (sums) sums->resize(count);
  if (intensities) intensities->resize(count);
  if (count == 0) return;

  // Samples are independent, so chunks write only to their own output
  // slots: results are deterministic regardless of scheduling. One
  // workspace per chunk makes steady-state per-sample work allocation-free.
  parallel_for_chunks(
      0, count,
      [&](std::size_t lo, std::size_t hi) {
        Workspace workspace;
        for (std::size_t k = lo; k < hi; ++k) {
          run(k, workspace);
          auto class_sums = readout(workspace);
          if (predictions) (*predictions)[k] = argmax(class_sums);
          if (sums) (*sums)[k] = std::move(class_sums);
          if (intensities) {
            fill_intensity(workspace);
            (*intensities)[k] = workspace.intensity;
          }
        }
      },
      /*grain=*/1);
}

void DonnModel::infer_batch(const std::vector<optics::Field>& inputs,
                            const std::vector<MatrixC>& modulations,
                            std::vector<std::size_t>* predictions,
                            std::vector<std::vector<double>>* sums,
                            std::vector<MatrixD>* intensities) const {
  check_modulations(modulations, "infer_batch");
  for (const auto& input : inputs) {
    ODONN_CHECK_SHAPE(input.grid() == config_.grid,
                      "infer_batch: input grid mismatch");
  }
  infer_samples(inputs.size(), predictions, sums, intensities,
                [&](std::size_t k, Workspace& workspace) {
                  run_stack(inputs[k], modulations, workspace,
                            /*keep_propagated=*/false);
                });
}

DonnModel::FirstHops DonnModel::first_hops(
    std::size_t count,
    const std::function<optics::Field(std::size_t)>& input) const {
  FirstHops hops(config_.grid, propagator_->options(), count);
  parallel_for_chunks(
      0, count,
      [&](std::size_t lo, std::size_t hi) {
        optics::Propagator::Workspace propagation;
        for (std::size_t k = lo; k < hi; ++k) {
          first_hop(input(k), hops.frames_[k], propagation);
        }
      },
      /*grain=*/1);
  return hops;
}

void DonnModel::infer_batch(const FirstHops& hops,
                            const std::vector<MatrixC>& modulations,
                            std::vector<std::size_t>* predictions,
                            std::vector<std::vector<double>>* sums,
                            std::vector<MatrixD>* intensities) const {
  check_modulations(modulations, "infer_batch");
  ODONN_CHECK_SHAPE(accepts(hops),
                    "infer_batch: first hops of another grid or propagation");
  infer_samples(hops.size(), predictions, sums, intensities,
                [&](std::size_t k, Workspace& workspace) {
                  workspace.field = hops.frames_[k];
                  run_stack(modulations, workspace,
                            /*keep_propagated=*/false);
                });
}

std::vector<std::vector<double>> DonnModel::detector_sums_batch(
    const std::vector<optics::Field>& inputs) const {
  std::vector<std::vector<double>> sums;
  infer_batch(inputs, modulation_tables(), nullptr, &sums, nullptr);
  return sums;
}

std::vector<MatrixD> DonnModel::zero_gradients() const {
  std::vector<MatrixD> grads;
  grads.reserve(phases_.size());
  for (const auto& phi : phases_) {
    grads.emplace_back(phi.rows(), phi.cols(), 0.0);
  }
  return grads;
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const optics::Field& input, std::size_t label,
    std::vector<MatrixD>& phase_grads, const LossOptions& loss_options) const {
  Workspace workspace;
  return forward_backward(input, label, modulation_tables(), workspace,
                          phase_grads, loss_options);
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const optics::Field& input, std::size_t label,
    const std::vector<MatrixC>& modulations, Workspace& workspace,
    std::vector<MatrixD>& phase_grads, const LossOptions& loss_options) const {
  check_modulations(modulations, "forward_backward");
  run_stack(input, modulations, workspace, /*keep_propagated=*/true);
  return backward(label, modulations, workspace, phase_grads, loss_options);
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const FirstHops& hops, std::size_t k, std::size_t label,
    const std::vector<MatrixC>& modulations, Workspace& workspace,
    std::vector<MatrixD>& phase_grads, const LossOptions& loss_options) const {
  check_modulations(modulations, "forward_backward");
  ODONN_CHECK_SHAPE(accepts(hops),
                    "forward_backward: first hops of another grid or "
                    "propagation");
  ODONN_CHECK_SHAPE(k < hops.size(),
                    "forward_backward: first hop index out of range");
  workspace.field = hops.frames_[k];
  run_stack(modulations, workspace, /*keep_propagated=*/true);
  return backward(label, modulations, workspace, phase_grads, loss_options);
}

DonnModel::ForwardBackwardResult DonnModel::backward(
    std::size_t label, const std::vector<MatrixC>& modulations,
    Workspace& workspace, std::vector<MatrixD>& phase_grads,
    const LossOptions& loss_options) const {
  ODONN_CHECK_SHAPE(phase_grads.size() == phases_.size(),
                    "forward_backward: gradient count mismatch");
  for (const auto& g : phase_grads) {
    ODONN_CHECK_SHAPE(g.rows() == config_.grid.n && g.cols() == config_.grid.n,
                      "forward_backward: gradient shape mismatch");
  }
  const auto sums = readout(workspace);
  const LossResult lr = evaluate_loss(sums, label, loss_options);

  // Backward, in place on the detector-plane frame:
  // dL/dI -> g(f) = 2 f dL/dI -> adjoint propagation -> layers.
  const std::size_t n = config_.grid.n;
  fft::Frame& grad = workspace.field;
  double* gr = grad.re();
  double* gi = grad.im();
  const MatrixD grad_intensity = detector_.scatter(lr.grad_sums);
  const double* gI = grad_intensity.data();
  for_each_pixel(n, [&](std::size_t f, std::size_t i) {
    // 2.0 * g * dL/dI: std::complex scales each part by a real factor.
    gr[f] = 2.0 * gr[f] * gI[i];
    gi[f] = 2.0 * gi[f] * gI[i];
  });
  propagator_->adjoint_frame(grad, workspace.propagation);
  for (std::size_t l = modulations.size(); l-- > 0;) {
    const std::complex<double>* w = modulations[l].data();
    const double* pr = workspace.propagated[l].re();
    const double* pi = workspace.propagated[l].im();
    double* phase_grad = phase_grads[l].data();
    // Each product below is std::complex's (ac - bd, ad + bc), operand by
    // operand; conj() negates the imaginary part first.
    for_each_pixel(n, [&](std::size_t f, std::size_t i) {
      const double wr = w[i].real();
      const double wi = w[i].imag();
      const double g_r = gr[f];
      const double g_i = gi[f];
      // g(w) = conj(f_prop) * g(out).
      const double ar = pr[f];
      const double ai = -pi[f];
      const double gw_r = ar * g_r - ai * g_i;
      const double gw_i = ar * g_i + ai * g_r;
      // dL/dphi = Re((i * w) * conj(g(w))).
      const double iw_r = 0.0 * wr - 1.0 * wi;
      const double iw_i = 0.0 * wi + 1.0 * wr;
      phase_grad[i] += iw_r * gw_r - iw_i * -gw_i;
      // g(f_prop) = conj(w) * g(out).
      const double cr = wr;
      const double ci = -wi;
      gr[f] = cr * g_r - ci * g_i;
      gi[f] = cr * g_i + ci * g_r;
    });
    // The gradient wrt the input field itself is never needed.
    if (l > 0) propagator_->adjoint_frame(grad, workspace.propagation);
  }
  return {lr.loss, lr.predicted};
}

}  // namespace odonn::donn
