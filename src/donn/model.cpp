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

/// Doubles per plane of an n x n frame.
std::size_t plane_size(std::size_t n) { return (n + L - 1) / L * n * L; }

/// Calls fn(f, i) for every element of an n x n frame: f is its plane
/// offset, i its row-major index. Idle lanes are skipped.
template <typename Fn>
void for_each_pixel(std::size_t n, Fn&& fn) {
  fft::for_each_element(n, n, 0, (n + L - 1) / L, fn);
}

/// Calls fn(k, f) for every pixel of every detector region, region by
/// region in raster order: k is the region, f the pixel's plane offset.
template <typename Fn>
void for_each_region_pixel(const std::vector<DetectorRegion>& regions,
                           const fft::Frame& frame, Fn&& fn) {
  for (std::size_t k = 0; k < regions.size(); ++k) {
    const DetectorRegion& region = regions[k];
    for (std::size_t r = region.r0; r < region.r0 + region.size; ++r) {
      for (std::size_t c = region.c0; c < region.c0 + region.size; ++c) {
        fn(k, frame.index(r, c));
      }
    }
  }
}

// The per-pixel loops of the runner run over the plane offsets of
// same-shape frames, idle lanes included, as plain loops that the compiler
// vectorizes. Each product is std::complex's operator*, (ac - bd, ad + bc),
// operand by operand; conj() negates the imaginary part first.

/// field *= w, in place.
void modulate_in_place(fft::Frame& field, const fft::Frame& w) {
  const std::size_t size = field.plane_size();
  double* __restrict re = field.re();
  double* __restrict im = field.im();
  const double* __restrict wr = w.re();
  const double* __restrict wi = w.im();
  for (std::size_t f = 0; f < size; ++f) {
    const double a = re[f];
    const double b = im[f];
    re[f] = a * wr[f] - b * wi[f];
    im[f] = a * wi[f] + b * wr[f];
  }
}

/// out = in * w; `out` is another frame than `in`.
void modulate(const fft::Frame& in, const fft::Frame& w, fft::Frame& out) {
  out.reshape(in.rows(), in.cols());
  const std::size_t size = in.plane_size();
  const double* __restrict ar = in.re();
  const double* __restrict ai = in.im();
  const double* __restrict wr = w.re();
  const double* __restrict wi = w.im();
  double* __restrict re = out.re();
  double* __restrict im = out.im();
  for (std::size_t f = 0; f < size; ++f) {
    const double a = ar[f];
    const double b = ai[f];
    re[f] = a * wr[f] - b * wi[f];
    im[f] = a * wi[f] + b * wr[f];
  }
}

/// One layer of the backward pass, given g(out) in `grad` and the layer's
/// propagated input `prop`: accumulates dL/dphi into `phase_grad` and
/// leaves g(prop) in `grad`.
void backward_layer(const fft::Frame& prop, const fft::Frame& w,
                    fft::Frame& grad, double* __restrict phase_grad) {
  const std::size_t size = grad.plane_size();
  const double* __restrict pr = prop.re();
  const double* __restrict pi = prop.im();
  const double* __restrict w_re = w.re();
  const double* __restrict w_im = w.im();
  double* __restrict gr = grad.re();
  double* __restrict gi = grad.im();
  for (std::size_t f = 0; f < size; ++f) {
    const double wr = w_re[f];
    const double wi = w_im[f];
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
    phase_grad[f] += iw_r * gw_r - iw_i * -gw_i;
    // g(f_prop) = conj(w) * g(out).
    const double cr = wr;
    const double ci = -wi;
    gr[f] = cr * g_r - ci * g_i;
    gi[f] = cr * g_i + ci * g_r;
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

void DonnModel::check_modulations(const ModulationFrames& modulations,
                                  const char* what) const {
  const std::size_t n = config_.grid.n;
  ODONN_CHECK_SHAPE(modulations.size() == phases_.size(),
                    std::string(what) + ": modulation table count mismatch");
  for (const fft::Frame& w : modulations) {
    ODONN_CHECK_SHAPE(w.rows() == n && w.cols() == n,
                      std::string(what) + ": modulation table shape mismatch");
  }
}

void DonnModel::check_gradients(const FrameGradients& phase_grads) const {
  ODONN_CHECK_SHAPE(phase_grads.size() == phases_.size(),
                    "forward_backward: gradient count mismatch");
  for (const fft::Plane& g : phase_grads) {
    ODONN_CHECK_SHAPE(g.size() == plane_size(config_.grid.n),
                      "forward_backward: gradient shape mismatch");
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

void DonnModel::run_stack(const fft::Frame& hop,
                          const ModulationFrames& modulations,
                          Workspace& workspace, bool keep_propagated) const {
  const std::size_t layers = modulations.size();
  const fft::Frame* in = &hop;
  for (std::size_t l = 0; l < layers; ++l) {
    fft::Frame& out = keep_propagated && l + 1 < layers
                          ? workspace.propagated[l + 1]
                          : workspace.field;
    if (in == &out) {
      modulate_in_place(out, modulations[l]);
    } else {
      modulate(*in, modulations[l], out);
    }
    propagator_->forward_frame(out, workspace.propagation);
    in = &out;
  }
}

void DonnModel::run_stack(const optics::Field& input,
                          const ModulationFrames& modulations,
                          Workspace& workspace) const {
  first_hop(input, workspace.field, workspace.propagation);
  run_stack(workspace.field, modulations, workspace,
            /*keep_propagated=*/false);
}

std::vector<double> DonnModel::readout(const Workspace& workspace) const {
  // DetectorLayout::readout over |f|^2 = re*re + im*im (std::norm), summed
  // region by region in raster order.
  const fft::Frame& field = workspace.field;
  const double* re = field.re();
  const double* im = field.im();
  std::vector<double> region_sums(detector_.num_regions(), 0.0);
  for_each_region_pixel(detector_.layout().regions(), field,
                        [&](std::size_t k, std::size_t f) {
                          region_sums[k] += re[f] * re[f] + im[f] * im[f];
                        });
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
  run_stack(input, modulation_frames(), workspace);
  MatrixC values(config_.grid.n, config_.grid.n);
  workspace.field.store(values.data());
  return optics::Field(config_.grid, std::move(values));
}

std::vector<double> DonnModel::detector_sums(const optics::Field& input) const {
  Workspace workspace;
  run_stack(input, modulation_frames(), workspace);
  return readout(workspace);
}

std::size_t DonnModel::predict(const optics::Field& input,
                               const ModulationFrames& modulations,
                               Workspace& workspace) const {
  check_modulations(modulations, "predict");
  run_stack(input, modulations, workspace);
  return argmax(readout(workspace));
}

DonnModel::ModulationFrames DonnModel::modulation_frames() const {
  const std::size_t n = config_.grid.n;
  ModulationFrames frames(phases_.size());
  parallel_for(0, phases_.size(), [&](std::size_t l) {
    fft::Frame& w = frames[l];
    w.reshape(n, n);
    w.fill_zero();
    const MatrixD& phi = phases_[l];
    double* re = w.re();
    double* im = w.im();
    for_each_pixel(n, [&](std::size_t f, std::size_t i) {
      re[f] = std::cos(phi[i]);
      im[f] = std::sin(phi[i]);
    });
  });
  return frames;
}

std::vector<MatrixC> DonnModel::modulation_tables() const {
  std::vector<MatrixC> tables;
  tables.reserve(phases_.size());
  for (const fft::Frame& w : modulation_frames()) {
    MatrixC table(w.rows(), w.cols());
    w.store(table.data());
    tables.push_back(std::move(table));
  }
  return tables;
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
                            const ModulationFrames& modulations,
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
                  run_stack(inputs[k], modulations, workspace);
                });
}

void DonnModel::infer_batch(const std::vector<optics::Field>& inputs,
                            const std::vector<MatrixC>& modulations,
                            std::vector<std::size_t>* predictions,
                            std::vector<std::vector<double>>* sums,
                            std::vector<MatrixD>* intensities) const {
  const std::size_t n = config_.grid.n;
  ODONN_CHECK_SHAPE(modulations.size() == phases_.size(),
                    "infer_batch: modulation table count mismatch");
  ModulationFrames frames(modulations.size());
  for (std::size_t l = 0; l < modulations.size(); ++l) {
    ODONN_CHECK_SHAPE(modulations[l].rows() == n && modulations[l].cols() == n,
                      "infer_batch: modulation table shape mismatch");
    frames[l].reshape(n, n);
    frames[l].load(modulations[l].data());
  }
  infer_batch(inputs, frames, predictions, sums, intensities);
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
                            const ModulationFrames& modulations,
                            std::vector<std::size_t>* predictions,
                            std::vector<std::vector<double>>* sums,
                            std::vector<MatrixD>* intensities) const {
  check_modulations(modulations, "infer_batch");
  ODONN_CHECK_SHAPE(accepts(hops),
                    "infer_batch: first hops of another grid or propagation");
  infer_samples(hops.size(), predictions, sums, intensities,
                [&](std::size_t k, Workspace& workspace) {
                  run_stack(hops.frames_[k], modulations, workspace,
                            /*keep_propagated=*/false);
                });
}

std::vector<std::vector<double>> DonnModel::detector_sums_batch(
    const std::vector<optics::Field>& inputs) const {
  std::vector<std::vector<double>> sums;
  infer_batch(inputs, modulation_frames(), nullptr, &sums, nullptr);
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

DonnModel::FrameGradients DonnModel::zero_frame_gradients() const {
  return FrameGradients(phases_.size(),
                        fft::Plane(plane_size(config_.grid.n), 0.0));
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const optics::Field& input, std::size_t label,
    std::vector<MatrixD>& phase_grads, const LossOptions& loss_options) const {
  const std::size_t n = config_.grid.n;
  ODONN_CHECK_SHAPE(phase_grads.size() == phases_.size(),
                    "forward_backward: gradient count mismatch");
  FrameGradients frame_grads = zero_frame_gradients();
  for (std::size_t l = 0; l < phase_grads.size(); ++l) {
    ODONN_CHECK_SHAPE(
        phase_grads[l].rows() == n && phase_grads[l].cols() == n,
        "forward_backward: gradient shape mismatch");
    for_each_pixel(n, [&](std::size_t f, std::size_t i) {
      frame_grads[l][f] = phase_grads[l][i];
    });
  }
  Workspace workspace;
  const ForwardBackwardResult result =
      forward_backward(input, label, modulation_frames(), workspace,
                       frame_grads, loss_options);
  for (std::size_t l = 0; l < phase_grads.size(); ++l) {
    for_each_pixel(n, [&](std::size_t f, std::size_t i) {
      phase_grads[l][i] = frame_grads[l][f];
    });
  }
  return result;
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const optics::Field& input, std::size_t label,
    const ModulationFrames& modulations, Workspace& workspace,
    FrameGradients& phase_grads, const LossOptions& loss_options) const {
  check_modulations(modulations, "forward_backward");
  check_gradients(phase_grads);
  workspace.propagated.resize(modulations.size());
  const fft::Frame& hop = workspace.propagated[0];
  first_hop(input, workspace.propagated[0], workspace.propagation);
  run_stack(hop, modulations, workspace, /*keep_propagated=*/true);
  return backward(label, hop, modulations, workspace, phase_grads,
                  loss_options);
}

DonnModel::ForwardBackwardResult DonnModel::forward_backward(
    const FirstHops& hops, std::size_t k, std::size_t label,
    const ModulationFrames& modulations, Workspace& workspace,
    FrameGradients& phase_grads, const LossOptions& loss_options) const {
  check_modulations(modulations, "forward_backward");
  ODONN_CHECK_SHAPE(accepts(hops),
                    "forward_backward: first hops of another grid or "
                    "propagation");
  ODONN_CHECK_SHAPE(k < hops.size(),
                    "forward_backward: first hop index out of range");
  check_gradients(phase_grads);
  workspace.propagated.resize(modulations.size());
  const fft::Frame& hop = hops.frames_[k];
  run_stack(hop, modulations, workspace, /*keep_propagated=*/true);
  return backward(label, hop, modulations, workspace, phase_grads,
                  loss_options);
}

DonnModel::ForwardBackwardResult DonnModel::backward(
    std::size_t label, const fft::Frame& hop,
    const ModulationFrames& modulations, Workspace& workspace,
    FrameGradients& phase_grads, const LossOptions& loss_options) const {
  const auto sums = readout(workspace);
  const LossResult lr = evaluate_loss(sums, label, loss_options);

  // Backward, in place on the detector-plane frame:
  // dL/dI -> g(f) = 2 f dL/dI -> adjoint propagation -> layers.
  // dL/dI is what ReadoutStrategy::scatter puts on the plane: 0.0 + g_k on
  // region k (the regions are disjoint) and 0.0 elsewhere. The region
  // products are taken first and written back over the plane-wide product
  // by 0.0; std::complex scales each part by the real factor.
  fft::Frame& grad = workspace.field;
  double* gr = grad.re();
  double* gi = grad.im();
  const auto& regions = detector_.layout().regions();
  const std::vector<double> region_grads =
      detector_.region_grads_from_score_grads(lr.grad_sums);
  std::vector<double>& inside = workspace.region_grads;
  inside.clear();
  for_each_region_pixel(regions, grad, [&](std::size_t k, std::size_t f) {
    const double dl_di = 0.0 + region_grads[k];
    inside.push_back(2.0 * gr[f] * dl_di);
    inside.push_back(2.0 * gi[f] * dl_di);
  });
  const std::size_t size = grad.plane_size();
  for (std::size_t f = 0; f < size; ++f) {
    gr[f] = 2.0 * gr[f] * 0.0;
    gi[f] = 2.0 * gi[f] * 0.0;
  }
  std::size_t j = 0;
  for_each_region_pixel(regions, grad, [&](std::size_t, std::size_t f) {
    gr[f] = inside[j++];
    gi[f] = inside[j++];
  });

  propagator_->adjoint_frame(grad, workspace.propagation);
  for (std::size_t l = modulations.size(); l-- > 0;) {
    backward_layer(l == 0 ? hop : workspace.propagated[l], modulations[l],
                   grad, phase_grads[l].data());
    // The gradient wrt the input field itself is never needed.
    if (l > 0) propagator_->adjoint_frame(grad, workspace.propagation);
  }
  return {lr.loss, lr.predicted};
}

}  // namespace odonn::donn
