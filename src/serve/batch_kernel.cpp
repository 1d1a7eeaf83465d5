#include "serve/batch_kernel.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "fft/fft2d.hpp"
#include "fft/fft_plan.hpp"

namespace odonn::serve {

namespace {

constexpr std::size_t L = BatchKernel::kLanes;

}  // namespace

bool BatchKernel::supports(const donn::DonnModel& model) {
  return fft::is_pow2(model.config().grid.n) && !model.config().pad2x;
}

BatchKernel::BatchKernel(const donn::DonnModel& model,
                         const std::vector<MatrixC>& modulations)
    : model_(&model),
      n_(model.config().grid.n),
      plan_(fft::plan_for(model.config().grid.n)) {
  ODONN_CHECK(supports(model), "BatchKernel: unsupported model geometry");
  ODONN_CHECK_SHAPE(modulations.size() == model.num_layers(),
                    "BatchKernel: modulation table count mismatch");

  const MatrixC& transfer = model.propagator().transfer();
  kernel_re_.resize(transfer.size());
  kernel_im_.resize(transfer.size());
  for (std::size_t i = 0; i < transfer.size(); ++i) {
    kernel_re_[i] = transfer[i].real();
    kernel_im_[i] = transfer[i].imag();
  }
  mod_re_.resize(modulations.size());
  mod_im_.resize(modulations.size());
  for (std::size_t l = 0; l < modulations.size(); ++l) {
    const MatrixC& w = modulations[l];
    ODONN_CHECK_SHAPE(w.rows() == n_ && w.cols() == n_,
                      "BatchKernel: modulation table shape mismatch");
    mod_re_[l].resize(w.size());
    mod_im_[l].resize(w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      mod_re_[l][i] = w[i].real();
      mod_im_[l][i] = w[i].imag();
    }
  }
}

/// Rows-then-columns 2-D transform, mirroring fft::transform_2d: a row of
/// every sample is one contiguous lane group; columns gather into a scratch
/// segment, transform and scatter back.
void BatchKernel::transform_2d(double* re, double* im, double* col_re,
                               double* col_im, fft::Direction dir) const {
  const std::size_t n = n_;
  for (std::size_t r = 0; r < n; ++r) {
    plan_->execute_lanes(re + r * n * L, im + r * n * L, dir);
  }
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t src = (r * n + c) * L;
      for (std::size_t s = 0; s < L; ++s) {
        col_re[r * L + s] = re[src + s];
        col_im[r * L + s] = im[src + s];
      }
    }
    plan_->execute_lanes(col_re, col_im, dir);
    for (std::size_t r = 0; r < n; ++r) {
      const std::size_t dst = (r * n + c) * L;
      for (std::size_t s = 0; s < L; ++s) {
        re[dst + s] = col_re[r * L + s];
        im[dst + s] = col_im[r * L + s];
      }
    }
  }
}

/// Free-space propagation F^{-1} diag(H) F over the whole lane group.
void BatchKernel::propagate(double* re, double* im, double* col_re,
                            double* col_im) const {
  transform_2d(re, im, col_re, col_im, fft::Direction::Forward);
  const std::size_t count = n_ * n_;
  for (std::size_t i = 0; i < count; ++i) {
    const double kr = kernel_re_[i];
    const double ki = kernel_im_[i];
    double* pr = re + i * L;
    double* pi = im + i * L;
    for (std::size_t s = 0; s < L; ++s) {
      const double vr = pr[s] * kr - pi[s] * ki;
      const double vi = pr[s] * ki + pi[s] * kr;
      pr[s] = vr;
      pi[s] = vi;
    }
  }
  transform_2d(re, im, col_re, col_im, fft::Direction::Inverse);
}

void BatchKernel::run(const std::vector<optics::Field>& inputs,
                      std::vector<std::size_t>* predictions,
                      std::vector<std::vector<double>>* sums) const {
  for (const auto& input : inputs) {
    ODONN_CHECK_SHAPE(input.grid() == model_->config().grid,
                      "BatchKernel: input grid mismatch");
  }
  if (predictions) predictions->resize(inputs.size());
  if (sums) sums->resize(inputs.size());
  if (inputs.empty()) return;

  const std::size_t n = n_;
  const std::size_t count = n * n;
  const std::size_t groups = (inputs.size() + L - 1) / L;
  const auto& detector = model_->detector();

  parallel_for_chunks(
      0, groups,
      [&](std::size_t lo, std::size_t hi) {
        fft::Plane re(count * L), im(count * L);
        fft::Plane col_re(n * L), col_im(n * L);
        for (std::size_t g = lo; g < hi; ++g) {
          const std::size_t first = g * L;
          const std::size_t lanes = std::min(L, inputs.size() - first);
          // Pack lane-major; idle lanes replicate lane 0 (their results are
          // discarded — lanes never interact).
          for (std::size_t s = 0; s < L; ++s) {
            const MatrixC& values =
                inputs[first + (s < lanes ? s : 0)].values();
            for (std::size_t i = 0; i < count; ++i) {
              re[i * L + s] = values[i].real();
              im[i * L + s] = values[i].imag();
            }
          }

          for (std::size_t l = 0; l < mod_re_.size(); ++l) {
            propagate(re.data(), im.data(), col_re.data(), col_im.data());
            const double* mr = mod_re_[l].data();
            const double* mi = mod_im_[l].data();
            for (std::size_t i = 0; i < count; ++i) {
              double* pr = re.data() + i * L;
              double* pi = im.data() + i * L;
              for (std::size_t s = 0; s < L; ++s) {
                const double vr = pr[s] * mr[i] - pi[s] * mi[i];
                const double vi = pr[s] * mi[i] + pi[s] * mr[i];
                pr[s] = vr;
                pi[s] = vi;
              }
            }
          }
          propagate(re.data(), im.data(), col_re.data(), col_im.data());

          // Detector readout straight off the lane group: same per-pixel
          // |f|^2 values accumulated in the same region order as
          // DetectorLayout::readout on a full intensity plane, then mapped
          // to class scores by the model's ReadoutStrategy (identity in
          // Standard mode, +/- pair differences in Differential mode).
          const auto& regions = detector.layout().regions();
          for (std::size_t s = 0; s < lanes; ++s) {
            const std::size_t k = first + s;
            std::vector<double> region_sums(regions.size(), 0.0);
            for (std::size_t rg = 0; rg < regions.size(); ++rg) {
              const auto& region = regions[rg];
              double acc = 0.0;
              for (std::size_t r = region.r0; r < region.r0 + region.size;
                   ++r) {
                for (std::size_t c = region.c0; c < region.c0 + region.size;
                     ++c) {
                  const std::size_t i = (r * n + c) * L + s;
                  acc += re[i] * re[i] + im[i] * im[i];
                }
              }
              region_sums[rg] = acc;
            }
            auto class_sums =
                detector.scores_from_region_sums(std::move(region_sums));
            if (predictions) {
              (*predictions)[k] = static_cast<std::size_t>(
                  std::max_element(class_sums.begin(), class_sums.end()) -
                  class_sums.begin());
            }
            if (sums) (*sums)[k] = std::move(class_sums);
          }
        }
      },
      /*grain=*/1);
}

}  // namespace odonn::serve
