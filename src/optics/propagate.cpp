#include "optics/propagate.hpp"

#include "common/error.hpp"
#include "fft/fft2d.hpp"

namespace odonn::optics {

Propagator::Propagator(const GridSpec& grid, const PropagatorOptions& options)
    : grid_(grid), options_(options) {
  validate(grid);
  work_grid_ = options.pad2x ? GridSpec{grid.n * 2, grid.pitch} : grid;
  kernel_ = transfer_function(work_grid_, options.kernel);
}

void Propagator::apply_inplace(MatrixC& values, Workspace& workspace,
                               bool conjugate_kernel) const {
  ODONN_CHECK_SHAPE(values.rows() == grid_.n && values.cols() == grid_.n,
                    "propagator grid does not match sample buffer shape");
  const std::size_t n = grid_.n;
  const std::size_t wn = work_grid_.n;

  MatrixC* buf = &values;
  if (options_.pad2x) {
    // Center the aperture in the padded window (workspace reused across
    // calls: zero it rather than reallocating once warmed up).
    if (workspace.padded.rows() != wn || workspace.padded.cols() != wn) {
      workspace.padded = MatrixC(wn, wn, std::complex<double>(0.0, 0.0));
    } else {
      workspace.padded.fill(std::complex<double>(0.0, 0.0));
    }
    const std::size_t off = (wn - n) / 2;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        workspace.padded(off + r, off + c) = values(r, c);
      }
    }
    buf = &workspace.padded;
  }

  fft::transform_2d(buf->data(), wn, wn, fft::Direction::Forward);
  if (conjugate_kernel) {
    for (std::size_t i = 0; i < buf->size(); ++i) {
      (*buf)[i] *= std::conj(kernel_[i]);
    }
  } else {
    for (std::size_t i = 0; i < buf->size(); ++i) (*buf)[i] *= kernel_[i];
  }
  fft::transform_2d(buf->data(), wn, wn, fft::Direction::Inverse);

  if (options_.pad2x) {
    const std::size_t off = (wn - n) / 2;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        values(r, c) = workspace.padded(off + r, off + c);
      }
    }
  }
}

void Propagator::forward_inplace(MatrixC& values, Workspace& workspace) const {
  apply_inplace(values, workspace, /*conjugate_kernel=*/false);
}

void Propagator::adjoint_inplace(MatrixC& values, Workspace& workspace) const {
  apply_inplace(values, workspace, /*conjugate_kernel=*/true);
}

Field Propagator::forward(const Field& input) const {
  ODONN_CHECK_SHAPE(input.grid() == grid_,
                    "propagator grid does not match field grid");
  Field out = input;
  Workspace workspace;
  forward_inplace(out.values(), workspace);
  return out;
}

Field Propagator::adjoint(const Field& grad_output) const {
  // P = C F^{-1} diag(H) F E with E = centered zero-pad, C = centered crop,
  // and C = E^T, so P* = E^T' ... the pad/crop pair is self-adjoint under
  // the same centering, giving P* = C F^{-1} diag(conj H) F E.
  ODONN_CHECK_SHAPE(grad_output.grid() == grid_,
                    "propagator grid does not match field grid");
  Field out = grad_output;
  Workspace workspace;
  adjoint_inplace(out.values(), workspace);
  return out;
}

Field propagate_in_steps(const Field& input, const KernelSpec& spec,
                         std::size_t steps, bool pad2x) {
  ODONN_CHECK(steps >= 1, "propagate_in_steps requires steps >= 1");
  KernelSpec step_spec = spec;
  step_spec.distance = spec.distance / static_cast<double>(steps);
  Propagator prop(input.grid(), {step_spec, pad2x});
  Field field = input;
  for (std::size_t s = 0; s < steps; ++s) field = prop.forward(field);
  return field;
}

}  // namespace odonn::optics
