#include "optics/propagate.hpp"

#include <string>

#include "common/error.hpp"
#include "fft/fft2d.hpp"
#include "obs/obs.hpp"

namespace odonn::optics {

Propagator::Propagator(const GridSpec& grid, const PropagatorOptions& options)
    : grid_(grid), options_(options) {
  validate(grid);
  // 2n runs exactly when n does, so a rejected pad2x grid names the side
  // the user picks rather than the padded FFT length.
  const std::size_t side = fft::next_supported_length(grid.n);
  if (options.pad2x && side != grid.n) {
    throw ConfigError("pad2x grid side " + std::to_string(grid.n) +
                      " has a prime factor above 5; sides must be "
                      "2^a * 3^b * 5^c (next supported side: " +
                      std::to_string(side) + ")");
  }
  work_grid_ = options.pad2x ? GridSpec{grid.n * 2, grid.pitch} : grid;
  // The plan first: a length the FFT does not run throws here, before the
  // n x n transfer table is allocated.
  plan_ = fft::plan_for(work_grid_.n);
  const MatrixC kernel = transfer_function(work_grid_, options.kernel);
  fft::column_lane_planes(kernel.data(), work_grid_.n, work_grid_.n,
                          kernel_re_, kernel_im_);
}

void Propagator::apply_frame(fft::Frame& field, Workspace& workspace,
                             bool conjugate_kernel) const {
  ODONN_CHECK_SHAPE(field.rows() == grid_.n && field.cols() == grid_.n,
                    "propagator grid does not match frame shape");
  ODONN_OBS_COUNT("optics.propagations", 1);
  const std::size_t n = grid_.n;
  const std::size_t wn = work_grid_.n;
  const std::size_t off = (wn - n) / 2;

  fft::Frame* buf = &field;
  if (options_.pad2x) {
    // Center the aperture in the padded window (workspace reused across
    // calls: zero it rather than reallocating once warmed up).
    fft::Frame& padded = workspace.padded;
    padded.reshape(wn, wn);
    padded.fill_zero();
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t from = field.index(r, c);
        const std::size_t to = padded.index(off + r, off + c);
        padded.re()[to] = field.re()[from];
        padded.im()[to] = field.im()[from];
      }
    }
    buf = &padded;
  }

  const fft::ColumnTransfer transfer{kernel_re_.data(), kernel_im_.data(),
                                     conjugate_kernel};
  fft::frame_rows(*buf, *plan_, fft::Direction::Forward);
  fft::frame_columns(*buf, *plan_, fft::Direction::Forward, &transfer);
  fft::frame_rows(*buf, *plan_, fft::Direction::Inverse);
  fft::frame_columns(*buf, *plan_, fft::Direction::Inverse);

  if (options_.pad2x) {
    const fft::Frame& padded = workspace.padded;
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        const std::size_t from = padded.index(off + r, off + c);
        const std::size_t to = field.index(r, c);
        field.re()[to] = padded.re()[from];
        field.im()[to] = padded.im()[from];
      }
    }
  }
}

Field Propagator::apply(const Field& field, bool conjugate_kernel) const {
  ODONN_CHECK_SHAPE(field.grid() == grid_,
                    "propagator grid does not match field grid");
  fft::Frame frame(grid_.n, grid_.n);
  frame.load(field.values().data());
  Workspace workspace;
  apply_frame(frame, workspace, conjugate_kernel);
  Field out = field;
  frame.store(out.values().data());
  return out;
}

void Propagator::forward_frame(fft::Frame& field, Workspace& workspace) const {
  apply_frame(field, workspace, /*conjugate_kernel=*/false);
}

void Propagator::adjoint_frame(fft::Frame& field, Workspace& workspace) const {
  apply_frame(field, workspace, /*conjugate_kernel=*/true);
}

Field Propagator::forward(const Field& input) const {
  return apply(input, /*conjugate_kernel=*/false);
}

Field Propagator::adjoint(const Field& grad_output) const {
  // P = C F^{-1} diag(H) F E with E = centered zero-pad, C = centered crop,
  // and C = E^T, so P* = E^T' ... the pad/crop pair is self-adjoint under
  // the same centering, giving P* = C F^{-1} diag(conj H) F E.
  return apply(grad_output, /*conjugate_kernel=*/true);
}

}  // namespace odonn::optics
