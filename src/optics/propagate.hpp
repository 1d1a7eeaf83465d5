// FFT-based free-space propagation P = F^{-1} diag(H) F with cached kernel
// and optional 2x zero-padding (linear- vs circular-convolution ablation).
//
// The adjoint operator P* = F^{-1} diag(conj(H)) F is exposed for
// backpropagation: because the forward/inverse FFT scalings cancel, the
// adjoint reuses the same machinery with the conjugated kernel
// (see DESIGN.md §4).
//
// One in-place path. Every entry point runs apply_frame on a row-lane
// fft::Frame (fft2d.hpp: rows 4g..4g+3 form lane group g, element (r, c) at
// [(g * n + c) * 4 + r % 4] of split re/im planes):
//   row pass (forward) -> column pass (forward) with H multiplied in as the
//   tiles are written back -> row pass (inverse) -> column pass (inverse),
// which is F^{-1} diag(H) F with transform_2d's exact arithmetic, so the
// result is bitwise identical to two row-major transform_2d calls around an
// element-wise std::complex multiply by H. The passes run the lane kernels
// of fft_plan.hpp's ISA dispatch (AVX2 when the CPU has it, never FMA). The
// propagator holds its FFT plan (rows and columns share one length) and H in
// the column pass's column-lane order, so a propagation looks nothing up.
// forward_frame / adjoint_frame are the path itself; the Field entry points
// forward / adjoint load a frame, run it and store it back. With pad2x the
// aperture is copied into the centre of a zeroed 2n x 2n frame and cropped
// back after.
//
// Thread safety: a constructed Propagator is immutable (cached plan and
// transfer function only) and all member functions are const, so one
// instance may be shared across any number of threads — the serving path
// (src/serve) relies on this to evaluate whole batches against a single
// cached kernel. The *_frame entry points additionally let hot loops reuse
// caller-owned buffers so steady-state propagation performs no heap
// allocation.
#pragma once

#include <memory>

#include "fft/fft2d.hpp"
#include "optics/field.hpp"
#include "optics/kernels.hpp"

namespace odonn::optics {

struct PropagatorOptions {
  KernelSpec kernel;
  bool pad2x = false;  ///< zero-pad to 2n before applying H (suppresses wrap-around)

  bool operator==(const PropagatorOptions&) const = default;
};

class Propagator {
 public:
  Propagator(const GridSpec& grid, const PropagatorOptions& options);

  const GridSpec& grid() const { return grid_; }
  const PropagatorOptions& options() const { return options_; }

  /// Caller-owned scratch: the zero-padded working frame when pad2x is on.
  /// Reusing one workspace across calls avoids reallocating per propagation.
  struct Workspace {
    fft::Frame padded;
  };

  /// Applies P to the field (same grid in and out).
  Field forward(const Field& input) const;

  /// Applies the adjoint P* (used to pull gradients back through free space).
  Field adjoint(const Field& grad_output) const;

  /// The path itself, in place on an n x n row-lane frame (idle lanes of a
  /// partial last group are carried along and never read). The model's
  /// stack runner keeps its fields in frames and calls these per hop.
  void forward_frame(fft::Frame& field, Workspace& workspace) const;
  void adjoint_frame(fft::Frame& field, Workspace& workspace) const;

 private:
  /// forward / adjoint: loads `field` into a frame, applies P or P*.
  Field apply(const Field& field, bool conjugate_kernel) const;
  void apply_frame(fft::Frame& field, Workspace& workspace,
                   bool conjugate_kernel) const;

  GridSpec grid_;
  PropagatorOptions options_;
  GridSpec work_grid_;  ///< grid_ or 2x padded
  std::shared_ptr<const fft::Plan> plan_;  ///< length work_grid_.n
  fft::Plane kernel_re_, kernel_im_;  ///< H (transfer_function on work_grid_)
                                      ///< in column-lane order
};

}  // namespace odonn::optics
