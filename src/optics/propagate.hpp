// FFT-based free-space propagation P = F^{-1} diag(H) F with cached kernel
// and optional 2x zero-padding (linear- vs circular-convolution ablation).
//
// The adjoint operator P* = F^{-1} diag(conj(H)) F is exposed for
// backpropagation: because the forward/inverse FFT scalings cancel, the
// adjoint reuses the same machinery with the conjugated kernel
// (see DESIGN.md §4).
//
// Thread safety: a constructed Propagator is immutable (cached transfer
// function only) and all member functions are const, so one instance may be
// shared across any number of threads — the serving path (src/serve) relies
// on this to evaluate whole batches against a single cached kernel. The
// *_inplace entry points additionally let hot loops reuse caller-owned
// buffers so steady-state propagation performs no heap allocation.
#pragma once

#include <memory>

#include "optics/field.hpp"
#include "optics/kernels.hpp"

namespace odonn::optics {

struct PropagatorOptions {
  KernelSpec kernel;
  bool pad2x = false;  ///< zero-pad to 2n before applying H (suppresses wrap-around)
};

class Propagator {
 public:
  Propagator(const GridSpec& grid, const PropagatorOptions& options);

  const GridSpec& grid() const { return grid_; }
  const PropagatorOptions& options() const { return options_; }

  /// Caller-owned scratch for the *_inplace entry points. Only used when
  /// pad2x is on (holds the zero-padded working frame); reusing one
  /// workspace across calls avoids reallocating it per propagation.
  struct Workspace {
    MatrixC padded;
  };

  /// Applies P to the field (same grid in and out).
  Field forward(const Field& input) const;

  /// Applies the adjoint P* (used to pull gradients back through free space).
  Field adjoint(const Field& grad_output) const;

  /// In-place variants over a raw n x n sample buffer: `values` is consumed
  /// and overwritten with the propagated samples. Bit-for-bit identical to
  /// forward()/adjoint() (the Field entry points are thin wrappers over this
  /// path), but allocation-free at steady state — the model's stack runner
  /// calls these per hop with a caller-owned workspace.
  void forward_inplace(MatrixC& values, Workspace& workspace) const;
  void adjoint_inplace(MatrixC& values, Workspace& workspace) const;

  /// The cached transfer function (on the padded grid if pad2x).
  const MatrixC& transfer() const { return kernel_; }

 private:
  void apply_inplace(MatrixC& values, Workspace& workspace,
                     bool conjugate_kernel) const;

  GridSpec grid_;
  PropagatorOptions options_;
  GridSpec work_grid_;  ///< grid_ or 2x padded
  MatrixC kernel_;
};

/// Composes a propagation over z via `steps` sequential applications of
/// z/steps. Used by tests to check the semigroup property P(z1+z2)=P(z1)P(z2).
Field propagate_in_steps(const Field& input, const KernelSpec& spec,
                         std::size_t steps, bool pad2x = false);

}  // namespace odonn::optics
