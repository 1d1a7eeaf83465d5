// BatchKernel — cross-sample vectorized batched propagation.
//
// This is the optimization batching uniquely enables: the naive per-sample
// path cannot amortize anything across samples, but a batch can be packed
// lane-major (structure-of-arrays, kLanes samples side by side) so one
// butterfly/kernel/modulation sweep advances kLanes samples at once. Twiddle
// loads, loop control and the libstdc++ complex NaN-recovery branches are
// paid once per lane group instead of once per sample, and the inner lane
// loops auto-vectorize.
//
// The FFTs are fft::Plan::execute_lanes over the cached plan — the same
// lane butterflies (AVX2 when the CPU has them) fft::transform_2d uses,
// here with one sample per lane instead of one row per lane.
//
// Exactness: each lane performs the same IEEE add/mul sequence as the
// scalar pipeline (fft::Plan radix-2 butterflies -> transfer-function
// multiply -> modulation multiply -> |.|^2 -> region sums, in the same
// order), so per-sample results are bitwise identical to
// DonnModel::predict / detector_sums — tests/serve_test.cpp asserts this.
//
// Scope: power-of-two grids without 2x padding (the radix-2 plan shape).
// BatchedForward falls back to DonnModel::infer_batch otherwise.
//
// Thread safety: immutable after construction; run() is const and
// parallelizes over lane groups via common/parallel.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "donn/model.hpp"
#include "fft/fft_plan.hpp"

namespace odonn::serve {

class BatchKernel {
 public:
  /// Samples packed side by side in one SoA sweep.
  static constexpr std::size_t kLanes = fft::Plan::kLanes;

  /// True when this kernel can serve the model (radix-2 grid, no pad2x).
  static bool supports(const donn::DonnModel& model);

  /// Snapshots the transfer function and the per-layer modulation tables
  /// (the same tables the fallback path uses). `model` must outlive this.
  BatchKernel(const donn::DonnModel& model,
              const std::vector<MatrixC>& modulations);

  /// Batched inference: fills predictions[k] / sums[k] (each output
  /// optional) for every input. Deterministic and thread-count independent.
  void run(const std::vector<optics::Field>& inputs,
           std::vector<std::size_t>* predictions,
           std::vector<std::vector<double>>* sums) const;

 private:
  void transform_2d(double* re, double* im, double* col_re, double* col_im,
                    fft::Direction dir) const;
  void propagate(double* re, double* im, double* col_re,
                 double* col_im) const;

  const donn::DonnModel* model_;
  std::size_t n_ = 0;
  // Transfer function and modulation tables, split into planes so the lane
  // loops touch plain double arrays.
  std::vector<double> kernel_re_, kernel_im_;
  std::vector<std::vector<double>> mod_re_, mod_im_;
  std::shared_ptr<const fft::Plan> plan_;  // rows and columns: both length n
};

}  // namespace odonn::serve
