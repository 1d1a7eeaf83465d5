// BatchedForward — a modulation-table snapshot over DonnModel's frame
// runner, for a published (immutable) DONN model.
//
// Construction snapshots the per-layer modulation tables exp(i*phi) once;
// every subsequent run() hands that snapshot to DonnModel::infer_batch, which
// shares it plus the model's Propagator (plans and transfer function) across
// all samples of every batch and parallelizes over samples via
// common/parallel. Every grid — radix-2, mixed radix and pad2x — runs the one
// per-sample row-lane runner the model's own entry points run. Deployment-
// style workloads (Li et al. 2022; Shi & Zhang 2020 treat trained masks as
// fixed artifacts evaluated under many inputs) are exactly this read-only
// shape.
//
// Thread safety: immutable after construction; run() may be called
// concurrently from any number of threads. Results are
// bitwise-identical to DonnModel's single-sample path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "donn/model.hpp"

namespace odonn::serve {

class BatchedForward {
 public:
  /// Snapshots the modulation tables of `model`. The model must stay
  /// unmodified (and alive — the pointer is retained) while served.
  explicit BatchedForward(std::shared_ptr<const donn::DonnModel> model);

  const std::shared_ptr<const donn::DonnModel>& model_ptr() const {
    return model_;
  }

  struct Result {
    std::vector<std::size_t> predictions;       ///< argmax class per sample
    std::vector<std::vector<double>> detector_sums;  ///< raw per-class sums
  };

  /// Evaluates the whole batch; result vectors are indexed like `inputs`.
  Result run(const std::vector<optics::Field>& inputs) const;

 private:
  std::shared_ptr<const donn::DonnModel> model_;
  donn::DonnModel::ModulationFrames modulations_;
};

}  // namespace odonn::serve
