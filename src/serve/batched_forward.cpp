#include "serve/batched_forward.hpp"

#include "common/error.hpp"

namespace odonn::serve {

BatchedForward::BatchedForward(std::shared_ptr<const donn::DonnModel> model)
    : model_(std::move(model)) {
  ODONN_CHECK(model_ != nullptr, "BatchedForward: null model");
  modulations_ = model_->modulation_frames();
}

BatchedForward::Result BatchedForward::run(
    const std::vector<optics::Field>& inputs) const {
  Result result;
  model_->infer_batch(inputs, modulations_, &result.predictions,
                      &result.detector_sums, nullptr);
  return result;
}

}  // namespace odonn::serve
