#include "roughness/report.hpp"

#include "common/error.hpp"

namespace odonn::roughness {

RoughnessReport report(const std::vector<MatrixD>& masks) {
  ODONN_CHECK(!masks.empty(), "roughness report requires at least one mask");
  RoughnessReport rep;
  rep.per_layer.reserve(masks.size());
  double sum = 0.0;
  for (const auto& mask : masks) {
    const double r = mask_roughness(mask);
    rep.per_layer.push_back(r);
    sum += r;
  }
  rep.overall = sum / static_cast<double>(masks.size());
  return rep;
}

}  // namespace odonn::roughness
