#include "donn/crosstalk.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace odonn::donn {

MatrixD apply_crosstalk(const MatrixD& phase, const CrosstalkOptions& options) {
  ODONN_CHECK(!phase.empty(), "apply_crosstalk: empty mask");
  ODONN_CHECK(options.strength >= 0.0 && options.strength <= 1.0,
              "apply_crosstalk: strength must be in [0, 1]");

  const MatrixD local = roughness::roughness_map(phase);
  const long rows = static_cast<long>(phase.rows());
  const long cols = static_cast<long>(phase.cols());
  MatrixD out(phase.rows(), phase.cols());
  for (long r = 0; r < rows; ++r) {
    for (long c = 0; c < cols; ++c) {
      // 3x3 neighborhood mean with zero padding (consistent with the
      // roughness boundary convention).
      double acc = 0.0;
      for (long dr = -1; dr <= 1; ++dr) {
        for (long dc = -1; dc <= 1; ++dc) {
          const long nr = r + dr;
          const long nc = c + dc;
          if (nr < 0 || nc < 0 || nr >= rows || nc >= cols) continue;
          acc += phase(static_cast<std::size_t>(nr),
                       static_cast<std::size_t>(nc));
        }
      }
      const double mean9 = acc / 9.0;
      const double rough = local(static_cast<std::size_t>(r),
                                 static_cast<std::size_t>(c));
      // Saturating response, half-maximal at a roughness of 1 rad.
      const double alpha = options.strength * rough / (rough + 1.0);
      const double ideal = phase(static_cast<std::size_t>(r),
                                 static_cast<std::size_t>(c));
      out(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          (1.0 - alpha) * ideal + alpha * mean9;
    }
  }
  return out;
}

}  // namespace odonn::donn
