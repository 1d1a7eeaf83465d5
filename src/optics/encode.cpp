#include "optics/encode.hpp"

#include "common/error.hpp"

namespace odonn::optics {

Field encode_image(const MatrixD& image, const GridSpec& grid) {
  validate(grid);
  ODONN_CHECK_SHAPE(image.rows() == grid.n && image.cols() == grid.n,
                    "encode_image: image shape must match grid");
  MatrixC amp(grid.n, grid.n);
  for (std::size_t i = 0; i < image.size(); ++i) {
    amp[i] = {image[i], 0.0};
  }
  Field field(grid, std::move(amp));
  field.normalize_power(1.0);
  return field;
}

}  // namespace odonn::optics
