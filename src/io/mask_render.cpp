#include "io/mask_render.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "io/colormap.hpp"
#include "io/pgm.hpp"

namespace odonn::io {

void render_phase_mask(const std::string& path, const MatrixD& phase,
                       const MaskRenderOptions& options) {
  ODONN_CHECK(!phase.empty(), "render_phase_mask: empty mask");
  const double two_pi = 2.0 * M_PI;
  const std::size_t up = 2;  // pixel replication for visibility
  const std::size_t rows = phase.rows() * up;
  const std::size_t cols = phase.cols() * up;
  std::vector<Rgb> pixels(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const double v = phase(r / up, c / up);
      Rgb color;
      if (options.zeros_black && v == 0.0) {
        color = {0, 0, 0};
      } else {
        double w = std::fmod(v, two_pi);
        if (w < 0.0) w += two_pi;
        color = viridis(w / two_pi);
      }
      pixels[r * cols + c] = color;
    }
  }
  write_ppm(path, pixels, rows, cols);
}

}  // namespace odonn::io
