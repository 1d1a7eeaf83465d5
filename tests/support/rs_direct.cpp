#include "support/rs_direct.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace odonn::optics {

Field rs_direct_propagate(const Field& input, double wavelength, double z) {
  ODONN_CHECK(wavelength > 0.0, "wavelength must be positive");
  ODONN_CHECK(z > 0.0, "rs_direct_propagate requires z > 0");
  const GridSpec& grid = input.grid();
  const std::size_t n = grid.n;
  const double pitch = grid.pitch;
  const double area = pitch * pitch;

  // Precompute the impulse response on the (2n-1)^2 lattice of displacement
  // vectors, indexed by (dr + n - 1, dc + n - 1).
  const std::size_t kdim = 2 * n - 1;
  MatrixC w(kdim, kdim);
  const std::complex<double> inv_ilambda =
      1.0 / std::complex<double>(0.0, wavelength);
  for (std::size_t i = 0; i < kdim; ++i) {
    const double dy = (static_cast<double>(i) - static_cast<double>(n - 1)) * pitch;
    for (std::size_t j = 0; j < kdim; ++j) {
      const double dx = (static_cast<double>(j) - static_cast<double>(n - 1)) * pitch;
      const double r2 = dx * dx + dy * dy + z * z;
      const double r = std::sqrt(r2);
      const double phase = 2.0 * M_PI * r / wavelength;
      const std::complex<double> osc(std::cos(phase), std::sin(phase));
      w(i, j) = (z / r2) * (1.0 / (2.0 * M_PI * r) + inv_ilambda) * osc * area;
    }
  }

  Field out(grid);
  parallel_for(0, n, [&](std::size_t r) {
    for (std::size_t c = 0; c < n; ++c) {
      std::complex<double> acc(0.0, 0.0);
      for (std::size_t sr = 0; sr < n; ++sr) {
        const std::size_t ir = r + (n - 1) - sr;
        for (std::size_t sc = 0; sc < n; ++sc) {
          const std::size_t ic = c + (n - 1) - sc;
          acc += input(sr, sc) * w(ir, ic);
        }
      }
      out(r, c) = acc;
    }
  });
  return out;
}

}  // namespace odonn::optics
