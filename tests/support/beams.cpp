#include "support/beams.hpp"

#include <cmath>

#include "common/error.hpp"

namespace odonn::optics {

double GaussianBeam::rayleigh_range() const {
  ODONN_CHECK(wavelength > 0.0 && waist > 0.0,
              "gaussian beam: wavelength and waist must be positive");
  return M_PI * waist * waist / wavelength;
}

double GaussianBeam::radius_at(double z) const {
  const double zr = rayleigh_range();
  return waist * std::sqrt(1.0 + (z / zr) * (z / zr));
}

double GaussianBeam::gouy_phase_at(double z) const {
  return std::atan(z / rayleigh_range());
}

Field GaussianBeam::sample_waist(const GridSpec& grid) const {
  validate(grid);
  ODONN_CHECK(waist > 0.0, "gaussian beam: waist must be positive");
  const auto coords = spatial_coords(grid);
  MatrixC amp(grid.n, grid.n);
  const double inv_w0_sq = 1.0 / (waist * waist);
  for (std::size_t r = 0; r < grid.n; ++r) {
    for (std::size_t c = 0; c < grid.n; ++c) {
      const double r2 = coords[r] * coords[r] + coords[c] * coords[c];
      amp(r, c) = {std::exp(-r2 * inv_w0_sq), 0.0};
    }
  }
  Field field(grid, std::move(amp));
  field.normalize_power();
  return field;
}

double measured_beam_radius(const Field& field) {
  const auto coords = spatial_coords(field.grid());
  const MatrixD intensity = field.intensity();
  double total = 0.0;
  double second_moment = 0.0;
  for (std::size_t r = 0; r < field.n(); ++r) {
    for (std::size_t c = 0; c < field.n(); ++c) {
      const double w = intensity(r, c);
      total += w;
      second_moment += w * (coords[r] * coords[r] + coords[c] * coords[c]);
    }
  }
  ODONN_CHECK(total > 0.0, "measured_beam_radius: zero-power field");
  // For I ~ exp(-2 r^2 / w^2) in 2-D: <r^2> = w^2 / 2, so w = sqrt(2 <r^2>).
  return std::sqrt(2.0 * second_moment / total);
}

}  // namespace odonn::optics
