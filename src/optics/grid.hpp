// Square sampling grid for scalar diffraction: n x n pixels of physical size
// `pitch` (meters). The paper's system is n=200, pitch=36 um, so each
// diffractive layer spans 7.2 mm; wavelength 532 nm; layer spacing 27.94 cm.
#pragma once

#include <cstddef>
#include <vector>

namespace odonn::optics {

struct GridSpec {
  std::size_t n = 0;     ///< samples per side
  double pitch = 0.0;    ///< sample spacing [m]

  double extent() const { return static_cast<double>(n) * pitch; }
  bool operator==(const GridSpec&) const = default;
};

/// Validates n >= 2 and pitch > 0; throws ConfigError otherwise. Which
/// sides the FFT runs (2^a * 3^b * 5^c) is fft::Plan's rule alone, checked
/// when a Propagator takes its plan.
void validate(const GridSpec& grid);

/// Centered spatial coordinates of sample centers: x_i = (i - n/2) * pitch.
std::vector<double> spatial_coords(const GridSpec& grid);

/// Spatial frequencies along one axis in FFT (wrap-around) order
/// [0 .. n/2-1, -n/2 .. -1] / (n * pitch)  [cycles/m].
std::vector<double> frequency_coords(const GridSpec& grid);

/// Paper defaults (§IV-A1): 200x200 grid, 36 um pixels, 532 nm, 27.94 cm.
struct PaperSystem {
  static constexpr std::size_t kGridSize = 200;
  static constexpr double kPixelPitch = 36e-6;
  static constexpr double kWavelength = 532e-9;
  static constexpr double kLayerDistance = 0.2794;
  static constexpr std::size_t kNumLayers = 3;
  static constexpr std::size_t kDetectorSize = 20;
};

}  // namespace odonn::optics
