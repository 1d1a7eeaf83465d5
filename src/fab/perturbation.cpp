#include "fab/perturbation.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/error.hpp"
#include "data/transform.hpp"
#include "donn/discrete.hpp"
#include "optics/fabrication.hpp"

namespace odonn::fab {

namespace {

/// The printed material that SurfaceRoughness and WavelengthDetune convert
/// phase to relief thickness and back with.
constexpr optics::MaterialSpec kMaterial{};

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

}  // namespace

void apply_stack(const PerturbationStack& stack, FabricatedDevice& device,
                 Rng& rng) {
  for (const auto& model : stack) model->apply(device, rng);
}

std::string describe_stack(const PerturbationStack& stack) {
  std::string out;
  for (const auto& model : stack) {
    if (!out.empty()) out += "+";
    out += model->describe();
  }
  return out;
}

std::uint64_t realization_seed(std::uint64_t base, std::uint64_t realization) {
  // SplitMix64 over (base ^ golden-ratio-spread counter): independent of
  // thread assignment, collision-free over realization indices.
  SplitMix64 mixer(base ^ (0x9e3779b97f4a7c15ULL * (realization + 1)));
  return mixer.next();
}

Rng realization_rng(std::uint64_t base, std::uint64_t realization,
                    bool antithetic) {
  if (!antithetic) return Rng(realization_seed(base, realization));
  Rng rng(realization_seed(base, realization / 2));
  rng.set_antithetic(realization % 2 == 1);
  return rng;
}

donn::DonnModel realize_device(const donn::DonnModel& model,
                               const PerturbationStack& stack,
                               const donn::CrosstalkOptions& crosstalk,
                               bool deploy_crosstalk, Rng& rng) {
  FabricatedDevice device{model.phases(), crosstalk};
  apply_stack(stack, device, rng);
  if (deploy_crosstalk) {
    for (auto& phase : device.phases) {
      phase = donn::apply_crosstalk(phase, device.crosstalk);
    }
  }
  // A finite spec can still overflow (sigma_um=1e308 lands beyond the
  // double range once converted to phase): fail here, not with NaN scores.
  for (const auto& phase : device.phases) {
    for (const double v : phase) {
      if (!std::isfinite(v)) {
        throw NumericsError(
            "realize_device: perturbation stack produced a non-finite "
            "phase (" + describe_stack(stack) + ")");
      }
    }
  }
  donn::DonnModel realized = model;
  realized.clear_masks();  // perturbed surfaces are dense reliefs
  realized.set_phases(std::move(device.phases));
  return realized;
}

MatrixD gaussian_random_field(std::size_t rows, std::size_t cols,
                              double correlation_px, Rng& rng) {
  ODONN_CHECK(rows > 0 && cols > 0, "gaussian_random_field: empty shape");
  ODONN_CHECK(correlation_px >= 0.0,
              "gaussian_random_field: correlation length must be >= 0");
  MatrixD field(rows, cols);
  for (auto& v : field) v = rng.normal();

  if (correlation_px > 0.0) {
    // The autocorrelation of white noise blurred with a Gaussian of stddev
    // s is that kernel's self-convolution — a Gaussian of stddev s*sqrt(2):
    // rho(d) = exp(-d^2 / (4 s^2)). Choosing s = L/2 puts the e^-1 lag of
    // rho exactly at d = L, which is this module's definition of the
    // correlation length.
    const double sigma = correlation_px / 2.0;
    // Taps past the field edge are skipped below, so capping the radius at
    // the field size (in double, before the cast) changes no result; it
    // keeps a huge or infinite correlation length from overflowing the
    // cast or the kernel allocation.
    const double reach = std::min(std::ceil(3.0 * sigma),
                                  static_cast<double>(std::max(rows, cols)));
    const long radius = std::max<long>(1, static_cast<long>(reach));
    std::vector<double> kernel(static_cast<std::size_t>(2 * radius + 1));
    for (long k = -radius; k <= radius; ++k) {
      kernel[static_cast<std::size_t>(k + radius)] =
          std::exp(-0.5 * static_cast<double>(k * k) / (sigma * sigma));
    }
    // Separable zero-padded convolution: rows, then columns.
    MatrixD tmp(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t c = 0; c < cols; ++c) {
        double acc = 0.0;
        for (long k = -radius; k <= radius; ++k) {
          const long cc = static_cast<long>(c) + k;
          if (cc < 0 || cc >= static_cast<long>(cols)) continue;
          acc += kernel[static_cast<std::size_t>(k + radius)] *
                 field(r, static_cast<std::size_t>(cc));
        }
        tmp(r, c) = acc;
      }
    }
    for (std::size_t c = 0; c < cols; ++c) {
      for (std::size_t r = 0; r < rows; ++r) {
        double acc = 0.0;
        for (long k = -radius; k <= radius; ++k) {
          const long rr = static_cast<long>(r) + k;
          if (rr < 0 || rr >= static_cast<long>(rows)) continue;
          acc += kernel[static_cast<std::size_t>(k + radius)] *
                 tmp(static_cast<std::size_t>(rr), c);
        }
        field(r, c) = acc;
      }
    }
  }

  // Exact unit sample RMS, so callers control the output RMS precisely.
  double sum_sq = 0.0;
  for (const auto& v : field) sum_sq += v * v;
  const double rms = std::sqrt(sum_sq / static_cast<double>(field.size()));
  ODONN_CHECK(rms > 0.0, "gaussian_random_field: degenerate field");
  field *= 1.0 / rms;
  return field;
}

// ------------------------------------------------------ SurfaceRoughness

SurfaceRoughness::SurfaceRoughness(const SurfaceRoughnessOptions& options)
    : options_(options) {
  ODONN_CHECK(options_.sigma_um >= 0.0,
              "roughness perturbation: sigma_um must be >= 0");
  ODONN_CHECK(options_.correlation_px >= 0.0,
              "roughness perturbation: correlation must be >= 0");
}

std::string SurfaceRoughness::describe() const {
  std::string out = "roughness(sigma_um=" + format_double(options_.sigma_um) +
                    ",corr=" + format_double(options_.correlation_px);
  if (options_.layer >= 0) {
    out += ",layer=" + std::to_string(options_.layer);
  }
  return out + ")";
}

void SurfaceRoughness::apply(FabricatedDevice& device, Rng& rng) const {
  const double sigma_m = options_.sigma_um * 1e-6;
  ODONN_CHECK(options_.layer < 0 ||
                  static_cast<std::size_t>(options_.layer) <
                      device.phases.size(),
              "roughness perturbation: layer index out of range");
  for (std::size_t l = 0; l < device.phases.size(); ++l) {
    if (options_.layer >= 0 && static_cast<std::size_t>(options_.layer) != l) {
      continue;  // untargeted layers draw nothing (spec defines the stream)
    }
    MatrixD& phase = device.phases[l];
    // Height error lives on the printed relief: convert the (unwrapped,
    // zone-preserving) thickness map, add the correlated field, convert
    // back. The conversions are linear, so the injected phase RMS is
    // exactly 2*pi * sigma / zone_height.
    MatrixD thickness =
        optics::phase_to_thickness(phase, kMaterial, /*wrap=*/false);
    const MatrixD field = gaussian_random_field(
        phase.rows(), phase.cols(), options_.correlation_px, rng);
    for (std::size_t i = 0; i < thickness.size(); ++i) {
      thickness[i] += sigma_m * field[i];
    }
    phase = optics::thickness_to_phase(thickness, kMaterial);
  }
}

// -------------------------------------------------------- QuantizeLevels

QuantizeLevels::QuantizeLevels(const QuantizeLevelsOptions& options)
    : options_(options) {
  ODONN_CHECK(options_.levels >= 2,
              "quantize perturbation: need at least 2 levels");
}

std::string QuantizeLevels::describe() const {
  std::string out = "quantize(levels=" + std::to_string(options_.levels);
  if (options_.layer >= 0) {
    out += ",layer=" + std::to_string(options_.layer);
  }
  return out + ")";
}

void QuantizeLevels::apply(FabricatedDevice& device, Rng& /*rng*/) const {
  // The printer quantizes ABSOLUTE height in steps of zone_height/levels
  // (equivalently phase in steps of 2*pi/levels) — full 2*pi zones are an
  // exact number of steps, so the 2*pi optimizer's multi-zone relief is
  // preserved rather than wrapped away (donn::quantize_phase's kinoform
  // wrap would collapse smoothed and unsmoothed masks to the same levels).
  ODONN_CHECK(options_.layer < 0 ||
                  static_cast<std::size_t>(options_.layer) <
                      device.phases.size(),
              "quantize perturbation: layer index out of range");
  const double step = 2.0 * M_PI / static_cast<double>(options_.levels);
  for (std::size_t l = 0; l < device.phases.size(); ++l) {
    if (options_.layer >= 0 && static_cast<std::size_t>(options_.layer) != l) {
      continue;
    }
    device.phases[l].transform([step](double v) {
      return static_cast<double>(std::lround(v / step)) * step;
    });
  }
}

// --------------------------------------------------- LateralMisalignment

LateralMisalignment::LateralMisalignment(const MisalignmentOptions& options)
    : options_(options) {
  ODONN_CHECK(options_.sigma_px >= 0.0,
              "misalign perturbation: sigma_px must be >= 0");
}

std::string LateralMisalignment::describe() const {
  return "misalign(sigma_px=" + format_double(options_.sigma_px) + ")";
}

void LateralMisalignment::apply(FabricatedDevice& device, Rng& rng) const {
  for (auto& phase : device.phases) {
    // Fixed draw order (dx then dy per layer) keeps realizations a pure
    // function of the seed even when sigma_px == 0.
    const double dx = rng.normal(0.0, options_.sigma_px);
    const double dy = rng.normal(0.0, options_.sigma_px);
    if (dx == 0.0 && dy == 0.0) continue;
    phase = data::affine_warp(phase, /*angle=*/0.0, /*scale=*/1.0, dx, dy);
  }
}

// ----------------------------------------------------- WavelengthDetune

WavelengthDetune::WavelengthDetune(const WavelengthDetuneOptions& options)
    : options_(options) {
  ODONN_CHECK(options_.sigma_rel >= 0.0,
              "detune perturbation: sigma_rel must be >= 0");
}

std::string WavelengthDetune::describe() const {
  return "detune(sigma_rel=" + format_double(options_.sigma_rel) + ")";
}

void WavelengthDetune::apply(FabricatedDevice& device, Rng& rng) const {
  // One laser per device: a single draw detunes every layer coherently.
  const double delta =
      std::clamp(rng.normal(0.0, options_.sigma_rel), -0.5, 0.5);
  if (delta == 0.0) return;
  optics::MaterialSpec detuned = kMaterial;
  detuned.wavelength = kMaterial.wavelength * (1.0 + delta);
  for (auto& phase : device.phases) {
    const MatrixD thickness =
        optics::phase_to_thickness(phase, kMaterial, /*wrap=*/false);
    phase = optics::thickness_to_phase(thickness, detuned);
  }
}

// ------------------------------------------------------ CrosstalkJitter

CrosstalkJitter::CrosstalkJitter(const CrosstalkJitterOptions& options)
    : options_(options) {
  ODONN_CHECK(options_.sigma >= 0.0,
              "ctjitter perturbation: sigma must be >= 0");
}

std::string CrosstalkJitter::describe() const {
  return "ctjitter(sigma=" + format_double(options_.sigma) + ")";
}

void CrosstalkJitter::apply(FabricatedDevice& device, Rng& rng) const {
  device.crosstalk.strength = std::clamp(
      device.crosstalk.strength + rng.normal(0.0, options_.sigma), 0.0, 1.0);
}

}  // namespace odonn::fab
