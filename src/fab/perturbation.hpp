// Fabrication-variability perturbation models.
//
// The paper's argument is the gap between numerical modelling and physical
// deployment; the repo's single deterministic crosstalk emulation answers
// "what happens to ONE fabricated device". This module supplies the sources
// of device-to-device variation so src/fab/montecarlo.hpp can turn that one
// point into a distribution: each PerturbationModel applies one seeded,
// per-realization imperfection to a FabricatedDevice (the phase masks about
// to be deployed plus the crosstalk options they will be deployed under).
//
// Models provided (all physically parameterized):
//   * SurfaceRoughness    — correlated Gaussian random-field height error,
//                           added in thickness space via optics::fabrication
//                           and converted back to phase;
//   * QuantizeLevels      — height quantization to N print levels in
//                           ABSOLUTE height steps, so full 2*pi zones
//                           survive (deterministic; deliberately NOT the
//                           kinoform wrap of donn::quantize_phase, which
//                           would collapse the smoother's multi-zone
//                           relief);
//   * LateralMisalignment — per-layer sub-pixel lateral shift (bilinear);
//   * WavelengthDetune    — source-wavelength error: the printed relief is
//                           fixed, the realized phase rescales by
//                           lambda0/lambda' (via MaterialSpec);
//   * CrosstalkJitter     — device-to-device spread of the interpixel
//                           crosstalk strength around its nominal value.
//
// Determinism contract: apply() draws only from the passed Rng, in a fixed
// order, so a realization is a pure function of (device, seed) — the Monte-
// Carlo evaluator relies on this for thread-count-independent results and
// for common random numbers across model variants.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "donn/crosstalk.hpp"
#include "donn/model.hpp"
#include "tensor/matrix.hpp"

namespace odonn::fab {

/// One virtual device about to be "fabricated": the phase masks that will be
/// printed plus the crosstalk model they will be deployed under.
struct FabricatedDevice {
  std::vector<MatrixD> phases;
  donn::CrosstalkOptions crosstalk;
};

class PerturbationModel {
 public:
  virtual ~PerturbationModel() = default;

  /// Short identifier used in specs, logs and JSON ("roughness", ...).
  virtual std::string name() const = 0;

  /// Human-readable parameterization, e.g. "roughness(sigma_um=0.05,corr=2)".
  virtual std::string describe() const = 0;

  /// Applies one realization of the imperfection, drawing only from `rng`.
  virtual void apply(FabricatedDevice& device, Rng& rng) const = 0;
};

using PerturbationStack = std::vector<std::unique_ptr<PerturbationModel>>;

/// Applies every model in order (the order is part of the physical story:
/// surface error, then printing quantization, then assembly misalignment,
/// then source detuning, then crosstalk spread).
void apply_stack(const PerturbationStack& stack, FabricatedDevice& device,
                 Rng& rng);

/// "model+model+..." description of a stack (round-trips through
/// fab::parse_perturbation_stack).
std::string describe_stack(const PerturbationStack& stack);

/// Counter-based per-realization seed: a pure function of (base, r), so
/// realization streams are independent of thread count and of each other.
std::uint64_t realization_seed(std::uint64_t base, std::uint64_t realization);

/// The per-realization RNG stream shared by the Monte-Carlo evaluator and
/// the robust trainer. Plain mode: realization r draws from
/// realization_seed(base, r). Antithetic mode: realizations are consumed
/// as mirrored PAIRS — 2m and 2m+1 share realization_seed(base, m), with
/// the odd member's normal draws sign-flipped (Rng::set_antithetic), so a
/// pair brackets the same draw and the pair mean cancels the response's
/// linear term (variance reduction; a ROADMAP follow-up of PR 3).
Rng realization_rng(std::uint64_t base, std::uint64_t realization,
                    bool antithetic);

/// One fabricated deployment of `model`: applies `stack` to its phase
/// masks (drawing from `rng`) under `crosstalk` and, when requested,
/// deploys the perturbed masks through the interpixel-crosstalk emulation.
/// The returned model has its sparsity masks cleared (perturbed surfaces
/// are dense reliefs). Shared by MonteCarloEvaluator and train::Trainer's
/// robust mode so both walk the identical deployment path. Throws
/// NumericsError if any realized phase is non-finite.
donn::DonnModel realize_device(const donn::DonnModel& model,
                               const PerturbationStack& stack,
                               const donn::CrosstalkOptions& crosstalk,
                               bool deploy_crosstalk, Rng& rng);

/// Correlated Gaussian random field: white standard normals blurred with a
/// separable Gaussian kernel and renormalized to EXACT unit sample RMS.
/// `correlation_px` is the e^-1 lag of the field's normalized
/// autocorrelation (blur kernel sigma = correlation_px / 2, since the
/// autocorrelation of blurred white noise is the kernel's self-convolution).
/// correlation_px == 0 yields unit-RMS white noise. The blur radius is
/// capped at the field size, so any correlation_px >= 0, infinity included,
/// is safe.
MatrixD gaussian_random_field(std::size_t rows, std::size_t cols,
                              double correlation_px, Rng& rng);

// ------------------------------------------------------ concrete models

struct SurfaceRoughnessOptions {
  double sigma_um = 0.05;       ///< RMS height error of the print [um]
  double correlation_px = 2.0;  ///< lateral correlation length [pixels]
  long layer = -1;              ///< restrict to this mask index (-1 = all),
                                ///< for per-layer severity in multi-layer
                                ///< stacks; draws occur only for the
                                ///< targeted layer
};

/// Correlated surface-roughness field: phase -> thickness (unwrapped relief,
/// preserving the 2*pi optimizer's zones), add sigma_um * GRF, -> phase.
class SurfaceRoughness final : public PerturbationModel {
 public:
  explicit SurfaceRoughness(const SurfaceRoughnessOptions& options);
  std::string name() const override { return "roughness"; }
  std::string describe() const override;
  void apply(FabricatedDevice& device, Rng& rng) const override;
  const SurfaceRoughnessOptions& options() const { return options_; }

 private:
  SurfaceRoughnessOptions options_;
};

struct QuantizeLevelsOptions {
  std::size_t levels = 16;  ///< printable height levels over one 2*pi zone
  long layer = -1;          ///< restrict to this mask index (-1 = all)
};

/// Height quantization to N print levels (deterministic: draws nothing).
class QuantizeLevels final : public PerturbationModel {
 public:
  explicit QuantizeLevels(const QuantizeLevelsOptions& options);
  std::string name() const override { return "quantize"; }
  std::string describe() const override;
  void apply(FabricatedDevice& device, Rng& rng) const override;
  const QuantizeLevelsOptions& options() const { return options_; }

 private:
  QuantizeLevelsOptions options_;
};

struct MisalignmentOptions {
  double sigma_px = 0.25;  ///< per-axis shift stddev [pixels], sub-pixel
};

/// Per-layer lateral misalignment: each mask is shifted by an independent
/// (dx, dy) ~ N(0, sigma_px^2) with bilinear resampling (zero fill at the
/// aperture edge — the mount, not the mask).
class LateralMisalignment final : public PerturbationModel {
 public:
  explicit LateralMisalignment(const MisalignmentOptions& options);
  std::string name() const override { return "misalign"; }
  std::string describe() const override;
  void apply(FabricatedDevice& device, Rng& rng) const override;
  const MisalignmentOptions& options() const { return options_; }

 private:
  MisalignmentOptions options_;
};

struct WavelengthDetuneOptions {
  double sigma_rel = 0.002;  ///< relative wavelength error stddev
};

/// Source-wavelength detuning: one draw per device (all layers share the
/// laser). The printed relief is fixed; the realized phase is
/// thickness * 2*pi*(n-1)/lambda', i.e. the ideal phase scaled by
/// lambda0/lambda'.
class WavelengthDetune final : public PerturbationModel {
 public:
  explicit WavelengthDetune(const WavelengthDetuneOptions& options);
  std::string name() const override { return "detune"; }
  std::string describe() const override;
  void apply(FabricatedDevice& device, Rng& rng) const override;
  const WavelengthDetuneOptions& options() const { return options_; }

 private:
  WavelengthDetuneOptions options_;
};

struct CrosstalkJitterOptions {
  double sigma = 0.1;  ///< additive stddev on CrosstalkOptions::strength
};

/// Device-to-device crosstalk-strength spread: strength' = clamp(strength +
/// N(0, sigma^2), 0, 1). One draw per device.
class CrosstalkJitter final : public PerturbationModel {
 public:
  explicit CrosstalkJitter(const CrosstalkJitterOptions& options);
  std::string name() const override { return "ctjitter"; }
  std::string describe() const override;
  void apply(FabricatedDevice& device, Rng& rng) const override;
  const CrosstalkJitterOptions& options() const { return options_; }

 private:
  CrosstalkJitterOptions options_;
};

}  // namespace odonn::fab
