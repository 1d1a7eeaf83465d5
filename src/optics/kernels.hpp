// Free-space propagation transfer functions (frequency-domain kernels H in
// U_out = U_in * H, Eq. 1 of the paper solved spectrally).
//
// Supported approximations:
//  * AngularSpectrum — exact scalar (Rayleigh–Sommerfeld) transfer function
//      H = exp(i 2 pi z sqrt(1/lambda^2 - fx^2 - fy^2)), with exponential
//      decay on the evanescent band. This is the kernel used by published
//      DONN modelling frameworks and is the library default.
//  * BandLimitedASM — Matsushima–Shimobaba band-limited variant that zeroes
//      frequencies aliased by the finite sampling window; more accurate for
//      large z on small grids.
//  * FresnelTF — paraxial transfer function
//      H = exp(i k z) exp(-i pi lambda z (fx^2 + fy^2)).
#pragma once

#include <cstddef>
#include <string>

#include "optics/grid.hpp"
#include "tensor/matrix.hpp"

namespace odonn::optics {

enum class KernelType { AngularSpectrum, BandLimitedASM, FresnelTF };

/// Parses "asm" | "blasm" | "fresnel" (case-insensitive); throws ConfigError.
KernelType parse_kernel(const std::string& name);
const char* kernel_name(KernelType type);

struct KernelSpec {
  KernelType type = KernelType::AngularSpectrum;
  double wavelength = 0.0;  ///< [m]
  double distance = 0.0;    ///< propagation distance z [m], may be 0

  bool operator==(const KernelSpec&) const = default;
};

/// Builds the n x n transfer function for the given grid in FFT
/// (wrap-around) frequency order, ready to multiply a forward FFT.
MatrixC transfer_function(const GridSpec& grid, const KernelSpec& spec);

}  // namespace odonn::optics
