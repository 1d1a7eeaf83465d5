// 2-D complex FFT on row-major buffers, plus fftshift helpers and frequency
// coordinates. Operates on raw pointers so the FFT layer stays independent of
// the tensor module; optics wraps it for Field objects.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "fft/fft_plan.hpp"

namespace odonn::fft {

/// In-place 2-D FFT of a rows x cols row-major buffer: 1-D transforms over
/// every row, then every column, Plan::kLanes rows (columns) per
/// Plan::execute_lanes sweep — bitwise identical to Plan::execute on each
/// row, then each column. Parallelized across lane groups when called from
/// a non-worker thread.
void transform_2d(Cplx* data, std::size_t rows, std::size_t cols,
                  Direction dir);

/// Swaps quadrants so the zero-frequency bin moves to the center
/// (fftshift) or back (ifftshift). For odd sizes the two differ.
void fftshift_2d(Cplx* data, std::size_t rows, std::size_t cols);
void ifftshift_2d(Cplx* data, std::size_t rows, std::size_t cols);

/// FFT sample frequencies in cycles per unit, matching numpy.fft.fftfreq:
/// [0, 1, ..., n/2-1, -n/2, ..., -1] / (n * spacing).
std::vector<double> fft_freqs(std::size_t n, double spacing);

}  // namespace odonn::fft
