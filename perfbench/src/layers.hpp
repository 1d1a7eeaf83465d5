// Layer probe: times calls into each module's public functions at fixed
// sizes (median of repeated calls), for the traced run's per-layer
// metrics. "t1" figures pin the calling thread to a one-thread budget;
// "tN" figures use the whole pool.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace perfbench {

/// Adds the fft.*, optics.*, donn.*, roughness.*, smooth2pi.*,
/// fab.realize_ms.*, serve.batch_kernel_* and parallel.tasks_per_* metrics.
void probe_layers(const Options& options, std::uint64_t seed, Report& report);

}  // namespace perfbench
