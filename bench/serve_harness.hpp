// The serve load harness: the request stream and the closed-loop pass that
// both serve drivers (bench/serve_load and `odonn_cli serve`) run against a
// ServeCluster.
//
// A closed-loop pass warms the cluster up with the first min(16, n)
// requests one at a time, clears its stats so cold-start latencies stay out
// of the record, submits every input at once, and folds the FNV-1a digest
// of every response's detector sums in submit order. That digest depends on
// (model, inputs) alone: it must be bitwise identical across replicas=,
// batching, ODONN_THREADS and the HTTP plane, and between the two drivers
// (scripts/check.sh compares them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "optics/field.hpp"
#include "optics/grid.hpp"
#include "serve/cluster.hpp"
#include "tensor/stats.hpp"

namespace odonn::bench {

/// `count` serve request fields on `grid`: uniform [0, 1) pixels drawn from
/// Rng(seed + 1) (the stream next to the model's Rng(seed)), encoded with
/// optics::encode_image. The one input stream of the serve drivers, so
/// their prediction digests depend on (model, grid, count, seed) alone.
std::vector<optics::Field> random_fields(const optics::GridSpec& grid,
                                         std::size_t count,
                                         std::uint64_t seed);

/// Folds one response's detector sums into a running digest (the shared
/// odonn::fnv1a_mix fold over their IEEE-754 bits). Every serve mode
/// digests its responses through this, in submit order, so the digests of
/// different modes compare bit for bit.
std::uint64_t fold_sums(std::uint64_t digest, const std::vector<double>& sums);

/// Warms `cluster` up with the first min(16, n) inputs, one request at a
/// time, then calls reset_stats().
void warm_up(serve::ServeCluster& cluster, const std::string& model,
             const std::vector<optics::Field>& inputs);

struct Burst {
  double seconds = 0.0;                ///< first submit -> last response
  std::uint64_t digest = kFnv1aBasis;  ///< fold_sums over every response
};

/// Submits every input at once, then waits for every response in submit
/// order and folds its digest. Throws the first failed response's error.
Burst closed_loop_burst(serve::ServeCluster& cluster, const std::string& model,
                        const std::vector<optics::Field>& inputs);

}  // namespace odonn::bench
