#include "serve_harness.hpp"

#include <algorithm>
#include <chrono>
#include <future>

#include "common/rng.hpp"
#include "optics/encode.hpp"

namespace odonn::bench {

std::vector<optics::Field> random_fields(const optics::GridSpec& grid,
                                         std::size_t count,
                                         std::uint64_t seed) {
  Rng rng(seed + 1);
  std::vector<optics::Field> fields;
  fields.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    MatrixD image(grid.n, grid.n);
    for (auto& v : image) v = rng.uniform();
    fields.push_back(optics::encode_image(image, grid));
  }
  return fields;
}

std::uint64_t fold_sums(std::uint64_t digest, const std::vector<double>& sums) {
  for (const double v : sums) digest = fnv1a_mix(digest, v);
  return digest;
}

void warm_up(serve::ServeCluster& cluster, const std::string& model,
             const std::vector<optics::Field>& inputs) {
  for (std::size_t k = 0; k < std::min<std::size_t>(16, inputs.size()); ++k) {
    cluster.submit(model, inputs[k]).get();
  }
  cluster.reset_stats();
}

Burst closed_loop_burst(serve::ServeCluster& cluster, const std::string& model,
                        const std::vector<optics::Field>& inputs) {
  using Clock = std::chrono::steady_clock;
  std::vector<std::future<serve::PredictResult>> futures;
  futures.reserve(inputs.size());
  const Clock::time_point start = Clock::now();
  for (const auto& input : inputs) {
    futures.push_back(cluster.submit(model, input));
  }
  Burst burst;
  for (auto& future : futures) {
    burst.digest = fold_sums(burst.digest, future.get().detector_sums);
  }
  burst.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return burst;
}

}  // namespace odonn::bench
