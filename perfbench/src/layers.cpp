#include "layers.hpp"

#include <complex>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "donn/crosstalk.hpp"
#include "donn/model.hpp"
#include "fab/perturbation.hpp"
#include "fab/spec.hpp"
#include "fft/fft2d.hpp"
#include "fft/fft_plan.hpp"
#include "obs/metrics.hpp"
#include "roughness/roughness.hpp"
#include "serve/batched_forward.hpp"
#include "smooth2pi/two_pi_opt.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace odonn;

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

class Probe {
 public:
  Probe(const Options& options, Report& report)
      : min_reps_(options.tiny ? 1 : 5),
        min_seconds_(options.tiny ? 0.02 : 0.3),
        report_(report) {}

  /// Median seconds of fn over repeated calls, pinned to one thread when
  /// `single_thread`.
  double time(const std::function<void()>& fn, bool single_thread,
              std::size_t min_reps = 0) {
    const ScopedThreadBudget budget(single_thread ? 1 : 0);
    return time_median(fn, min_reps > 0 ? min_reps : min_reps_, min_seconds_,
                       10000, &calls_);
  }

  /// Adds a timing from the last time() call.
  void add(const std::string& name, const std::string& unit, double value) {
    report_.add(name, unit, value, calls_);
  }

  /// Adds an exact count taken from one call.
  void add_count(const std::string& name, std::uint64_t value) {
    report_.add(name, "count", static_cast<double>(value), 1);
  }

 private:
  std::size_t min_reps_;
  std::size_t calls_ = 0;
  double min_seconds_;
  Report& report_;
};

}  // namespace

void probe_layers(const Options& options, std::uint64_t seed,
                  Report& report) {
  Probe probe(options, report);
  Rng rng(seed + 7);

  // fft: one 1-D transform (forward + inverse pairs keep the data bounded).
  for (const std::size_t n : {32, 64, 200, 256}) {
    const std::shared_ptr<const fft::Plan> plan = fft::plan_for(n);
    std::vector<fft::Cplx> data(n);
    for (auto& v : data) v = {rng.uniform(), rng.uniform()};
    const double s = probe.time(
        [&] {
          plan->execute(data.data(), fft::Direction::Forward);
          plan->execute(data.data(), fft::Direction::Inverse);
        },
        true);
    probe.add("fft.plan_1d_us.n" + std::to_string(n), "us", s / 2 * 1e6);
  }
  // fft: 2-D transform at one thread and at the full pool.
  for (const std::size_t n : {64, 200, 256}) {
    std::vector<fft::Cplx> data(n * n);
    for (auto& v : data) v = {rng.uniform(), rng.uniform()};
    const auto pair = [&] {
      fft::transform_2d(data.data(), n, n, fft::Direction::Forward);
      fft::transform_2d(data.data(), n, n, fft::Direction::Inverse);
    };
    const std::string base = "fft.transform_2d_ms.n" + std::to_string(n);
    probe.add(base + ".t1", "ms", probe.time(pair, true) / 2 * 1e3);
    if (n != 256) probe.add(base + ".tN", "ms", probe.time(pair, false) / 2 * 1e3);
  }

  const donn::DonnModel model64 = uniform_model(64, seed);
  const donn::DonnModel model200 = uniform_model(200, seed);
  const std::vector<optics::Field> in64 = random_inputs(model64, 1, rng);
  const std::vector<optics::Field> in200 = random_inputs(model200, 8, rng);

  for (const donn::DonnModel* model : {&model64, &model200}) {
    const optics::Field& input =
        model == &model64 ? in64.front() : in200.front();
    const std::string n = ".n" + std::to_string(model->config().grid.n);
    // Exact plan-cache lookups of one forward (no other work is running).
    const std::uint64_t hits = counter("fft.plan_cache.hits");
    model->detector_sums(input);
    probe.add_count("fft.plan_lookups_per_forward" + n,
                    counter("fft.plan_cache.hits") - hits);
    probe.add("optics.propagate_ms" + n, "ms",
              probe.time([&] { model->propagator().forward(input); }, true) *
                  1e3);
    probe.add("donn.forward_ms" + n, "ms",
              probe.time([&] { model->detector_sums(input); }, true) * 1e3);
  }

  // donn: one training sample, forward + backward, at 1 and N threads.
  {
    std::vector<MatrixD> grads = model64.zero_gradients();
    const donn::LossOptions loss;
    const auto step = [&] {
      model64.forward_backward(in64.front(), 3, grads, loss);
    };
    probe.add("donn.forward_backward_ms.n64.t1", "ms",
              probe.time(step, true) * 1e3);
    probe.add("donn.forward_backward_ms.n64.tN", "ms",
              probe.time(step, false) * 1e3);
    const std::uint64_t tasks = counter("parallel.tasks");
    step();
    probe.add_count("parallel.tasks_per_forward_backward.n64",
                    counter("parallel.tasks") - tasks);
  }

  // donn: batched inference and the crosstalk deployment emulation at n=200.
  {
    const std::vector<MatrixC> modulations = model200.modulation_tables();
    std::vector<std::size_t> predictions;
    const double s = probe.time(
        [&] {
          model200.infer_batch(in200, modulations, &predictions, nullptr,
                               nullptr);
        },
        false, 3);
    probe.add("donn.infer_batch_ms_per_sample.n200", "ms",
              s / static_cast<double>(in200.size()) * 1e3);
    const donn::CrosstalkOptions crosstalk;
    probe.add("donn.crosstalk_ms.n200", "ms",
              probe.time(
                  [&] { donn::apply_crosstalk(model200.phases()[0], crosstalk); },
                  true) *
                  1e3);
  }

  // roughness and smooth2pi on one grid-64 layer.
  {
    const MatrixD& mask = model64.phases()[0];
    MatrixD grad(mask.rows(), mask.cols());
    probe.add("roughness.grad_ms.n64", "ms",
              probe.time([&] { roughness::roughness_with_grad(mask, grad, 1.0); },
                         true) *
                  1e3);
    smooth2pi::TwoPiOptions two_pi;
    two_pi.iterations = 2500;
    probe.add("smooth2pi.optimize_ms.n64", "ms",
              probe.time([&] { smooth2pi::optimize_2pi(mask, two_pi); }, true,
                         options.tiny ? 1 : 3) *
                  1e3);
  }

  // fab: one device realization (default stack + crosstalk) at n=200.
  {
    const fab::PerturbationStack stack =
        fab::parse_perturbation_stack(fab::kDefaultPerturbationSpec);
    const donn::CrosstalkOptions crosstalk;
    Rng fab_rng(seed + 11);
    probe.add("fab.realize_ms.n200", "ms",
              probe.time(
                  [&] {
                    fab::realize_device(model200, stack, crosstalk, true,
                                        fab_rng);
                  },
                  true) *
                  1e3);
  }

  // serve: the batch kernel behind the engine, batch 8, one thread (the
  // cluster's inner_threads=1).
  {
    const auto model32 =
        std::make_shared<const donn::DonnModel>(uniform_model(32, seed));
    const serve::BatchedForward forward(model32);
    const std::vector<optics::Field> in32 = random_inputs(*model32, 8, rng);
    const double s = probe.time([&] { forward.run(in32); }, true);
    probe.add("serve.batch_kernel_us_per_sample.n32", "us",
              s / static_cast<double>(in32.size()) * 1e6);
  }
}

}  // namespace perfbench
