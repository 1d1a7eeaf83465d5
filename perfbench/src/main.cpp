// perfbench — the repository benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny 0|1] [--corrupt 0|1] [--record 0|1]
//
// Workloads: train_oursd_g64, mc_yield_g200, serve_open_g32 (see
// workloads.hpp). --seed n selects input set n mod 8; the same seed gives
// the same inputs, and every output is checked against the digests
// recorded for that input set.
//
// --trace 0 measures the workload and reports the end-to-end metrics:
//   setup_s  median of seven set-ups of the workload [s]
//   unit_ms  median wall time of one unit of work [ms]: one Ours-D recipe
//            (train), one Monte-Carlo realization (mc: evaluate wall / R),
//            one request at closed-loop saturation (serve: 1000 / the
//            upper decile of the per-slice throughput)
//   latency_ms  median time a caller waits for one result [ms]: one recipe
//            (train, the same figure as unit_ms), one 16-realization
//            yield report (mc: evaluate wall), one request at the fixed
//            low rate, from its scheduled send (serve).
// On a shared 4-core host whose speed drifted by up to 2x, the serve p90
// and p99 swung by 10x and the median closed-loop throughput by 20-40%
// between runs, while over ten runs the low-rate median latency kept an
// interquartile spread near 6% of its median and the upper-decile
// throughput near 20%; those two are the bounded serve figures. The tails
// are printed on the "info" lines and reported per layer.
// --trace 1 runs the layer probe plus one traced unit of every workload
// and reports the per-layer metrics, including trace_overhead_frac (the
// requested workload's traced vs untraced unit).
//
// Output: "record" (host and build facts), "metric" lines (name, value,
// unit, sample count), then one JSON object as the last line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"
#include "harness.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Options parse_args(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = std::stoi(value) != 0;
    } else if (key == "--tiny") {
      options.tiny = std::stoi(value) != 0;
    } else if (key == "--corrupt") {
      options.corrupt = std::stoi(value) != 0;
    } else if (key == "--record") {
      options.record = std::stoi(value) != 0;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (!have_workload ||
      (options.workload != kTrainName && options.workload != kMcName &&
       options.workload != kServeName)) {
    throw std::invalid_argument("--workload must be one of " +
                                std::string(kTrainName) + ", " + kMcName +
                                ", " + kServeName);
  }
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

/// Program-side tracing (obs detail + spans) on for the scope.
class Tracing {
 public:
  Tracing() {
    odonn::obs::set_detail(true);
    odonn::obs::set_tracing(true);
    odonn::obs::clear_trace();
  }
  ~Tracing() {
    odonn::obs::set_detail(false);
    odonn::obs::set_tracing(false);
    odonn::obs::clear_trace();
  }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;
};

/// Builds the workload `reps` times (the last one is kept) and returns the
/// median set-up seconds.
template <typename W>
double set_up(std::optional<W>& workload, const Context& ctx,
              std::size_t reps) {
  std::vector<double> times;
  for (std::size_t i = 0; i < reps; ++i) {
    workload.reset();
    const Clock::time_point t0 = Clock::now();
    workload.emplace(ctx);
    times.push_back(seconds_since(t0));
  }
  return median(times);
}

constexpr std::size_t kSetups = 7;

void add_setup(Report& report, double seconds) {
  report.add("setup_s", "s", seconds, kSetups);
}

// ------------------------------------------------------ end-to-end runs

void run_train(const Context& ctx, Report& report) {
  std::optional<TrainWorkload> w;
  add_setup(report, set_up(w, ctx, kSetups));
  std::vector<double> units;
  const Clock::time_point start = Clock::now();
  do {
    units.push_back(w->run_unit(false).seconds);
  } while (seconds_since(start) < ctx.options.seconds);
  report.add("unit_ms", "ms", median(units) * 1e3, units.size());
  report.add("latency_ms", "ms", median(units) * 1e3, units.size());
  std::printf("info recipe_s = %.6g s (n=%zu)\n", median(units), units.size());
}

void run_mc(const Context& ctx, Report& report) {
  std::optional<McWorkload> w;
  add_setup(report, set_up(w, ctx, kSetups));
  std::vector<double> evals;
  const Clock::time_point start = Clock::now();
  do {
    evals.push_back(w->run_unit());
  } while (seconds_since(start) < ctx.options.seconds);
  const double r = static_cast<double>(w->realizations());
  report.add("unit_ms", "ms", median(evals) / r * 1e3, evals.size());
  report.add("latency_ms", "ms", median(evals) * 1e3, evals.size());
  std::printf("info mc_realizations_per_s = %.6g 1/s (n=%zu realizations)\n",
              r / median(evals), evals.size() * w->realizations());
}

void print_open(const char* phase, const ServeWorkload::OpenLoop& open) {
  std::printf(
      "info serve_p50_ms.%s = %.6g ms, serve_p99_ms.%s = %.6g ms "
      "(n=%zu requests at %.0f rps; generator lag p99 %.3g ms, max %.3g ms; "
      "mean batch %.3g)\n",
      phase, quantile(open.latency, 0.5) * 1e3, phase,
      quantile(open.latency, 0.99) * 1e3, open.latency.size(),
      open.offered_rps, quantile(open.gen_lag, 0.99) * 1e3,
      max_of(open.gen_lag) * 1e3, open.mean_batch);
}

/// Appends one phase's per-request figures to another's.
void append(ServeWorkload::OpenLoop& into, const ServeWorkload::OpenLoop& from) {
  const double n_into = static_cast<double>(into.latency.size());
  const double n_from = static_cast<double>(from.latency.size());
  if (n_into + n_from > 0) {
    into.mean_batch =
        (into.mean_batch * n_into + from.mean_batch * n_from) / (n_into + n_from);
  }
  into.offered_rps = from.offered_rps;
  for (auto [dst, src] :
       {std::pair{&into.latency, &from.latency},
        {&into.queue_wait, &from.queue_wait}, {&into.batch_wait, &from.batch_wait},
        {&into.compute, &from.compute}, {&into.gen_lag, &from.gen_lag}}) {
    dst->insert(dst->end(), src->begin(), src->end());
  }
}

void run_serve(const Context& ctx, Report& report) {
  std::optional<ServeWorkload> w;
  add_setup(report, set_up(w, ctx, kSetups));
  // The three phases take turns in five rounds, so each figure samples the
  // whole run rather than one stretch of it.
  constexpr int kRounds = 5;
  const double s = ctx.options.seconds / kRounds;
  ServeWorkload::Saturation sat;
  ServeWorkload::OpenLoop low;
  ServeWorkload::OpenLoop high;
  for (int round = 0; round < kRounds; ++round) {
    const ServeWorkload::Saturation part = w->saturation(0.35 * s);
    sat.slice_rps.insert(sat.slice_rps.end(), part.slice_rps.begin(),
                         part.slice_rps.end());
    append(low, w->open_loop(ServeWorkload::kLowRps, 0.35 * s));
    append(high, w->open_loop(ServeWorkload::kHighRps, 0.3 * s));
  }
  report.add("unit_ms", "ms", 1e3 / sat.capacity_rps(),
             sat.slice_rps.size());
  report.add("latency_ms", "ms", quantile(low.latency, 0.5) * 1e3,
             low.latency.size());
  std::printf("info serve_saturation_rps = %.6g 1/s (n=%zu slices)\n",
              sat.capacity_rps(), sat.slice_rps.size());
  print_open("low", low);
  print_open("high", high);
}

// ------------------------------------------------------------ traced run

std::uint64_t tasks_counter() {
  return odonn::obs::MetricsRegistry::global().counter("parallel.tasks").value();
}

void add_open_layers(Report& report, const char* phase,
                     const ServeWorkload::OpenLoop& open) {
  const std::string p = phase;
  const std::size_t n = open.latency.size();
  report.add("serve.latency_ms.p50." + p, "ms",
             quantile(open.latency, 0.5) * 1e3, n);
  report.add("serve.latency_ms.p99." + p, "ms",
             quantile(open.latency, 0.99) * 1e3, n);
  const std::pair<const char*, const std::vector<double>*> parts[] = {
      {"queue_wait", &open.queue_wait},
      {"batch_wait", &open.batch_wait},
      {"compute", &open.compute}};
  for (const auto& [name, values] : parts) {
    for (const auto& [q, label] : {std::pair{0.5, "p50"}, {0.99, "p99"}}) {
      report.add(std::string("serve.") + name + "_ms." + label + "." + p, "ms",
                 quantile(*values, q) * 1e3, n);
    }
  }
  report.add("serve.mean_batch." + p, "count", open.mean_batch, n);
  report.add("serve.gen_lag_ms.p99." + p, "ms",
             quantile(open.gen_lag, 0.99) * 1e3, open.gen_lag.size());
  report.add("serve.gen_lag_ms.max." + p, "ms", max_of(open.gen_lag) * 1e3,
             open.gen_lag.size());
}

void run_traced(const Context& ctx, Report& report) {
  const Options& opt = ctx.options;
  probe_layers(opt, ctx.input_seed, report);

  // One traced unit of every workload; the requested workload also runs
  // one untraced unit first, for trace_overhead_frac.
  double overhead = 0.0;
  std::size_t overhead_samples = 0;
  {
    std::optional<TrainWorkload> w;
    w.emplace(ctx);
    double plain = 0.0;
    if (opt.workload == kTrainName) plain = w->run_unit(false).seconds;
    TrainWorkload::Unit unit;
    {
      const Tracing tracing;
      unit = w->run_unit(true);
    }
    if (opt.workload == kTrainName) {
      overhead = unit.seconds / plain - 1.0;
      overhead_samples = 2;
    }
    for (const auto& [stage, metric] :
         {std::pair{"train", "train"}, {"sparsify", "sparsify"},
          {"smooth", "smooth"}, {"eval", "evaluate"}}) {
      const auto it = unit.stage_s.find(stage);
      report.add(std::string("pipeline.stage_s.") + metric, "s",
                 it == unit.stage_s.end() ? 0.0 : it->second, 1);
    }
  }
  {
    std::optional<McWorkload> w;
    w.emplace(ctx);
    double plain = 0.0;
    if (opt.workload == kMcName) plain = w->run_unit();
    const double r = static_cast<double>(w->realizations());
    const std::uint64_t tasks = tasks_counter();
    double traced = 0.0;
    {
      const Tracing tracing;
      traced = w->run_unit();
    }
    report.add("fab.realization_ms", "ms", traced / r * 1e3,
               w->realizations());
    report.add("parallel.tasks_per_realization.n200", "count",
               static_cast<double>(tasks_counter() - tasks) / r, 1);
    if (opt.workload == kMcName) {
      overhead = traced / plain - 1.0;
      overhead_samples = 2;
    }
  }
  {
    std::optional<ServeWorkload> w;
    w.emplace(ctx);
    const double sat_s = opt.tiny ? 0.2 : 1.0;
    double plain_rps = 0.0;
    if (opt.workload == kServeName) {
      plain_rps = w->saturation(sat_s).capacity_rps();
    }
    const Tracing tracing;
    const ServeWorkload::Saturation sat = w->saturation(sat_s);
    const ServeWorkload::OpenLoop low =
        w->open_loop(ServeWorkload::kLowRps, opt.tiny ? 0.3 : 2.0);
    const ServeWorkload::OpenLoop high =
        w->open_loop(ServeWorkload::kHighRps, opt.tiny ? 0.5 : 3.0);
    report.add("serve.saturation_rps", "1/s", sat.capacity_rps(),
               sat.slice_rps.size());
    report.add("serve.mean_batch.sat", "count", sat.mean_batch,
               sat.slice_rps.size());
    add_open_layers(report, "low", low);
    add_open_layers(report, "high", high);
    if (opt.workload == kServeName) {
      overhead = plain_rps / sat.capacity_rps() - 1.0;
      overhead_samples = 2;
    }
  }
  report.add("trace_overhead_frac", "frac", overhead, overhead_samples);

  // Sanity line against the ROADMAP re-anchor table (1 thread, 4-core
  // container, gcc 12 Release). A report, not a gate.
  const auto value = [&](const char* name) {
    const Metric* m = report.find(name);
    return m == nullptr ? 0.0 : m->value;
  };
  std::printf(
      "sanity fft2d n200/n256 t1 = %.3g/%.3g ms (table 6.1/3.2); "
      "forward n64/n200 t1 = %.3g/%.3g ms (table 1.03/53.8)\n",
      value("fft.transform_2d_ms.n200.t1"), value("fft.transform_2d_ms.n256.t1"),
      value("donn.forward_ms.n64"), value("donn.forward_ms.n200"));
}

// ---------------------------------------------------------------- output

void print_record(const Options& opt, std::uint64_t input_seed) {
  const char* threads_env = std::getenv("ODONN_THREADS");
  std::printf(
      "record {\"workload\": \"%s\", \"seed\": %llu, \"input_seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"tiny\": %d, \"nproc\": %u, "
      "\"odonn_threads\": \"%s\", \"pool_threads\": %zu, "
      "\"build_type\": \"%s\", \"build\": %s}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
      static_cast<unsigned long long>(input_seed),
      opt.seconds, opt.trace ? 1 : 0,
      opt.tiny ? 1 : 0, std::thread::hardware_concurrency(),
      threads_env == nullptr ? "" : threads_env, odonn::thread_count(),
      PERFBENCH_BUILD_TYPE, odonn::obs::build_info_json().c_str());
}

void print_result(const Report& report, Outcome outcome) {
  std::string metrics;
  for (const Metric& m : report.metrics()) {
    std::printf("metric %s = %s %s (n=%zu)\n", m.name.c_str(),
                odonn::obs::format_double(m.value).c_str(), m.unit.c_str(),
                m.samples);
    double value = m.value;
    if (!std::isfinite(value)) {  // a broken measurement is a failure
      outcome.record(false);
      value = -1.0;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " +
               odonn::obs::format_double(value) + ", \"unit\": \"" + m.unit +
               "\"}";
  }
  std::printf("metric failed_frac = %s frac (n=%llu)\n",
              odonn::obs::format_double(
                  static_cast<double>(outcome.failed) /
                  static_cast<double>(outcome.attempted))
                  .c_str(),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      outcome.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options options = parse_args(argc, argv);
    const std::uint64_t input_seed = options.seed % kRecordedSeeds;
    print_record(options, input_seed);
    DigestGate gate(options, input_seed);
    Outcome outcome;
    const Context ctx{options, input_seed, gate, outcome};
    Report report;
    if (options.trace) {
      run_traced(ctx, report);
    } else if (options.workload == kTrainName) {
      run_train(ctx, report);
    } else if (options.workload == kMcName) {
      run_mc(ctx, report);
    } else {
      run_serve(ctx, report);
    }
    print_result(report, outcome);
    std::fflush(stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
