// odonn_cli — the single experiment driver over the pipeline API.
//
// Subcommands:
//   run    Compose and run a stage pipeline on one synthetic dataset.
//            odonn_cli run pipeline=train,sparsify,smooth,eval dataset=mnist
//            odonn_cli run recipe=baseline,ours-c sweep=0.25,0.5,0.75
//            odonn_cli run recipe=ours-d checkpoint_dir=ck resume=1
//            odonn_cli run pipeline=train,smooth,publish publish_dir=models
//          Each job checkpoints its store after every stage under
//          checkpoint_dir/<job label>/, and resume=1 fast-forwards past
//          the stages already on disk. sweep= strengths and crosstalk=
//          must lie in [0, 1]. Replaces the old examples/train_and_smooth
//          (recipe rows) and examples/deployment_gap (crosstalk sweep)
//          binaries.
//   table  Reproduce a paper table (II-V) at a bench scale. jobs=N runs N
//          recipes concurrently via train::run_recipes — rows (and their
//          phase digests) are bitwise identical to jobs=1. No checkpoints:
//          checkpoint_dir= is a `run` key.
//            odonn_cli table dataset=mnist bench.scale=smoke jobs=4
//          Same driver the bench/table*_ binaries use.
//   serve  Load checkpoints into a ModelRegistry and push traffic through
//          a ServeCluster (replicas= continuously-batched InferenceEngine
//          replicas behind one submit facade), or enumerate the registered
//          variants. Each request goes to the replica with the shortest
//          queue; queue_depth= bounds each replica's admission queue, and a
//          request that finds it full fails with an overload error. Results
//          are bitwise independent of replicas=.
//            odonn_cli serve model=models/pipeline-smoothed.odnn samples=256
//            odonn_cli serve model=m.odnn replicas=4 queue_depth=256
//            odonn_cli serve model=a.odnn,b.odnn action=list
//   robust Monte-Carlo fabrication-variability evaluation (src/fab): R
//          perturbed realizations per model variant, common random numbers
//          across variants, yield statistics (yield_threshold= in [0, 1]).
//            odonn_cli robust recipe=baseline,ours-c realizations=32
//              perturb='roughness(sigma_um=0.05,corr=2)+quantize(levels=8)'
//            ODONN_THREADS=4 odonn_cli robust model=models/ours-c-smoothed.odnn
//
// Robust (noise-in-the-loop) training: robust_train=1 swaps every train
// stage for robust_train, which averages gradients over
// train_realizations= fabrication realizations per step (antithetic=
// pairs them here as in the Monte-Carlo evaluation, train_resample=
// batch|epoch picks the sampling cadence). The training realizations skip
// the crosstalk emulation; the evaluation deploys it:
//   odonn_cli run recipe=baseline robust_train=1 train_realizations=4
//   odonn_cli robust recipe=baseline robust_train=1 realizations=32
//
// Observability: every subcommand accepts metrics=<path>, trace=<path> and
// trace_stream=<path>. The first two switch detail collection + tracing on
// for the whole run and, on success, write the metrics registry (JSON by
// default, Prometheus text for .prom/.txt paths) and a Chrome-trace event
// file (load in chrome://tracing or ui.perfetto.dev). trace_stream=
// additionally streams every COMPLETED span to the file as one JSON line
// while the run executes, so long runs keep a complete record even after
// the 64k in-memory span buffer caps out. serve additionally accepts
// snapshot_s=SECONDS to print periodic engine snapshots while the bench
// runs — with replicas>1 the lines carry cluster aggregates (total queue
// depth, per-replica RPS). Collection never affects results: digests are
// bitwise identical with metrics on or off (scripts/check.sh asserts this).
//
// All arguments are key=value; unknown keys are rejected (Config::strict)
// and format=text|json|both selects the output. Exit code 0 on success;
// any error prints "error: <what>" and exits 1 (odonn::run_main, the
// policy every bench and example main shares).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "serve_harness.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/run_main.hpp"
#include "data/synthetic.hpp"
#include "data/transform.hpp"
#include "donn/serialize.hpp"
#include "fab/montecarlo.hpp"
#include "fab/spec.hpp"
#include "obs/http_server.hpp"
#include "obs/obs.hpp"
#include "pipeline/parser.hpp"
#include "serve/cluster.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "train/trainer.hpp"

using namespace odonn;

namespace {

using Clock = std::chrono::steady_clock;

std::vector<std::string> with(std::vector<std::string> keys,
                              std::initializer_list<const char*> extra) {
  for (const char* key : extra) keys.emplace_back(key);
  return keys;
}

// ---------------------------------------------------------- observability

/// Export destinations parsed from the shared metrics=/trace=/trace_stream=
/// keys.
struct ObsOptions {
  std::string metrics_path;
  std::string trace_path;
  std::string trace_stream_path;
};

/// Reads metrics=/trace=/trace_stream= and, when any is set, switches on
/// detail collection (queue-wait timing) and span tracing for the whole
/// run. trace_stream= additionally attaches the streaming span sink up
/// front so spans flush to the file AS the run executes. Must run BEFORE
/// the subcommand so instrumentation covers it.
ObsOptions obs_options_from_config(const Config& cfg) {
  ObsOptions options;
  options.metrics_path = cfg.get_string("metrics", "");
  options.trace_path = cfg.get_string("trace", "");
  options.trace_stream_path = cfg.get_string("trace_stream", "");
  if (!options.metrics_path.empty() || !options.trace_path.empty() ||
      !options.trace_stream_path.empty()) {
    obs::set_detail(true);
    obs::set_tracing(true);
  }
  if (!options.trace_stream_path.empty()) {
    const std::filesystem::path parent =
        std::filesystem::path(options.trace_stream_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent);
    obs::set_trace_flush_file(options.trace_stream_path);
  }
  return options;
}

void write_text_file(const std::string& path, const std::string& content) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot write " + path);
  out << content;
}

/// Writes the requested exports after a successful run. metrics= paths
/// ending in .prom/.txt get the Prometheus exposition; everything else
/// gets the combined JSON (registry + finished spans). trace= always gets
/// Chrome-trace format.
void write_obs_outputs(const ObsOptions& options) {
  if (!options.metrics_path.empty()) {
    const std::string ext =
        std::filesystem::path(options.metrics_path).extension().string();
    const bool prometheus = ext == ".prom" || ext == ".txt";
    write_text_file(options.metrics_path,
                    prometheus ? obs::MetricsRegistry::global().to_text()
                               : obs::export_json());
  }
  if (!options.trace_path.empty()) {
    write_text_file(options.trace_path, obs::trace_to_chrome_json());
  }
}

void print_usage() {
  std::printf(
      "usage: odonn_cli <run|table|serve|robust> [key=value ...]\n"
      "  run    pipeline=data,train,sparsify,smooth,eval | recipe=ours-c[,..]\n"
      "         dataset=mnist grid=48 samples=1200 epochs=3 seed=7\n"
      "         layers=N detector=standard|differential (stack depth and\n"
      "         readout strategy; differential scores each class by a +/-\n"
      "         detector-region pair)\n"
      "         data_dir=DIR sweep=0.25,0.5,0.75 checkpoint_dir=DIR\n"
      "         resume=0|1 publish_name=NAME publish_dir=DIR\n"
      "         robust_train=0|1 train_realizations=2 antithetic=0|1\n"
      "         train_resample=batch|epoch train_warmup=-1\n"
      "         train_lr_scale=0.1 perturb=SPEC format=text|json|both\n"
      "  table  dataset=mnist|fmnist|kmnist|emnist|all bench.scale=smoke|\n"
      "         default|paper grid= samples= layers= detector= seed= jobs=N\n"
      "         format= (jobs= runs N recipes concurrently; rows are bitwise\n"
      "         identical to jobs=1 for any ODONN_THREADS)\n"
      "  serve  model=PATH[,PATH...] action=bench|list grid=32 layers=\n"
      "         detector= samples=256\n"
      "         batch=64 seed=7 snapshot_s=0.5 format=text|json|both\n"
      "         replicas=1 queue_depth=65536 (a full queue rejects the\n"
      "         request) continuous=0|1 (default 1: admit into the next\n"
      "         batch the moment the kernel frees up)\n"
      "         http_port=0|PORT (observability HTTP plane; 0 = ephemeral)\n"
      "         http_wait_s=S (stay scrapable S seconds after the bench,\n"
      "         or until GET /quitquitquit) snapshot_file=PATH (JSONL\n"
      "         ClusterSnapshot sink, one line per snapshot_s tick)\n"
      "  all subcommands: metrics=PATH (.json or .prom/.txt) trace=PATH\n"
      "         export the metrics registry / Chrome-trace spans on success;\n"
      "         trace_stream=PATH streams completed spans as JSON lines\n"
      "         while the run executes (survives the 64k span-buffer cap)\n"
      "  robust model=PATH[,PATH...] | recipe=baseline,ours-c[,...]\n"
      "         perturb='roughness(sigma_um=0.05,corr=2)+quantize(levels=16)"
      "+misalign(sigma_px=0.25)'\n"
      "         realizations=32 yield_threshold=0.5 antithetic=0|1\n"
      "         robust_train=0|1 train_realizations=2 dataset=mnist\n"
      "         data_dir=DIR grid=32 layers= detector= samples=800 epochs=2\n"
      "         seed=7 format=\n");
}

// ------------------------------------------------------------------- run

struct RunJob {
  std::string label;
  pipeline::PipelineSpec spec;
};

int cmd_run(const Config& cfg) {
  cfg.strict(with(pipeline::config_keys(),
                  {"dataset", "samples", "format", "checkpoint_dir", "resume",
                   "publish_name", "publish_dir", "sweep", "metrics",
                   "trace", "trace_stream"}));
  const auto format = bench::parse_format(cfg);
  const bool print_text = format != bench::OutputFormat::Json;
  const bool print_json = format != bench::OutputFormat::Text;

  const train::RecipeOptions opt = pipeline::options_from_config(cfg);
  pipeline::DatasetStageOptions data_opt =
      pipeline::dataset_options_from_config(cfg);
  data_opt.grid = opt.model.grid.n;  // the model grid governs the resize
  const auto family = data_opt.family;
  const std::size_t grid = opt.model.grid.n;
  const std::size_t samples = data_opt.samples;

  // One pipeline per job: an explicit pipeline= is a single job, a
  // recipe= list is one job per recipe (the deployment-gap comparison is
  // `recipe=baseline,ours-c sweep=...`).
  std::vector<RunJob> jobs;
  if (cfg.has("pipeline")) {
    jobs.push_back({"pipeline", pipeline::spec_from_config(cfg)});
  } else {
    for (const std::string& name :
         split_csv(cfg.get_string("recipe", "ours-c"))) {
      const train::RecipeKind kind = train::parse_recipe(name);
      pipeline::PipelineSpec spec = pipeline::spec_for_recipe(kind);
      spec.flags.roughness = cfg.get_bool("roughness", spec.flags.roughness);
      spec.flags.intra = cfg.get_bool("intra", spec.flags.intra);
      if (cfg.get_bool("robust_train", false)) {
        pipeline::apply_robust_train(spec);
      }
      jobs.push_back({train::recipe_name(kind), spec});
    }
  }

  const std::vector<double> sweep = pipeline::sweep_from_config(cfg);

  const std::string checkpoint_root = cfg.get_string("checkpoint_dir", "");
  const bool resume = cfg.get_bool("resume", false);
  if (resume && checkpoint_root.empty()) {
    throw ConfigError("resume=1 requires checkpoint_dir=");
  }

  if (print_text) {
    std::printf("dataset=%s grid=%zu samples=%zu seed=%llu\n",
                data::family_name(family), grid, samples,
                static_cast<unsigned long long>(opt.seed));
  }

  // Jobs whose stage list starts with a data stage produce their own
  // datasets inside the store; everyone else gets the shared pre-attached
  // pair (byte-identical arithmetic — both go through load_or_synthesize).
  const auto job_has_data_stage = [](const RunJob& job) {
    return std::find(job.spec.stages.begin(), job.spec.stages.end(),
                     pipeline::StageKind::Dataset) != job.spec.stages.end();
  };
  data::Dataset train_set;
  data::Dataset test_set;
  if (!std::all_of(jobs.begin(), jobs.end(), job_has_data_stage)) {
    auto prepared = pipeline::load_or_synthesize(data_opt);
    train_set = std::move(prepared.first);
    test_set = std::move(prepared.second);
  }

  auto registry = std::make_shared<serve::ModelRegistry>();

  std::string json = "{\"bench\": \"odonn_cli_run\", \"dataset\": " +
                     bench::json_quote(data::family_name(family)) +
                     ", \"grid\": " + std::to_string(grid) +
                     ", \"jobs\": [\n";
  bool first_job = true;

  for (const RunJob& job : jobs) {
    pipeline::BuildContext context;
    context.registry = registry;
    context.publish_name = cfg.get_string("publish_name", job.label);
    context.publish_dir = cfg.get_string("publish_dir", "");
    context.data = data_opt;
    context.robust = pipeline::robust_options_from_config(cfg);
    context.robust_train = pipeline::robust_train_options_from_config(cfg);
    pipeline::Pipeline pipe =
        pipeline::build_pipeline(job.spec, opt, context);

    pipeline::ArtifactStore store;
    if (!job_has_data_stage(job)) store.set_data(&train_set, &test_set);
    pipeline::RunOptions run_options;
    if (!checkpoint_root.empty()) {
      run_options.checkpoint_dir =
          (std::filesystem::path(checkpoint_root) / job.label).string();
      run_options.resume = resume;
    }
    if (print_text) {
      run_options.progress = [&job](const train::TableProgress& event) {
        if (!event.finished) return;
        if (event.skipped) {
          std::printf("[stage] %-9s %-9s (resumed from checkpoint)\n",
                      job.label.c_str(), event.stage_name.c_str());
        } else {
          std::printf("[stage] %-9s %-9s %.3fs\n", job.label.c_str(),
                      event.stage_name.c_str(), event.seconds);
        }
      };
    }
    const auto stages = pipe.run(store, run_options);

    // Text row: metrics that exist (stage lists without eval/report simply
    // print fewer columns).
    if (print_text) {
      std::printf("%-9s |", job.label.c_str());
      for (const char* metric :
           {pipeline::artifacts::kAccuracy,
            pipeline::artifacts::kRoughnessBefore,
            pipeline::artifacts::kRoughnessAfter,
            pipeline::artifacts::kSparsity,
            pipeline::artifacts::kDeployedAccuracy,
            pipeline::artifacts::kDeployedAccuracyAfter2Pi,
            pipeline::artifacts::kRobustMean,
            pipeline::artifacts::kRobustYield,
            pipeline::artifacts::kRobustSmoothedMean,
            pipeline::artifacts::kRobustSmoothedYield}) {
        if (store.has_metric(metric)) {
          std::printf(" %s %.4f |", metric, store.metric(metric));
        }
      }
      std::printf("\n");
    }

    // Crosstalk sweep (the old deployment_gap example): deployed accuracy
    // of the smoothed (preferred) or trained model per strength.
    std::string sweep_json;
    if (!sweep.empty()) {
      const char* which = store.has_model(pipeline::artifacts::kSmoothedModel)
                              ? pipeline::artifacts::kSmoothedModel
                              : pipeline::artifacts::kMainModel;
      const donn::DonnModel& model = store.model(which);
      if (print_text) std::printf("%-9s | sweep(%s):", job.label.c_str(), which);
      for (const double strength : sweep) {
        const double deployed = train::evaluate_deployed_accuracy(
            model, store.test(), donn::CrosstalkOptions{strength});
        if (print_text) std::printf("  s=%.2f %.2f%%", strength, 100.0 * deployed);
        if (!sweep_json.empty()) sweep_json += ", ";
        sweep_json += "{\"strength\": " + bench::json_number(strength) +
                      ", \"deployed_accuracy\": " +
                      bench::json_number(deployed) + "}";
      }
      if (print_text) std::printf("\n");
    }

    if (print_json) {
      if (!first_job) json += ",\n";
      first_job = false;
      json += "  {\"job\": " + bench::json_quote(job.label) + ", \"stages\": [";
      for (std::size_t i = 0; i < stages.size(); ++i) {
        json += (i ? ", " : "") + std::string("{\"name\": ") +
                bench::json_quote(stages[i].stage_name) +
                ", \"seconds\": " + bench::json_number(stages[i].seconds) +
                ", \"skipped\": " + (stages[i].skipped ? "true" : "false") +
                "}";
      }
      json += "], \"metrics\": {";
      bool first_metric = true;
      for (const std::string& metric : store.metric_names()) {
        if (!first_metric) json += ", ";
        first_metric = false;
        json += bench::json_quote(metric) + ": " +
                bench::json_number(store.metric(metric));
      }
      json += "}";
      if (!sweep_json.empty()) json += ", \"sweep\": [" + sweep_json + "]";
      json += "}";
    }
  }

  if (print_json) {
    json += "\n]}";
    std::printf("%s\n", json.c_str());
  }
  if (print_text && registry->size() > 0) {
    std::printf("registry:");
    for (const std::string& name : registry->names()) {
      std::printf(" %s", name.c_str());
    }
    std::printf("\n");
  }
  return 0;
}

// ----------------------------------------------------------------- table

int cmd_table(const Config& cfg) {
  cfg.strict(with(bench::parallel_bench_config_keys(),
                  {"format", "dataset", "metrics", "trace", "trace_stream"}));
  const bench::BenchConfig bc = bench::make_bench_config(cfg);
  const auto format = bench::parse_format(cfg);
  const std::string dataset = cfg.get_enum(
      "dataset", "mnist", {"mnist", "fmnist", "kmnist", "emnist", "all"});
  int failures = 0;
  if (dataset == "all") {
    for (const bench::TableSpec& spec : bench::all_table_specs()) {
      failures += bench::run_table_bench(spec, bc, format);
    }
  } else {
    failures += bench::run_table_bench(
        bench::table_spec(data::parse_family(dataset)), bc, format);
  }
  return failures > 0 ? 1 : 0;
}

// ----------------------------------------------------------------- serve

int cmd_serve(const Config& cfg) {
  cfg.strict({"model", "grid", "layers", "detector", "samples", "batch",
              "seed", "format", "action", "metrics", "trace", "trace_stream",
              "snapshot_s", "snapshot_file", "replicas", "queue_depth",
              "continuous", "http_port", "http_wait_s"});
  const auto format = bench::parse_format(cfg);
  const bool print_text = format != bench::OutputFormat::Json;
  const std::string action =
      cfg.get_enum("action", "bench", {"bench", "list"});
  const std::size_t samples = cfg.get_count("samples", 256);
  const std::size_t batch = cfg.get_count("batch", 64);
  const std::uint64_t seed = cfg.get_count("seed", 7);
  const long replicas_arg = cfg.get_int("replicas", 1);
  if (replicas_arg < 1 || replicas_arg > 256) {
    throw ConfigError("serve: replicas must be in [1, 256]");
  }
  const std::size_t replicas = static_cast<std::size_t>(replicas_arg);
  const long queue_depth = cfg.get_int("queue_depth", 1 << 16);
  if (queue_depth < 1) {
    throw ConfigError("serve: queue_depth must be >= 1");
  }

  // http_port=PORT starts the observability HTTP plane for the run (0 =
  // ephemeral, resolved port is logged and reported in the JSON record).
  // http_wait_s=SECONDS keeps the process alive (cluster up, plane
  // scrapable) after the bench finishes, until the timeout or a
  // GET /quitquitquit — how scripts scrape a live run.
  const long http_port_arg = cfg.get_int("http_port", -1);
  if (http_port_arg < -1 || http_port_arg > 65535) {
    throw ConfigError("serve: http_port must be in [0, 65535]");
  }
  const bool http_enabled = http_port_arg >= 0;
  const double http_wait_s = cfg.get_double("http_wait_s", 0.0);
  if (http_wait_s > 0.0 && !http_enabled) {
    throw ConfigError("serve: http_wait_s requires http_port");
  }
  const double snapshot_s = cfg.get_double("snapshot_s", 0.0);
  const std::string snapshot_file = cfg.get_string("snapshot_file", "");
  if (!snapshot_file.empty() && snapshot_s <= 0.0) {
    throw ConfigError("serve: snapshot_file requires snapshot_s > 0");
  }
  // Both waits become steady_clock durations (int64 nanoseconds); a year
  // keeps that conversion far from overflow.
  constexpr double kMaxWaitS = 365.0 * 24.0 * 3600.0;
  if (http_wait_s > kMaxWaitS || snapshot_s > kMaxWaitS) {
    throw ConfigError("serve: http_wait_s and snapshot_s must be <= 1 year");
  }

  auto registry = std::make_shared<serve::ModelRegistry>();
  if (cfg.has("model")) {
    for (const std::string& path : split_csv(cfg.get_string("model", ""))) {
      registry->load(std::filesystem::path(path).stem().string(), path);
    }
  } else {
    // No checkpoints given: serve a fresh (untrained) scaled model so the
    // command still demonstrates the registry -> engine path. layers= and
    // detector= pick the stack depth / readout strategy of that model.
    const std::size_t grid = cfg.get_count("grid", 32);
    donn::DonnConfig config = donn::DonnConfig::scaled(grid);
    const long layers =
        cfg.get_int("layers", static_cast<long>(config.num_layers));
    if (layers < 1 || layers > 64) {
      throw ConfigError("serve: layers must be in [1, 64]");
    }
    config.num_layers = static_cast<std::size_t>(layers);
    config.detector = donn::parse_detector_mode(
        cfg.get_enum("detector", "standard", {"standard", "differential"}));
    config.init = donn::PhaseInit::Uniform;
    Rng rng(seed);
    registry->add("default", donn::DonnModel(config, rng));
  }
  const std::vector<std::string> names = registry->names();
  ODONN_CHECK(!names.empty(), "serve: no models registered");
  const std::size_t grid = registry->get(names.front())->config().grid.n;

  // action=list: enumerate the registered variants (name + geometry)
  // instead of requiring the caller to already know the names.
  if (action == "list") {
    if (print_text) {
      std::printf("=== odonn_cli serve: registered models ===\n");
      std::printf("%-24s | %6s | %6s | %8s\n", "model", "grid", "layers",
                  "sparse");
    }
    std::string json = "{\"bench\": \"odonn_cli_serve_list\", \"models\": [\n";
    for (std::size_t i = 0; i < names.size(); ++i) {
      const auto model = registry->get(names[i]);
      if (print_text) {
        std::printf("%-24s | %6zu | %6zu | %8s\n", names[i].c_str(),
                    model->config().grid.n, model->num_layers(),
                    model->has_masks() ? "yes" : "no");
      }
      json += "  {\"model\": " + bench::json_quote(names[i]) +
              ", \"grid\": " + std::to_string(model->config().grid.n) +
              ", \"layers\": " + std::to_string(model->num_layers()) +
              ", \"sparse\": " + (model->has_masks() ? "true" : "false") +
              "}" + (i + 1 < names.size() ? ",\n" : "\n");
    }
    json += "]}";
    if (format != bench::OutputFormat::Text) std::printf("%s\n", json.c_str());
    return 0;
  }

  serve::ClusterOptions cluster_options;
  cluster_options.replicas = replicas;
  cluster_options.continuous = cfg.get_bool("continuous", true);
  cluster_options.engine.max_batch = batch;
  cluster_options.engine.max_queue = static_cast<std::size_t>(queue_depth);
  serve::ServeCluster cluster(registry, cluster_options);

  // snapshot_s=SECONDS: a background thread logs a cluster snapshot at
  // that period while the bench runs (observability only). With replicas>1
  // the line carries the cluster aggregates — total queue depth and
  // per-replica RPS — not just single-engine stats. snapshot_file=PATH
  // additionally appends one cluster_snapshot_json line per interval
  // (JSONL; parent directories are created). RAII so the thread is joined
  // even when the bench throws.
  struct SnapshotLoop {
    std::atomic<bool> running{true};
    std::thread thread;
    ~SnapshotLoop() {
      running.store(false);
      if (thread.joinable()) thread.join();
    }
  } snapshots;
  if (snapshot_s > 0.0) {
    std::shared_ptr<std::ofstream> sink;
    if (!snapshot_file.empty()) {
      const std::filesystem::path path(snapshot_file);
      if (path.has_parent_path()) {
        std::filesystem::create_directories(path.parent_path());
      }
      sink = std::make_shared<std::ofstream>(path);
      if (!*sink) {
        throw IoError("serve: cannot open snapshot_file " + snapshot_file);
      }
    }
    snapshots.thread =
        std::thread([&cluster, &snapshots, snapshot_s, sink] {
          const auto tick = std::chrono::milliseconds(50);
          auto next =
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(snapshot_s));
          while (snapshots.running.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(tick);
            if (Clock::now() < next) continue;
            next =
                Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(snapshot_s));
            const auto snap = cluster.stats();
            if (sink) {
              *sink << serve::cluster_snapshot_json(snap) << "\n";
              sink->flush();
            }
            auto line = log::info();
            line << "serve snapshot: requests=" << snap.requests
                 << " errors=" << snap.errors << " rejected=" << snap.rejected
                 << " p50_ms=" << snap.p50_ms << " p99_ms=" << snap.p99_ms
                 << " rps=" << snap.throughput_rps
                 << " mean_batch=" << snap.mean_batch_size
                 << " queue=" << snap.queue_depth;
            if (cluster.replica_count() > 1) {
              for (std::size_t r = 0; r < snap.replicas.size(); ++r) {
                line << " replica" << r << "=(rps="
                     << snap.replicas[r].throughput_rps << " queue="
                     << snap.replica_queue_depth[r] << ")";
              }
            }
          }
        });
  }

  // The HTTP plane is declared AFTER the cluster and snapshot loop so it
  // stops first: /snapshot handlers referencing the live cluster can never
  // run against a destroyed one. It only reads observability state, so
  // prediction digests are bitwise identical whether it is on or off.
  struct HttpPlane {
    obs::HttpServer server;
    std::mutex mutex;
    std::condition_variable cv;
    bool quit = false;
    std::atomic<bool> draining{false};
    explicit HttpPlane(obs::HttpServerOptions options)
        : server(std::move(options)) {}
  };
  std::unique_ptr<HttpPlane> http;
  if (http_enabled) {
    obs::HttpServerOptions server_options;
    server_options.port = static_cast<std::uint16_t>(http_port_arg);
    http = std::make_unique<HttpPlane>(server_options);
    obs::ObsRouteOptions routes;
    HttpPlane* plane = http.get();
    serve::ServeCluster* cluster_ptr = &cluster;
    routes.health_extra = [plane, cluster_ptr, replicas] {
      return "\"replicas\": " + std::to_string(replicas) +
             ", \"queue_depth\": " + std::to_string(cluster_ptr->pending()) +
             ", \"draining\": " +
             (plane->draining.load(std::memory_order_relaxed) ? "true"
                                                              : "false");
    };
    obs::register_obs_routes(http->server, std::move(routes));
    http->server.handle("/snapshot", [cluster_ptr](const obs::HttpRequest&) {
      obs::HttpResponse response;
      response.content_type = "application/json";
      response.body = serve::cluster_snapshot_json(cluster_ptr->stats());
      return response;
    });
    http->server.handle("/quitquitquit", [plane](const obs::HttpRequest&) {
      {
        std::lock_guard<std::mutex> lock(plane->mutex);
        plane->quit = true;
      }
      plane->cv.notify_all();
      obs::HttpResponse response;
      response.body = "shutting down\n";
      return response;
    });
    http->server.start();
    log::info() << "serve: http plane listening on 127.0.0.1:"
                << http->server.port();
  }

  if (print_text) {
    std::printf("=== odonn_cli serve ===\n");
    std::printf(
        "models=%zu grid=%zu samples=%zu batch=%zu replicas=%zu "
        "continuous=%d queue_depth=%ld threads=%zu\n\n",
        names.size(), grid, samples, batch, replicas,
        cluster_options.continuous ? 1 : 0, queue_depth, thread_count());
    std::printf("%-24s | %12s | %8s | %8s | %10s\n", "model", "samples/sec",
                "p50 ms", "p99 ms", "mean batch");
  }
  std::string json = "{\"bench\": \"odonn_cli_serve\", \"grid\": " +
                     std::to_string(grid) +
                     ", \"samples\": " + std::to_string(samples) +
                     ", \"replicas\": " + std::to_string(replicas) +
                     ", \"continuous\": " +
                     (cluster_options.continuous ? "true" : "false") +
                     ", \"threads\": " + std::to_string(thread_count());
  if (http_enabled) {
    json += ", \"http_port\": " + std::to_string(http->server.port());
  }
  json += ", \"rows\": [\n";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    // Inputs are generated per model at that model's own grid (checkpoints
    // from different training runs may differ in size); the stream is
    // reseeded so every model sees the same pixels.
    const auto inputs =
        bench::random_fields(registry->get(name)->config().grid, samples, seed);
    bench::warm_up(cluster, name, inputs);
    const bench::Burst burst = bench::closed_loop_burst(cluster, name, inputs);
    const auto snap = cluster.stats();
    const double throughput = static_cast<double>(samples) / burst.seconds;
    if (print_text) {
      std::printf("%-24s | %12.1f | %8.3f | %8.3f | %10.1f\n", name.c_str(),
                  throughput, snap.p50_ms, snap.p99_ms, snap.mean_batch_size);
    }
    json += std::string("  {\"model\": ") + bench::json_quote(name) +
            ", \"samples_per_sec\": " + bench::json_number(throughput) +
            ", \"stats\": " + serve::cluster_snapshot_json(snap) +
            ", \"digest\": \"" + bench::hex64(burst.digest) + "\"}" +
            (i + 1 < names.size() ? ",\n" : "\n");
  }
  json += "]}";
  if (format != bench::OutputFormat::Text) std::printf("%s\n", json.c_str());

  // http_wait_s linger: output is flushed, the cluster stays up, and the
  // HTTP plane keeps answering until the timeout or a GET /quitquitquit —
  // the hook scripts/check.sh uses to scrape a LIVE process.
  if (http && http_wait_s > 0.0) {
    std::fflush(stdout);
    std::unique_lock<std::mutex> lock(http->mutex);
    http->cv.wait_for(
        lock,
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(http_wait_s)),
        [&] { return http->quit; });
  }
  if (http) http->draining.store(true, std::memory_order_relaxed);
  return 0;
}

// ---------------------------------------------------------------- robust

int cmd_robust(const Config& cfg) {
  cfg.strict(with(pipeline::config_keys(),
                  {"dataset", "samples", "model", "format", "metrics",
                   "trace", "trace_stream"}));
  const auto format = bench::parse_format(cfg);
  const bool print_text = format != bench::OutputFormat::Json;
  const bool print_json = format != bench::OutputFormat::Text;

  const train::RecipeOptions opt = pipeline::options_from_config(cfg);
  pipeline::DatasetStageOptions data_opt =
      pipeline::dataset_options_from_config(cfg);
  const pipeline::RobustStageOptions robust_opt =
      pipeline::robust_options_from_config(cfg);
  const std::string perturb_spec = robust_opt.perturb.empty()
                                       ? fab::kDefaultPerturbationSpec
                                       : robust_opt.perturb;
  const fab::PerturbationStack stack =
      fab::parse_perturbation_stack(perturb_spec);

  // Variants: checkpoints when model= is given, else recipe-trained models
  // ("<recipe>" raw masks + "<recipe>-smoothed" after 2*pi optimization).
  std::vector<std::pair<std::string, std::shared_ptr<const donn::DonnModel>>>
      variants;
  data::Dataset test_set;
  if (cfg.has("model") && cfg.has("recipe")) {
    // Fail fast instead of silently ignoring one of them (the repo-wide
    // Config::strict contract).
    throw ConfigError(
        "robust: pass either model= (evaluate checkpoints) or recipe= "
        "(train then evaluate), not both");
  }
  if (cfg.has("model") && cfg.get_bool("robust_train", false)) {
    // Same contract: checkpoints are already trained, so a silently
    // ignored robust_train=1 would misreport what was evaluated.
    throw ConfigError(
        "robust: robust_train=1 requires recipe= (model= checkpoints are "
        "already trained)");
  }
  if (cfg.has("model")) {
    for (const std::string& path : split_csv(cfg.get_string("model", ""))) {
      variants.emplace_back(
          std::filesystem::path(path).stem().string(),
          std::make_shared<const donn::DonnModel>(donn::load_model(path)));
    }
    const std::size_t grid = variants.front().second->config().grid.n;
    for (const auto& [name, model] : variants) {
      if (model->config().grid.n != grid) {
        throw ConfigError("robust: model '" + name +
                          "' has a different grid than the first model; "
                          "evaluate equal-grid variants together");
      }
    }
    data_opt.grid = grid;
    test_set = pipeline::load_eval_set(data_opt);
  } else {
    data_opt.grid = opt.model.grid.n;
    auto prepared = pipeline::load_or_synthesize(data_opt);
    data::Dataset train_set = std::move(prepared.first);
    test_set = std::move(prepared.second);
    const bool robust_train = cfg.get_bool("robust_train", false);
    const pipeline::RobustTrainStageOptions robust_train_opt =
        pipeline::robust_train_options_from_config(cfg);
    for (const std::string& name :
         split_csv(cfg.get_string("recipe", "baseline,ours-c"))) {
      const train::RecipeKind kind = train::parse_recipe(name);
      // Robust evaluation replaces the recipe's own eval/report tail.
      pipeline::RecipeModels models = pipeline::recipe_models(
          kind, opt, train_set, test_set,
          robust_train ? &robust_train_opt : nullptr);
      const std::string label = std::string(train::recipe_name(kind)) +
                                (robust_train ? "-robust" : "");
      variants.emplace_back(label, std::make_shared<const donn::DonnModel>(
                                       std::move(models.main)));
      variants.emplace_back(label + "-smoothed",
                            std::make_shared<const donn::DonnModel>(
                                std::move(models.smoothed)));
    }
  }

  const fab::MonteCarloOptions mc =
      pipeline::monte_carlo_options(opt, robust_opt);
  const fab::MonteCarloEvaluator evaluator(test_set, mc);

  std::vector<std::pair<std::string, const donn::DonnModel*>> refs;
  refs.reserve(variants.size());
  for (const auto& [name, model] : variants) {
    refs.emplace_back(name, model.get());
  }

  if (print_text) {
    std::printf("=== odonn_cli robust ===\n");
    std::printf(
        "grid=%zu eval_samples=%zu realizations=%zu threads=%zu seed=%llu\n",
        test_set.image(0).rows(), test_set.size(), mc.realizations,
        thread_count(), static_cast<unsigned long long>(mc.seed));
    std::printf("perturb=%s\n\n", perturb_spec.c_str());
    std::printf("%-20s | %6s | %6s | %6s | %6s | %6s | %6s | %5s\n", "model",
                "clean", "mean", "std", "min", "p50", "p95", "yield");
  }

  const Clock::time_point start = Clock::now();
  const auto reports = evaluator.compare(refs, stack);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::string json =
      "{\"bench\": \"odonn_cli_robust\", \"grid\": " +
      std::to_string(test_set.image(0).rows()) +
      ", \"eval_samples\": " + std::to_string(test_set.size()) +
      ", \"realizations\": " + std::to_string(mc.realizations) +
      ", \"threads\": " + std::to_string(thread_count()) +
      ", \"yield_threshold\": " + bench::json_number(mc.yield_threshold) +
      ", \"perturb\": " + bench::json_quote(perturb_spec) +
      ", \"seconds\": " + bench::json_number(elapsed) + ", \"rows\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const fab::RobustnessReport& r = reports[i];
    if (print_text) {
      std::printf(
          "%-20s | %5.2f%% | %5.2f%% | %6.4f | %5.2f%% | %5.2f%% | %5.2f%% "
          "| %5.2f\n",
          r.model_name.c_str(), 100.0 * r.clean_accuracy, 100.0 * r.mean,
          r.stddev, 100.0 * r.min, 100.0 * r.p50, 100.0 * r.p95, r.yield);
    }
    json += "  {\"model\": " + bench::json_quote(r.model_name) +
            ", \"clean\": " + bench::json_number(r.clean_accuracy) +
            ", \"mean\": " + bench::json_number(r.mean) +
            ", \"std\": " + bench::json_number(r.stddev) +
            ", \"min\": " + bench::json_number(r.min) +
            ", \"p50\": " + bench::json_number(r.p50) +
            ", \"p95\": " + bench::json_number(r.p95) +
            ", \"yield\": " + bench::json_number(r.yield) +
            ", \"digest\": " + bench::json_quote(bench::hex64(r.digest())) +
            "}" +
            (i + 1 < reports.size() ? ",\n" : "\n");
  }
  json += "]}";
  if (print_json) std::printf("%s\n", json.c_str());
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  const Config cfg = Config::from_args(argc - 1, argv + 1);
  if (command != "run" && command != "table" && command != "serve" &&
      command != "robust") {
    std::fprintf(stderr, "unknown subcommand '%s'\n\n", command.c_str());
    print_usage();
    return 1;
  }
  // Enable collection before the command runs, export after it succeeds.
  const ObsOptions obs_options = obs_options_from_config(cfg);
  int code = 1;
  try {
    if (command == "run") code = cmd_run(cfg);
    if (command == "table") code = cmd_table(cfg);
    if (command == "serve") code = cmd_serve(cfg);
    if (command == "robust") code = cmd_robust(cfg);
  } catch (...) {
    // The streamed spans written so far are exactly what makes a failed
    // long run diagnosable — flush and close before rethrowing.
    obs::close_trace_flush_file();
    throw;
  }
  obs::close_trace_flush_file();
  if (code == 0) write_obs_outputs(obs_options);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  return run_main([&] { return run(argc, argv); });
}
