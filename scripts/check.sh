#!/usr/bin/env sh
# Tier-1 verify: configure, build, ctest, plus runs of the examples, every
# main's typed exit on a bad or unknown key, the ODONN_THREADS /
# thread-pool start-up errors, smokes of the Monte-Carlo robustness CLI,
# robust training, the fabrication-yield bench, the parallel recipe
# tables (with cross-thread-count and cross-jobs digest compares,
# repeated for the 5-layer differential-readout cell), the layer-scaling
# A/B bench, the observability exports (metrics-on rows bitwise identical
# to plain), the serve cluster (cluster-vs-single-engine prediction digest
# equality across ODONN_THREADS and against odonn_cli serve, odonn_cli
# serve at the mixed-radix grids 20 and 18 across ODONN_THREADS, its typed
# rejection of grid 22 and of the removed routing=/backpressure= keys, and
# its overload error on a full queue), and the observability HTTP plane
# (scrape a live serve run, then prove digests identical with the plane on
# vs off) — the single entry point CI and humans run before merging. The whole
# tree (library, tests, benches, examples, cli, tools) compiles with
# -Wall -Wextra -Werror (set in CMakeLists.txt), so any warning anywhere
# fails this script at the build step.
#
# Deeper legs live behind CMake presets and run as their own CI jobs (too
# slow to fold in here): `ctest --preset asan-ubsan` (full suite under
# ASan+UBSan) and `ctest --preset tsan` (the `concurrency` label under
# ThreadSanitizer).
set -eu

cd "$(dirname "$0")/.."

# Determinism lint first: it needs no build and fails in seconds, so a
# banned construct (ad-hoc seeding/threads/printing, percentile or
# slice-layout reimplementations) surfaces before any compile time is
# spent. The same script also runs as the `lint` ctest below.
scripts/lint.sh --self-test

cmake -B build -S .
cmake --build build -j"$(nproc 2>/dev/null || echo 2)"
cd build && ctest --output-on-failure -j"$(nproc 2>/dev/null || echo 2)"

# Every build compiles examples/; run them too, at smoke size. Each must
# exit 0: serving_demo exits 1 unless the 2*pi-smoothed model answers every
# request like the dense one, and discrete_levels drives train::Adam
# directly (STE fine-tuning).
for example in "quickstart grid=16 samples=120 epochs=1" \
               "discrete_levels grid=16 samples=120 epochs=2" \
               "serving_demo grid=16 samples=120 epochs=1 requests=48"; do
  # shellcheck disable=SC2086  # word-split the example and its arguments
  ./$example > /dev/null ||
    { echo "examples: '$example' failed" >&2; exit 1; }
done
echo "examples: quickstart, discrete_levels, serving_demo ran clean"

# expect_error <label> <needle> <command...>: the command must fail with
# a typed error — exit 1 with <needle> on stderr — never crash, hang or
# succeed.
expect_error() {
  label="$1"
  needle="$2"
  shift 2
  err="$("$@" 2>&1 >/dev/null)" && code=0 || code=$?
  if [ "$code" -ne 1 ]; then
    echo "$label exited $code, expected 1" >&2
    exit 1
  fi
  case "$err" in
    *"$needle"*) ;;
    *) echo "$label printed no $needle" >&2
       echo "$err" >&2
       exit 1 ;;
  esac
}

# One error policy for every main (odonn::run_main): a malformed value
# and an unknown key each end odonn_cli run, the 15 bench mains and the 4
# examples with exit 1 and "error:" on stderr before any work starts —
# never an abort (exit 134), never a silently ignored key. The timeout
# turns a main that ignores the key and runs its default workload into
# a quick failure.
for bin in "odonn_cli run" ablation_design fig3_sparsity_roughness \
           fig4_intra_smoothness fig5_masks fig6_hyperparam layers_scaling \
           robust_train robust_yield serve_load table1_methods \
           table2_mnist table3_fmnist table4_kmnist table5_emnist \
           table_parallel quickstart discrete_levels mask_gallery \
           serving_demo; do
  for arg in grid=abc no_such_key=1; do
    # shellcheck disable=SC2086  # word-split "odonn_cli run"
    expect_error "mains smoke: $bin $arg" "error:" \
      timeout 30 ./$bin "$arg"
  done
done
echo "mains smoke: all 20 mains exit 1 on grid=abc and on an unknown key"
# Each main accepts only the keys it reads: a shared bench key that one
# main would ignore is an unknown key there too.
for case in "ablation_design layers=5" "fig5_masks format=json"; do
  # shellcheck disable=SC2086  # word-split the main and its argument
  expect_error "mains smoke: $case" "error: config:" timeout 30 ./$case
done
echo "mains smoke: ablation_design layers=5 and fig5_masks format=json" \
     "exit 1 (keys those mains never read)"

# ODONN_THREADS is a whole number in [1, 1024]: anything else must be a
# typed error (exit 1, "error:" on stderr), never a silent fallback to
# every hardware thread. A pool that cannot start its threads (here: an
# address-space limit too small for 1000 thread stacks) must also fail
# with a typed error instead of aborting on joinable threads.
expect_error "threads smoke: ODONN_THREADS=abc" "error:" \
  env ODONN_THREADS=abc ./odonn_cli serve grid=16 samples=8 batch=4
expect_error "threads smoke: ODONN_THREADS=100000" "error:" \
  env ODONN_THREADS=100000 ./odonn_cli serve grid=16 samples=8 batch=4
expect_error "threads smoke: ODONN_THREADS=1000 under ulimit -v 1500000" \
  "error:" \
  sh -c 'ulimit -v 1500000 &&
         ODONN_THREADS=1000 exec ./odonn_cli serve grid=16 samples=8 batch=4'
echo "threads smoke: bad ODONN_THREADS and a failed pool start exit 1"

# Checkpoint trust boundary: a header that claims a million classes, or
# 64 layers at grid 4096 with no phase bytes behind it, must fail within
# seconds with an IoError ("error: io:") before the loader builds a model.
# Both are cut from the checkpoint serving_demo wrote above: its 64-byte
# header, with u32 little-endian fields overwritten in place (grid at byte
# 8, layer count at 44 and 60, classes at 48, detector size at 52).
put_u32() {  # $1=file $2=byte offset $3=value
  printf "$(printf '\\%03o\\%03o\\%03o\\%03o' $(($3 & 255)) \
    $(($3 >> 8 & 255)) $(($3 >> 16 & 255)) $(($3 >> 24 & 255)))" |
    dd of="$1" bs=1 seek="$2" conv=notrunc 2>/dev/null
}
head -c 64 serving_demo_smoothed.odnn > hostile_classes.odnn
put_u32 hostile_classes.odnn 8 2048
put_u32 hostile_classes.odnn 48 1000000
put_u32 hostile_classes.odnn 52 1
head -c 64 serving_demo_smoothed.odnn > hostile_layers.odnn
put_u32 hostile_layers.odnn 8 4096
put_u32 hostile_layers.odnn 44 64
put_u32 hostile_layers.odnn 60 64
expect_error "checkpoint smoke: 1000000-class header" "error: io:" \
  timeout 10 ./odonn_cli serve model=hostile_classes.odnn action=list
expect_error "checkpoint smoke: 4096^2 x 64-layer header" "error: io:" \
  sh -c 'ulimit -v 4000000 &&
         exec timeout 10 ./odonn_cli serve model=hostile_layers.odnn \
           action=list'
echo "checkpoint smoke: hostile headers rejected with IoError (exit 1)"

# A throw on the serve drain thread once a batch has left the queue (here
# building the forward pass of a grid-5000 model under an address-space
# limit) must fail that batch's futures, so serve exits 1 with the error
# instead of aborting in std::terminate.
expect_error "serve drain smoke: grid=5000 under ulimit -v 3000000" "error:" \
  sh -c 'ulimit -v 3000000 &&
         exec ./odonn_cli serve grid=5000 samples=1 batch=1'
echo "serve drain smoke: an allocation failure after dequeue exits 1"

# digest_parity <label> <command...>: runs the command at ODONN_THREADS=1
# and at 4. Both runs must exit 0 and print the same non-empty list of
# "...digest" fields. Capturing the output first checks the command's own
# exit status (a pipeline would report only grep's).
digest_parity() {
  label="$1"
  shift
  p1="$(ODONN_THREADS=1 "$@")" ||
    { echo "$label: '$*' failed (threads=1)" >&2; exit 1; }
  p4="$(ODONN_THREADS=4 "$@")" ||
    { echo "$label: '$*' failed (threads=4)" >&2; exit 1; }
  pd1="$(printf '%s\n' "$p1" | grep -o '"[a-z_]*digest": "[0-9a-f]*"' || true)"
  pd4="$(printf '%s\n' "$p4" | grep -o '"[a-z_]*digest": "[0-9a-f]*"' || true)"
  [ -n "$pd1" ] || { echo "$label: no digests emitted" >&2; exit 1; }
  if [ "$pd1" != "$pd4" ]; then
    echo "$label: digests differ between ODONN_THREADS=1 and 4" >&2
    echo "threads=1: $pd1" >&2
    echo "threads=4: $pd4" >&2
    exit 1
  fi
  echo "$label: ODONN_THREADS=1 vs 4 digests identical"
}

# Smoke the fabrication-variability subsystem end to end: the per-
# realization accuracy digests of the Monte-Carlo report must not depend
# on ODONN_THREADS.
digest_parity "robust smoke" ./odonn_cli robust recipe=baseline grid=16 \
  samples=120 epochs=1 layers=2 two_pi_iters=200 realizations=4 format=json

# A hostile perturbation spec must fail fast with a typed config error
# (exit 1), not run realizations whose phases are all non-finite.
hostile_err="$(./odonn_cli robust recipe=baseline grid=16 samples=120 \
  epochs=1 layers=2 realizations=4 perturb='roughness(sigma_um=inf)' \
  2>&1 >/dev/null)" && hostile_code=0 || hostile_code=$?
if [ "$hostile_code" -ne 1 ]; then
  echo "robust smoke: sigma_um=inf exited $hostile_code, expected 1" >&2
  exit 1
fi
case "$hostile_err" in
  *"error: config:"*) ;;
  *) echo "robust smoke: sigma_um=inf printed no config error:" >&2
     echo "$hostile_err" >&2
     exit 1 ;;
esac
echo "robust smoke: perturb='roughness(sigma_um=inf)' rejected (exit 1)"

# Crosstalk strengths and yield thresholds live in [0, 1]: a value outside
# it (or a non-finite sweep value) is a config error before any training,
# not an error (or a silent 0/1 yield) after it.
tiny_recipe="recipe=ours-c grid=16 samples=60 epochs=1 two_pi_iters=20"
# shellcheck disable=SC2086  # word-split the tiny recipe keys
expect_error "range smoke: odonn_cli run crosstalk=2" "error: config:" \
  timeout 30 ./odonn_cli run $tiny_recipe crosstalk=2
# shellcheck disable=SC2086
expect_error "range smoke: odonn_cli run sweep=nan" "error: config:" \
  timeout 30 ./odonn_cli run $tiny_recipe sweep=nan
# shellcheck disable=SC2086
expect_error "range smoke: odonn_cli robust yield_threshold=2" \
  "error: config:" timeout 30 ./odonn_cli robust $tiny_recipe \
  realizations=4 yield_threshold=2
echo "range smoke: crosstalk=2, sweep=nan and yield_threshold=2 rejected"

# Removed keys are unknown keys, rejected before any training: robust
# training's in-loop crosstalk (train_crosstalk=), its training-only
# pairing override (train_antithetic=; antithetic= drives both streams)
# and odonn_cli robust's threads= (ODONN_THREADS sizes the pool).
# shellcheck disable=SC2086
expect_error "removed-key smoke: odonn_cli run train_crosstalk=1" \
  "error: config:" timeout 30 ./odonn_cli run $tiny_recipe robust_train=1 \
  train_crosstalk=1
# shellcheck disable=SC2086
expect_error "removed-key smoke: odonn_cli run train_antithetic=0" \
  "error: config:" timeout 30 ./odonn_cli run $tiny_recipe robust_train=1 \
  train_antithetic=0
# shellcheck disable=SC2086
expect_error "removed-key smoke: odonn_cli robust threads=2" \
  "error: config:" timeout 30 ./odonn_cli robust $tiny_recipe \
  realizations=4 threads=2
echo "removed-key smoke: train_crosstalk=, train_antithetic= and robust" \
     "threads= rejected"

# Robust-training smoke: the noise-in-the-loop bench must pass its shape
# checks (robust-trained yield strictly above the 2*pi-smoothed-only
# variant under CRN) AND emit bitwise-identical digests across thread
# counts — "train_digest" hashes the trained PHASE BITS, so this enforces
# the trainer's fixed-slice determinism contract, not just the evaluator's.
digest_parity "robust-train smoke" ./robust_train bench.scale=smoke \
  format=json

# Fabrication-yield smoke: robust_yield trains Baseline and Ours-C through
# the same pipeline::recipe_models as the two smokes above, must pass its
# shape checks, and its per-row Monte-Carlo digests must not depend on
# ODONN_THREADS.
digest_parity "robust-yield smoke" ./robust_yield bench.scale=smoke \
  realizations=4 format=json

# Parallel-table smoke: a full smoke-scale table must produce bitwise
# identical rows — trained AND 2*pi-smoothed phase digests (the smooth2pi
# half of the thread-independence contract) plus the metric columns —
# across ODONN_THREADS=1 vs 4 AND across jobs=1 vs 4 (train::run_recipes
# running the recipes as concurrent parallel_tasks lanes).
table_smoke() {  # $1=threads $2=jobs
  ODONN_THREADS="$1" ./odonn_cli table bench.scale=smoke jobs="$2" \
    format=json ||
    { echo "table smoke: odonn_cli table failed (threads=$1 jobs=$2)" >&2
      exit 1; }
}
table_rows() {  # extract the deterministic row fields (not seconds)
  # `|| true` keeps a zero-match grep from tripping set -e inside the
  # command substitutions below, so the "no digests emitted" guard can
  # actually fire with its message instead of a silent abort.
  printf '%s\n' "$1" |
    grep -o '"[a-z_]*digest": "[0-9a-f]*"\|"[a-z_]*accuracy[a-z_0-9]*": [0-9.e+-]*\|"roughness_[a-z]*": [0-9.e+-]*\|"sparsity": [0-9.e+-]*' ||
    true
}
s11="$(table_smoke 1 1)"
s41="$(table_smoke 4 1)"
s44="$(table_smoke 4 4)"
r11="$(table_rows "$s11")"
r41="$(table_rows "$s41")"
r44="$(table_rows "$s44")"
[ -n "$r11" ] || { echo "table smoke: no digests emitted" >&2; exit 1; }
if [ "$r11" != "$r41" ]; then
  echo "table smoke: rows differ between ODONN_THREADS=1 and 4" >&2
  exit 1
fi
echo "table smoke: ODONN_THREADS=1 vs 4 rows identical (incl. smoothed digests)"
if [ "$r41" != "$r44" ]; then
  echo "table smoke: rows differ between jobs=1 and jobs=4" >&2
  exit 1
fi
echo "table smoke: jobs=1 vs jobs=4 rows identical"

# Multi-layer / detector-strategy smoke: the 5-layer differential-readout
# cell (the farthest point of the recipe grid from the defaults) must
# uphold the same contract — bitwise-identical rows across ODONN_THREADS=1
# vs 4 AND jobs=1 vs 4.
ml_table_smoke() {  # $1=threads $2=jobs
  ODONN_THREADS="$1" ./odonn_cli table bench.scale=smoke layers=5 \
    detector=differential jobs="$2" format=json ||
    { echo "ml table smoke: odonn_cli table failed (threads=$1 jobs=$2)" >&2
      exit 1; }
}
m11="$(ml_table_smoke 1 1)"
m41="$(ml_table_smoke 4 1)"
m44="$(ml_table_smoke 4 4)"
mr11="$(table_rows "$m11")"
mr41="$(table_rows "$m41")"
mr44="$(table_rows "$m44")"
[ -n "$mr11" ] || { echo "ml table smoke: no digests emitted" >&2; exit 1; }
if [ "$mr11" != "$mr41" ]; then
  echo "ml table smoke: 5-layer differential rows differ between" \
       "ODONN_THREADS=1 and 4" >&2
  exit 1
fi
if [ "$mr41" != "$mr44" ]; then
  echo "ml table smoke: 5-layer differential rows differ between jobs=1" \
       "and jobs=4" >&2
  exit 1
fi
echo "ml table smoke: layers=5 detector=differential rows identical" \
     "across threads and jobs"

# Layer-scaling bench: the {1,5}-layer x {standard,differential} A/B must
# pass its shape checks (valid accuracies, deterministic replay); the JSON
# record lands in build/layers_artifacts/ for CI upload.
rm -rf layers_artifacts && mkdir -p layers_artifacts
lsout="$(ODONN_THREADS=4 ./layers_scaling bench.scale=smoke realizations=4 \
  format=json)" ||
  { echo "layers smoke: layers_scaling bench failed" >&2; exit 1; }
printf '%s\n' "$lsout" | grep -v '^\[' > layers_artifacts/layers_scaling.json
grep -q '"cells"' layers_artifacts/layers_scaling.json ||
  { echo "layers smoke: record missing cells array" >&2; exit 1; }
echo "layers smoke: scaling record written and shape checks passed"

# Observability smoke: the SAME table with metrics= and trace= exports on
# (which also flips on detail collection and tracing) must stay bitwise
# identical to the plain jobs=4 run above — collection reads clocks and
# bumps atomics, it never feeds back into the computation. The exports
# must carry the full schema: counters from serve/pipeline/parallel/fft,
# per-job stage spans, and a Chrome-trace document. CI uploads
# build/obs_artifacts/ so a failed run's metrics are inspectable.
rm -rf obs_artifacts
so44="$(ODONN_THREADS=4 ./odonn_cli table bench.scale=smoke jobs=4 \
  metrics=obs_artifacts/metrics.json trace=obs_artifacts/trace.json \
  format=json)" ||
  { echo "obs smoke: odonn_cli table with metrics=/trace= failed" >&2
    exit 1; }
ro44="$(table_rows "$so44")"
if [ "$r44" != "$ro44" ]; then
  echo "obs smoke: rows differ between metrics-on and plain runs" >&2
  exit 1
fi
echo "obs smoke: metrics-on rows bitwise identical to plain run"
for needle in '"serve.requests"' '"pipeline.stages_run"' '"parallel.tasks"' \
              '"fft.plan_cache.hits"' '"stage:baseline/train"' \
              '"stage:ours-d/train"'; do
  grep -q "$needle" obs_artifacts/metrics.json ||
    { echo "obs smoke: metrics.json missing $needle" >&2; exit 1; }
done
grep -q '"traceEvents"' obs_artifacts/trace.json ||
  { echo "obs smoke: trace.json is not a Chrome-trace document" >&2
    exit 1; }
echo "obs smoke: metrics schema, per-job stage spans and trace all present"

# Parallel-table bench: records the sequential-vs-parallel wall-clock,
# re-proves row parity, checks that jobs=4 really overlaps its recipes
# (self-skips on hosts with fewer than 4 hardware threads),
# and bounds the observability overhead (<= 2% with detail + tracing on,
# rows still bitwise identical).
ODONN_THREADS=4 ./table_parallel bench.scale=smoke format=text ||
  { echo "table_parallel bench failed" >&2; exit 1; }

# Serve-cluster smoke: the load bench digests every response's detector
# sums (FNV-1a over the IEEE-754 bits, in submit order); that digest must
# be identical between a single-threaded single engine and a 4-thread
# 2-replica cluster — replication and thread count move requests, never
# bits. The replicas=2 JSON record is kept for CI upload
# (build/serve_artifacts/), alongside the bench's own shape checks: one
# digest across every mode, replica count and pass, every replica of the
# 2-replica cluster serving at least a quarter of its requests, best
# batched > naive loop, and replicas=2 > replicas=1.
serve_smoke() {  # $1=threads $2=replicas
  ODONN_THREADS="$1" ./serve_load grid=16 requests=64 replicas="$2" \
    format=json ||
    { echo "serve smoke: serve_load failed (threads=$1 replicas=$2)" >&2
      exit 1; }
}
rm -rf serve_artifacts && mkdir -p serve_artifacts
v1="$(serve_smoke 1 1)"
v2="$(serve_smoke 4 2)"
# The record proper is JSON; shape-check lines ("[check] ...") precede it.
printf '%s\n' "$v2" | grep -v '^\[' > serve_artifacts/serve_load.json
sd1="$(printf '%s\n' "$v1" | grep -o '"digest": "[0-9a-f]*"' | head -n 1)"
sd2="$(printf '%s\n' "$v2" | grep -o '"digest": "[0-9a-f]*"' | head -n 1)"
[ -n "$sd1" ] || { echo "serve smoke: no digest emitted" >&2; exit 1; }
if [ "$sd1" != "$sd2" ]; then
  echo "serve smoke: digests differ between single engine and cluster" >&2
  echo "threads=1 replicas=1: $sd1" >&2
  echo "threads=4 replicas=2: $sd2" >&2
  exit 1
fi
echo "serve smoke: cluster digest identical to single engine (threads 1 vs 4)"
# odonn_cli serve runs the same closed-loop harness (bench/serve_harness)
# over the same model (scaled(16), uniform init, Rng(7)) and input stream,
# so its first row must carry serve_load's digest: the harness's two
# callers cannot drift apart.
cli_out="$(ODONN_THREADS=4 ./odonn_cli serve grid=16 samples=64 format=json)" ||
  { echo "serve smoke: odonn_cli serve failed" >&2; exit 1; }
sd3="$(printf '%s\n' "$cli_out" | grep -o '"digest": "[0-9a-f]*"' | head -n 1)"
if [ "$sd1" != "$sd3" ]; then
  echo "serve smoke: odonn_cli serve and serve_load digests differ" >&2
  echo "serve_load threads=1 replicas=1: $sd1" >&2
  echo "odonn_cli serve threads=4:       $sd3" >&2
  exit 1
fi
echo "serve smoke: odonn_cli serve digest identical to serve_load"
# The smokes above all run at grid 16, a power of two. Grids 20 (2^2 * 5)
# and 18 (2 * 3^2) run the mixed-radix FFT, 18 with a partial last lane
# group (18 % 4 = 2): each must print one digest at ODONN_THREADS=1 and 4,
# so the mixed-radix engine is held to the thread-count contract end to
# end. Grid 22 (2 * 11) has a prime factor above 5, which no FFT engine
# runs: serve must exit 1 with a ConfigError naming the next supported
# length.
for grid in 20 18; do
  gd=""
  for threads in 1 4; do
    g_out="$(ODONN_THREADS="$threads" ./odonn_cli serve grid="$grid" \
      samples=64 format=json)" ||
      { echo "serve smoke: odonn_cli serve grid=$grid failed" \
             "(threads=$threads)" >&2
        exit 1; }
    g_digest="$(printf '%s\n' "$g_out" |
      grep -o '"digest": "[0-9a-f]*"' | head -n 1)"
    [ -n "$g_digest" ] ||
      { echo "serve smoke: grid=$grid printed no digest" >&2; exit 1; }
    if [ -n "$gd" ] && [ "$gd" != "$g_digest" ]; then
      echo "serve smoke: grid=$grid digests differ between ODONN_THREADS=1" \
           "and 4" >&2
      echo "threads=1: $gd" >&2
      echo "threads=4: $g_digest" >&2
      exit 1
    fi
    gd="$g_digest"
  done
done
echo "serve smoke: grid=20 and grid=18 (mixed radix) digests identical at" \
     "ODONN_THREADS=1 and 4"
expect_error "serve smoke: odonn_cli serve grid=22" "error: config:" \
  ./odonn_cli serve grid=22 samples=8
echo "serve smoke: grid=22 (prime factor 11) exits 1 with a ConfigError"
# Serve has one admission policy: a request that finds its replica's queue
# full fails with a typed OverloadError. A 64-request burst against a
# 4-deep queue must end serve with exit 1 and "error: overload:". Serve
# routes by queue length only and never parks a submitter, so routing= and
# backpressure= are unknown keys.
expect_error "serve smoke: odonn_cli serve queue_depth=4" "error: overload:" \
  ./odonn_cli serve grid=16 samples=64 queue_depth=4
for key in routing=hash backpressure=block; do
  expect_error "serve smoke: odonn_cli serve $key" "error: config:" \
    ./odonn_cli serve "$key"
done
echo "serve smoke: a full queue exits 1 with an OverloadError;" \
     "routing= and backpressure= exit 1 with a ConfigError"
# An empty sweep must end serve_load with a typed error (exit 1, "error:"
# on stderr), never an abort; the mains smoke above covers its bad keys.
expect_error "serve smoke: serve_load requests=0" "error:" \
  ./serve_load requests=0
echo "serve smoke: serve_load requests=0 exits 1"

# HTTP-plane smoke: a live serve run with the observability HTTP plane up
# must (a) report build provenance on /healthz, (b) serve a /metrics body
# carrying the serve counters and the attribution summary families, (c)
# stream ClusterSnapshot JSONL to snapshot_file=, and (d) shut down with
# exit 0 on GET /quitquitquit. Scrapes land in build/http_artifacts/ for
# CI upload. The per-row response digest with the plane ON (THREADS=4,
# replicas=2) must then equal a plane-OFF THREADS=1 replicas=1 run — the
# HTTP plane and attribution stamps only read state, they never feed back
# into the computation.
rm -rf http_artifacts && mkdir -p http_artifacts
ODONN_THREADS=4 ./odonn_cli serve grid=16 samples=48 batch=16 replicas=2 \
  http_port=0 http_wait_s=30 snapshot_s=0.2 \
  snapshot_file=http_artifacts/snapshots.jsonl format=json \
  > http_artifacts/serve_http.json 2> http_artifacts/serve_http.log &
serve_pid=$!
http_fail() {  # $1=message
  echo "http smoke: $1" >&2
  kill "$serve_pid" 2>/dev/null || true
  exit 1
}
port=""
i=0
while [ "$i" -lt 100 ]; do
  port="$(grep -o 'listening on 127.0.0.1:[0-9]*' \
            http_artifacts/serve_http.log 2>/dev/null |
          grep -o '[0-9]*$' || true)"
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || http_fail "serve exited prematurely"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$port" ] || http_fail "serve never reported its http port"
# Wait until the bench record is out (the process then lingers, scrapable,
# inside http_wait_s) so the scraped counters cover the whole run.
i=0
until grep -q '"rows"' http_artifacts/serve_http.json 2>/dev/null; do
  [ "$i" -lt 300 ] || http_fail "serve bench never emitted its JSON record"
  kill -0 "$serve_pid" 2>/dev/null || http_fail "serve exited prematurely"
  sleep 0.1
  i=$((i + 1))
done
./http_get 127.0.0.1 "$port" /healthz > http_artifacts/healthz.json ||
  http_fail "/healthz scrape failed"
./http_get 127.0.0.1 "$port" /metrics > http_artifacts/metrics.prom ||
  http_fail "/metrics scrape failed"
./http_get 127.0.0.1 "$port" /metrics.json > http_artifacts/metrics.json ||
  http_fail "/metrics.json scrape failed"
./http_get 127.0.0.1 "$port" /snapshot > http_artifacts/snapshot.json ||
  http_fail "/snapshot scrape failed"
./http_get 127.0.0.1 "$port" /spans > http_artifacts/spans.json ||
  http_fail "/spans scrape failed"
for needle in '"git_sha"' '"replicas": 2' '"draining": false'; do
  grep -q "$needle" http_artifacts/healthz.json ||
    http_fail "/healthz missing $needle"
done
for needle in 'odonn_serve_requests' 'odonn_serve_attr_queue_wait_ms' \
              'odonn_serve_attr_compute_ms' 'quantile="0.999"' \
              'odonn_obs_http_requests'; do
  grep -q "$needle" http_artifacts/metrics.prom ||
    http_fail "/metrics missing $needle"
done
grep -q '"attr"' http_artifacts/snapshot.json ||
  http_fail "/snapshot missing attribution summary"
# snapshot_s=0.2 keeps ticking during the linger, so at least one JSONL
# line must appear before we ask the process to quit.
i=0
until [ -s http_artifacts/snapshots.jsonl ]; do
  [ "$i" -lt 100 ] || http_fail "snapshot_file never received a line"
  sleep 0.1
  i=$((i + 1))
done
grep -q '"attr"' http_artifacts/snapshots.jsonl ||
  http_fail "snapshot_file lines missing attribution summary"
./http_get 127.0.0.1 "$port" /quitquitquit > /dev/null ||
  http_fail "/quitquitquit failed"
wait "$serve_pid" ||
  { echo "http smoke: serve exited nonzero after /quitquitquit" >&2; exit 1; }
hd_on="$(grep -o '"digest": "[0-9a-f]*"' http_artifacts/serve_http.json |
         head -n 1)"
[ -n "$hd_on" ] || { echo "http smoke: no digest in serve record" >&2; exit 1; }
plain="$(ODONN_THREADS=1 ./odonn_cli serve grid=16 samples=48 batch=16 \
  replicas=1 format=json)" ||
  { echo "http smoke: plane-off serve run failed" >&2; exit 1; }
hd_off="$(printf '%s\n' "$plain" | grep -o '"digest": "[0-9a-f]*"' |
          head -n 1)"
if [ "$hd_on" != "$hd_off" ]; then
  echo "http smoke: digests differ between http-on and http-off runs" >&2
  echo "http on  (threads=4 replicas=2): $hd_on" >&2
  echo "http off (threads=1 replicas=1): $hd_off" >&2
  exit 1
fi
echo "http smoke: scrapes, JSONL sink, clean shutdown, digest identical on/off"
