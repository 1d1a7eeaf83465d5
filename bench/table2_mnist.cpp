// Reproduces Table II (MNIST) via the shared table registry; the paper
// rows, title and block size live in bench_common's TableSpec for this
// dataset family. Also reachable as `odonn_cli table dataset=mnist`.
#include "bench_common.hpp"
#include "common/run_main.hpp"

int main(int argc, char** argv) {
  return odonn::run_main([&] {
    const int failures = odonn::bench::run_table_bench(
        odonn::bench::table_spec(odonn::data::SyntheticFamily::Digits), argc,
        argv);
    return failures > 0 ? 1 : 0;
  });
}
