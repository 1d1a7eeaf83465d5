// Reproduces Table V (EMNIST) via the shared table registry (see
// bench_common's TableSpec). Also reachable as `odonn_cli table
// dataset=emnist`.
#include "bench_common.hpp"
#include "common/run_main.hpp"

int main(int argc, char** argv) {
  return odonn::run_main([&] {
    odonn::bench::run_table_bench(
        odonn::bench::table_spec(odonn::data::SyntheticFamily::Letters), argc,
        argv);
    return 0;
  });
}
