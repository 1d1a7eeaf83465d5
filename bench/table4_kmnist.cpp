// Reproduces Table IV (KMNIST) via the shared table registry (see
// bench_common's TableSpec). Also reachable as `odonn_cli table
// dataset=kmnist`.
#include "bench_common.hpp"
#include "common/run_main.hpp"

int main(int argc, char** argv) {
  return odonn::run_main([&] {
    const int failures = odonn::bench::run_table_bench(
        odonn::bench::table_spec(odonn::data::SyntheticFamily::Kana), argc,
        argv);
    return failures > 0 ? 1 : 0;
  });
}
