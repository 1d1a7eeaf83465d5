#include "common/run_main.hpp"

#include <cstdio>
#include <exception>

namespace odonn {

int run_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const std::exception& error) {
    // Not through common/log: the exit line must reach stderr whatever
    // ODONN_LOG_LEVEL says, and without a level prefix.
    std::fprintf(stderr, "error: %s\n", error.what());  // lint:allow raw-print
    return 1;
  }
}

}  // namespace odonn
