// The error policy every main shares: odonn_cli, the benches and the
// examples run their body through run_main, so a bad key, a malformed
// value or any other exception ends the process the same way — one
// "error: <what>" line on stderr and exit status 1 — never an abort in
// std::terminate. A body's own return value (a shape-check count, a
// failed agreement check) passes through unchanged.
#pragma once

#include <functional>

namespace odonn {

/// Returns body(), or 1 after printing "error: <what>" to stderr when body
/// throws a std::exception.
int run_main(const std::function<int()>& body);

}  // namespace odonn
