// Model checkpointing: a small self-describing binary container for the
// DONN configuration, phase masks and optional sparsity masks, so trained
// models survive process boundaries (examples train once, benches reuse).
//
// Format (little-endian, doubles as IEEE-754):
//   magic "ODNN" | u32 version | config fields | u32 layer count |
//   per layer: n*n f64 phases | u8 has_masks | per layer: n*n u8 mask
// Version 2 appends a u32 detector mode (0 standard, 1 differential) to the
// config fields; version-1 checkpoints still load as Standard.
#pragma once

#include <string>

#include "donn/model.hpp"

namespace odonn::donn {

/// Writes the model (config + phases + masks) to `path`. Throws IoError.
void save_model(const DonnModel& model, const std::string& path);

/// Reads a model back. Before building or allocating anything it validates
/// magic/version/shape, the grid, optics, class-count and detector-size
/// bounds, and that the file holds the phase (and, once the flag is read,
/// mask) bytes the header declares; then finite phase values and the exact
/// length (no byte after the mask block). Throws IoError on any malformed
/// content.
DonnModel load_model(const std::string& path);

}  // namespace odonn::donn
