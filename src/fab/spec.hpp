// Textual perturbation-stack specs, so CLI and pipeline configs can select
// fabrication imperfections with one key=value argument:
//
//   perturb=roughness(sigma_um=0.05,corr=2)+quantize(levels=8)+misalign
//
// Grammar: stack  := model ('+' model)*
//          model  := name [ '(' arg (',' arg)* ')' ]
//          arg    := key '=' number
// Names: roughness (sigma_um, corr, layer), quantize (levels, layer),
// misalign (sigma_px), detune (sigma_rel), ctjitter (sigma). A name without
// parentheses (or with empty ones) takes that model's defaults. roughness
// and quantize accept layer=K to restrict the imperfection to mask K of a
// multi-layer stack (default -1 = all layers), so per-layer severity specs
// like roughness(sigma_um=0.1,layer=0)+roughness(sigma_um=0.02,layer=4)
// compose. Unknown names or keys throw ConfigError — same fail-fast
// contract as Config::strict.
#pragma once

#include <string>

#include "fab/perturbation.hpp"

namespace odonn::fab {

/// Parses a stack spec; throws ConfigError on syntax errors, unknown model
/// names, unknown argument keys, unparsable numbers or non-finite ones
/// (inf, nan), as Config::get_double does.
PerturbationStack parse_perturbation_stack(const std::string& spec);

/// The default deployment-variability stack used when no spec is given:
/// correlated surface roughness + 16-level printing + slight misalignment.
extern const char* const kDefaultPerturbationSpec;

}  // namespace odonn::fab
