// Phase-mask visualization (paper Fig. 5): renders a phase mask to a
// colormapped PPM, with sparsified (exact-zero) pixels drawn black so the
// cleared blocks stand out like the figure's black squares. Phases are
// displayed modulo 2*pi (what inference sees), and every mask pixel becomes
// a 2x2 block of image pixels for visibility.
#pragma once

#include <string>

#include "tensor/matrix.hpp"

namespace odonn::io {

struct MaskRenderOptions {
  bool zeros_black = true;   ///< paint exact-zero pixels black
};

void render_phase_mask(const std::string& path, const MatrixD& phase,
                       const MaskRenderOptions& options = {});

}  // namespace odonn::io
