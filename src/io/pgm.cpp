#include "io/pgm.hpp"

#include <fstream>

#include "common/error.hpp"

namespace odonn::io {

void write_ppm(const std::string& path, const std::vector<Rgb>& pixels,
               std::size_t rows, std::size_t cols) {
  ODONN_CHECK_SHAPE(pixels.size() == rows * cols,
                    "write_ppm: pixel count does not match shape");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create " + path);
  out << "P6\n" << cols << ' ' << rows << "\n255\n";
  for (const auto& px : pixels) {
    out.write(reinterpret_cast<const char*>(px.data()), 3);
  }
  if (!out) throw IoError("failed writing " + path);
}

}  // namespace odonn::io
