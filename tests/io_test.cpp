// Tests for src/io: PPM output, CSV writer, colormaps, mask rendering.
#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "io/colormap.hpp"
#include "io/csv.hpp"
#include "io/mask_render.hpp"
#include "io/pgm.hpp"

namespace odonn::io {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Ppm, WritesExpectedHeaderAndSize) {
  std::vector<Rgb> pixels(6, Rgb{10, 20, 30});
  const auto path = temp_path("img.ppm");
  write_ppm(path, pixels, 2, 3);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::size_t w = 0, h = 0, maxv = 0;
  in >> magic >> w >> h >> maxv;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 3u);
  EXPECT_EQ(h, 2u);
  in.get();
  std::string rest((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(rest.size(), 18u);  // 6 pixels x 3 bytes
}

TEST(Ppm, PixelCountMismatchThrows) {
  std::vector<Rgb> pixels(5);
  EXPECT_THROW(write_ppm(temp_path("bad.ppm"), pixels, 2, 3), ShapeError);
}

TEST(Colormap, ViridisEndpointsAndMonotoneLuma) {
  const Rgb low = viridis(0.0);
  const Rgb high = viridis(1.0);
  // Dark purple -> bright yellow.
  EXPECT_LT(low[1], 40);
  EXPECT_GT(high[0], 200);
  EXPECT_GT(high[1], 200);
  double prev_luma = -1.0;
  for (int i = 0; i <= 16; ++i) {
    const Rgb c = viridis(i / 16.0);
    const double luma = 0.299 * c[0] + 0.587 * c[1] + 0.114 * c[2];
    EXPECT_GT(luma, prev_luma);  // perceptually ordered ramp
    prev_luma = luma;
  }
}

TEST(Colormap, PhaseWheelIsCyclic) {
  const Rgb a = phase_wheel(0.0);
  const Rgb b = phase_wheel(1.0);
  EXPECT_EQ(a, b);
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path = temp_path("data.csv");
  {
    CsvWriter csv(path, {"x", "y"});
    csv.row(std::vector<double>{1.0, 2.5});
    csv.row(std::vector<std::string>{"a", "b"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
}

TEST(Csv, CellCountMismatchThrows) {
  CsvWriter csv(temp_path("bad.csv"), {"a", "b", "c"});
  EXPECT_THROW(csv.row(std::vector<double>{1.0}), ShapeError);
}

TEST(MaskRender, WritesUpscaledPpm) {
  Rng rng(2);
  MatrixD phase(8, 8);
  for (auto& v : phase) v = rng.uniform(0.0, 6.28);
  phase(0, 0) = 0.0;  // sparsified pixel
  const auto path = temp_path("mask.ppm");
  render_phase_mask(path, phase);

  std::ifstream in(path, std::ios::binary);
  std::string magic;
  std::size_t w = 0, h = 0;
  in >> magic >> w >> h;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(w, 16u);
  EXPECT_EQ(h, 16u);
}

}  // namespace
}  // namespace odonn::io
