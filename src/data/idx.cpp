#include "data/idx.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace odonn::data {

namespace {

constexpr std::uint32_t kImagesMagic = 0x00000803;
constexpr std::uint32_t kLabelsMagic = 0x00000801;

std::uint32_t read_u32_be(std::istream& in, const std::string& path) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) throw IoError("truncated IDX header in " + path);
  return (static_cast<std::uint32_t>(bytes[0]) << 24) |
         (static_cast<std::uint32_t>(bytes[1]) << 16) |
         (static_cast<std::uint32_t>(bytes[2]) << 8) |
         static_cast<std::uint32_t>(bytes[3]);
}

/// Throws unless the `payload` bytes a header declares follow the read
/// position of `in` (which is restored; a stream that cannot seek proves
/// nothing and fails). Runs before any allocation sized by the header, so a
/// hostile count or shape fails here instead of reserving gigabytes.
void check_payload(std::istream& in, std::uint64_t payload,
                   const std::string& path) {
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here ||
      payload > static_cast<std::uint64_t>(end - here)) {
    throw IoError("IDX header of " + path + " declares " +
                  std::to_string(payload) + " data bytes, more than the file "
                  "holds (truncated or hostile header)");
  }
}

void write_u32_be(std::ostream& out, std::uint32_t value) {
  const unsigned char bytes[4] = {
      static_cast<unsigned char>((value >> 24) & 0xff),
      static_cast<unsigned char>((value >> 16) & 0xff),
      static_cast<unsigned char>((value >> 8) & 0xff),
      static_cast<unsigned char>(value & 0xff)};
  out.write(reinterpret_cast<const char*>(bytes), 4);
}

}  // namespace

Dataset load_idx(const std::string& images_path,
                 const std::string& labels_path, std::size_t num_classes) {
  std::ifstream img_in(images_path, std::ios::binary);
  if (!img_in) throw IoError("cannot open IDX images file " + images_path);
  std::ifstream lbl_in(labels_path, std::ios::binary);
  if (!lbl_in) throw IoError("cannot open IDX labels file " + labels_path);

  if (read_u32_be(img_in, images_path) != kImagesMagic) {
    throw IoError("bad IDX magic in " + images_path);
  }
  const std::uint32_t count = read_u32_be(img_in, images_path);
  const std::uint32_t rows = read_u32_be(img_in, images_path);
  const std::uint32_t cols = read_u32_be(img_in, images_path);
  if (count == 0 || rows == 0 || cols == 0) {
    throw IoError("IDX header of " + images_path +
                  " declares no images or an empty image shape");
  }
  // rows * cols < 2^64 always; times count it may wrap.
  std::uint64_t image_bytes = 0;
  if (__builtin_mul_overflow(std::uint64_t{rows} * cols, count,
                             &image_bytes)) {
    throw IoError("IDX header of " + images_path +
                  " declares an image payload that overflows 64 bits");
  }
  check_payload(img_in, image_bytes, images_path);

  if (read_u32_be(lbl_in, labels_path) != kLabelsMagic) {
    throw IoError("bad IDX magic in " + labels_path);
  }
  const std::uint32_t label_count = read_u32_be(lbl_in, labels_path);
  if (label_count != count) {
    throw IoError("IDX image/label count mismatch between " + images_path +
                  " and " + labels_path);
  }
  check_payload(lbl_in, label_count, labels_path);

  std::vector<MatrixD> images;
  images.reserve(count);
  std::vector<unsigned char> buffer(static_cast<std::size_t>(rows) * cols);
  for (std::uint32_t i = 0; i < count; ++i) {
    img_in.read(reinterpret_cast<char*>(buffer.data()),
                static_cast<std::streamsize>(buffer.size()));
    if (!img_in) throw IoError("truncated IDX image data in " + images_path);
    MatrixD img(rows, cols);
    for (std::size_t p = 0; p < buffer.size(); ++p) {
      img[p] = static_cast<double>(buffer[p]) / 255.0;
    }
    images.push_back(std::move(img));
  }

  std::vector<std::size_t> labels(count);
  std::vector<unsigned char> lbl_buffer(count);
  lbl_in.read(reinterpret_cast<char*>(lbl_buffer.data()),
              static_cast<std::streamsize>(lbl_buffer.size()));
  if (!lbl_in) throw IoError("truncated IDX label data in " + labels_path);
  for (std::uint32_t i = 0; i < count; ++i) {
    labels[i] = lbl_buffer[i];
  }
  return Dataset(std::move(images), std::move(labels), num_classes);
}

void write_idx(const Dataset& dataset, const std::string& images_path,
               const std::string& labels_path) {
  ODONN_CHECK(!dataset.empty(), "write_idx: empty dataset");
  std::ofstream img_out(images_path, std::ios::binary);
  if (!img_out) throw IoError("cannot create IDX images file " + images_path);
  std::ofstream lbl_out(labels_path, std::ios::binary);
  if (!lbl_out) throw IoError("cannot create IDX labels file " + labels_path);

  const auto& first = dataset.image(0);
  write_u32_be(img_out, kImagesMagic);
  write_u32_be(img_out, static_cast<std::uint32_t>(dataset.size()));
  write_u32_be(img_out, static_cast<std::uint32_t>(first.rows()));
  write_u32_be(img_out, static_cast<std::uint32_t>(first.cols()));
  std::vector<unsigned char> buffer(first.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto& img = dataset.image(i);
    for (std::size_t p = 0; p < img.size(); ++p) {
      const double v = std::clamp(img[p], 0.0, 1.0);
      buffer[p] = static_cast<unsigned char>(std::lround(v * 255.0));
    }
    img_out.write(reinterpret_cast<const char*>(buffer.data()),
                  static_cast<std::streamsize>(buffer.size()));
  }

  write_u32_be(lbl_out, kLabelsMagic);
  write_u32_be(lbl_out, static_cast<std::uint32_t>(dataset.size()));
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const unsigned char lbl = static_cast<unsigned char>(dataset.label(i));
    lbl_out.write(reinterpret_cast<const char*>(&lbl), 1);
  }
  if (!img_out || !lbl_out) throw IoError("failed writing IDX files");
}

}  // namespace odonn::data
