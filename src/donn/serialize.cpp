#include "donn/serialize.hpp"

#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace odonn::donn {

namespace {

constexpr char kMagic[4] = {'O', 'D', 'N', 'N'};
// v1: config without detector mode (implicitly Standard).
// v2: appends a u32 detector mode after detector_size.
constexpr std::uint32_t kVersion = 2;
// Largest grid a checkpoint may claim (a 4096^2 complex field is 256 MiB).
constexpr std::size_t kMaxGrid = 4096;
// Largest class count a checkpoint may claim. Every driver builds 10; the
// detector layout checks its regions pairwise, so a million classes would
// spin for minutes before the first phase byte is read.
constexpr std::size_t kMaxClasses = 1024;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f64(std::ostream& out, double v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint32_t read_u32(std::istream& in, const std::string& path) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw IoError("truncated model file " + path);
  return v;
}

double read_f64(std::istream& in, const std::string& path) {
  double v = 0.0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw IoError("truncated model file " + path);
  return v;
}

/// Throws unless the `payload` bytes the header declares for the next block
/// (`what`) follow the read position of `in` (which is restored; a stream
/// that cannot seek proves nothing and fails). Runs before anything the
/// block sizes is built or allocated.
void check_payload(std::istream& in, std::uint64_t payload, const char* what,
                   const std::string& path) {
  const std::streamoff here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here ||
      payload > static_cast<std::uint64_t>(end - here)) {
    throw IoError("model file " + path + " declares " +
                  std::to_string(payload) + " bytes of " + what +
                  ", more than it holds (truncated or hostile header)");
  }
}

}  // namespace

void save_model(const DonnModel& model, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create model file " + path);
  const DonnConfig& cfg = model.config();

  out.write(kMagic, sizeof(kMagic));
  write_u32(out, kVersion);
  write_u32(out, static_cast<std::uint32_t>(cfg.grid.n));
  write_f64(out, cfg.grid.pitch);
  write_f64(out, cfg.wavelength);
  write_f64(out, cfg.distance);
  write_u32(out, static_cast<std::uint32_t>(cfg.kernel));
  write_u32(out, cfg.pad2x ? 1 : 0);
  write_u32(out, static_cast<std::uint32_t>(cfg.num_layers));
  write_u32(out, static_cast<std::uint32_t>(cfg.num_classes));
  write_u32(out, static_cast<std::uint32_t>(cfg.detector_size));
  write_u32(out, static_cast<std::uint32_t>(cfg.detector));

  write_u32(out, static_cast<std::uint32_t>(model.phases().size()));
  for (const auto& phi : model.phases()) {
    out.write(reinterpret_cast<const char*>(phi.data()),
              static_cast<std::streamsize>(phi.size() * sizeof(double)));
  }
  const std::uint8_t has_masks = model.has_masks() ? 1 : 0;
  out.write(reinterpret_cast<const char*>(&has_masks), 1);
  if (has_masks != 0) {
    for (const auto& mask : model.masks()) {
      out.write(reinterpret_cast<const char*>(mask.data()),
                static_cast<std::streamsize>(mask.size()));
    }
  }
  if (!out) throw IoError("failed writing model file " + path);
}

DonnModel load_model(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open model file " + path);

  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw IoError("not an odonn model file: " + path);
  }
  const std::uint32_t version = read_u32(in, path);
  if (version < 1 || version > kVersion) {
    throw IoError("unsupported model version in " + path);
  }

  DonnConfig cfg;
  cfg.grid.n = read_u32(in, path);
  cfg.grid.pitch = read_f64(in, path);
  cfg.wavelength = read_f64(in, path);
  cfg.distance = read_f64(in, path);
  // The header sizes every allocation below: reject an implausible one
  // before it turns into a multi-gigabyte request.
  if (cfg.grid.n < 1 || cfg.grid.n > kMaxGrid) {
    throw IoError("grid size outside [1, " + std::to_string(kMaxGrid) +
                  "] in " + path);
  }
  for (const double v : {cfg.grid.pitch, cfg.wavelength, cfg.distance}) {
    if (!std::isfinite(v) || v <= 0.0) {
      throw IoError("non-finite or non-positive optics parameter in " + path);
    }
  }
  const std::uint32_t kernel = read_u32(in, path);
  if (kernel > 2) throw IoError("invalid kernel id in " + path);
  cfg.kernel = static_cast<optics::KernelType>(kernel);
  cfg.pad2x = read_u32(in, path) != 0;
  cfg.num_layers = read_u32(in, path);
  cfg.num_classes = read_u32(in, path);
  cfg.detector_size = read_u32(in, path);
  if (version >= 2) {
    const std::uint32_t mode = read_u32(in, path);
    if (mode > 1) throw IoError("invalid detector mode in " + path);
    cfg.detector = static_cast<DetectorMode>(mode);
  }  // v1 checkpoints predate detector modes: Standard.
  if (cfg.num_layers == 0 || cfg.num_layers > 64) {
    throw IoError("implausible layer count in " + path);
  }
  if (cfg.num_classes < 1 || cfg.num_classes > kMaxClasses) {
    throw IoError("class count outside [1, " + std::to_string(kMaxClasses) +
                  "] in " + path);
  }
  if (cfg.detector_size < 1 || cfg.detector_size > cfg.grid.n) {
    throw IoError("detector size outside [1, grid size] in " + path);
  }

  const std::uint32_t stored_layers = read_u32(in, path);
  if (stored_layers != cfg.num_layers) {
    throw IoError("layer count mismatch in " + path);
  }
  // At most 64 layers of 4096^2 pixels: no product below overflows.
  const std::uint64_t pixels = std::uint64_t{stored_layers} * cfg.grid.n *
                               cfg.grid.n;
  check_payload(in, pixels * sizeof(double) + 1, "phases and mask flag",
                path);

  Rng rng(0);  // immediately overwritten by set_phases
  DonnModel model(cfg, rng);
  std::vector<MatrixD> phases;
  phases.reserve(stored_layers);
  for (std::uint32_t l = 0; l < stored_layers; ++l) {
    MatrixD phi(cfg.grid.n, cfg.grid.n);
    in.read(reinterpret_cast<char*>(phi.data()),
            static_cast<std::streamsize>(phi.size() * sizeof(double)));
    if (!in) throw IoError("truncated phase data in " + path);
    for (const double v : phi) {
      if (!std::isfinite(v)) {
        throw IoError("non-finite phase value in " + path);
      }
    }
    phases.push_back(std::move(phi));
  }

  std::uint8_t has_masks = 0;
  in.read(reinterpret_cast<char*>(&has_masks), 1);
  if (!in) throw IoError("truncated mask flag in " + path);
  std::vector<sparsify::SparsityMask> masks;
  if (has_masks != 0) {
    check_payload(in, pixels, "sparsity masks", path);
    masks.reserve(stored_layers);
    for (std::uint32_t l = 0; l < stored_layers; ++l) {
      sparsify::SparsityMask mask(cfg.grid.n, cfg.grid.n, 1);
      in.read(reinterpret_cast<char*>(mask.data()),
              static_cast<std::streamsize>(mask.size()));
      if (!in) throw IoError("truncated mask data in " + path);
      masks.push_back(std::move(mask));
    }
  }
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw IoError("trailing bytes after the mask block in " + path);
  }
  model.set_phases(std::move(phases));
  model.set_masks(std::move(masks));
  return model;
}

}  // namespace odonn::donn
