#include "data/synthetic.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.hpp"

namespace odonn::data {

namespace {

constexpr double kPi = M_PI;

// Glyph side (the paper's datasets are 28x28), then each sample's jitter
// and noise.
constexpr std::size_t kImageSize = 28;
constexpr double kNoiseSigma = 0.03;       ///< additive Gaussian pixel noise
constexpr double kMaxShift = 0.08;         ///< translation jitter (fraction)
constexpr double kMaxRotate = 0.22;        ///< rotation jitter [rad]
constexpr double kScaleJitter = 0.12;      ///< multiplicative scale jitter
constexpr double kThicknessJitter = 0.35;  ///< stroke thickness jitter

/// Point in glyph coordinates: the unit square [0,1]^2, origin top-left.
struct Pt {
  double x;
  double y;
};

/// Affine jitter applied to glyph control points around the glyph center.
struct Jitter {
  double angle = 0.0;
  double scale = 1.0;
  double dx = 0.0;
  double dy = 0.0;
  double thickness = 1.0;

  Pt apply(const Pt& p) const {
    const double cx = p.x - 0.5;
    const double cy = p.y - 0.5;
    const double ca = std::cos(angle);
    const double sa = std::sin(angle);
    return {0.5 + scale * (ca * cx - sa * cy) + dx,
            0.5 + scale * (sa * cx + ca * cy) + dy};
  }
};

/// Grayscale canvas with soft-edged stroke stamping.
class Canvas {
 public:
  explicit Canvas(std::size_t n) : image_(n, n, 0.0), n_(n) {}

  MatrixD take() { return std::move(image_); }

  /// Stamps a disc of radius `r` (unit coordinates) at p, soft 0.7px edge.
  void stamp(const Pt& p, double r) {
    const double size = static_cast<double>(n_);
    const double px = p.x * size;
    const double py = p.y * size;
    const double pr = r * size;
    const double aa = 0.7;
    const long lo_r = static_cast<long>(std::floor(py - pr - 1.0));
    const long hi_r = static_cast<long>(std::ceil(py + pr + 1.0));
    const long lo_c = static_cast<long>(std::floor(px - pr - 1.0));
    const long hi_c = static_cast<long>(std::ceil(px + pr + 1.0));
    for (long rr = std::max(0L, lo_r);
         rr <= std::min(static_cast<long>(n_) - 1, hi_r); ++rr) {
      for (long cc = std::max(0L, lo_c);
           cc <= std::min(static_cast<long>(n_) - 1, hi_c); ++cc) {
        const double d = std::hypot(static_cast<double>(cc) + 0.5 - px,
                                    static_cast<double>(rr) + 0.5 - py);
        double v = 0.0;
        if (d <= pr) {
          v = 1.0;
        } else if (d < pr + aa) {
          v = 1.0 - (d - pr) / aa;
        }
        auto& cell = image_(static_cast<std::size_t>(rr),
                            static_cast<std::size_t>(cc));
        cell = std::max(cell, v);
      }
    }
  }

  void line(const Pt& a, const Pt& b, double thickness) {
    const double len = std::hypot(b.x - a.x, b.y - a.y);
    const std::size_t steps =
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     len * static_cast<double>(n_) * 2.0));
    for (std::size_t i = 0; i <= steps; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(steps);
      stamp({a.x + t * (b.x - a.x), a.y + t * (b.y - a.y)}, thickness / 2.0);
    }
  }

  /// Elliptical arc centered at c with radii (rx, ry), angles in radians
  /// (0 = +x axis, increasing clockwise in image coordinates).
  void arc(const Pt& c, double rx, double ry, double a0, double a1,
           double thickness, const Jitter& jit) {
    const std::size_t steps = 96;
    for (std::size_t i = 0; i <= steps; ++i) {
      const double t = a0 + (a1 - a0) * static_cast<double>(i) /
                                static_cast<double>(steps);
      const Pt p = jit.apply({c.x + rx * std::cos(t), c.y + ry * std::sin(t)});
      stamp(p, thickness / 2.0);
    }
  }

  /// Quadratic Bezier through control points (jitter already applied by
  /// callers passing transformed points).
  void bezier(const Pt& p0, const Pt& p1, const Pt& p2, double thickness) {
    const std::size_t steps = 64;
    for (std::size_t i = 0; i <= steps; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(steps);
      const double u = 1.0 - t;
      stamp({u * u * p0.x + 2.0 * u * t * p1.x + t * t * p2.x,
             u * u * p0.y + 2.0 * u * t * p1.y + t * t * p2.y},
            thickness / 2.0);
    }
  }

  /// Fills the convex/concave polygon (even-odd scanline).
  void fill_polygon(const std::vector<Pt>& pts) {
    if (pts.size() < 3) return;
    const double size = static_cast<double>(n_);
    for (std::size_t row = 0; row < n_; ++row) {
      const double y = (static_cast<double>(row) + 0.5) / size;
      std::vector<double> xs;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const Pt& a = pts[i];
        const Pt& b = pts[(i + 1) % pts.size()];
        if ((a.y <= y && b.y > y) || (b.y <= y && a.y > y)) {
          xs.push_back(a.x + (y - a.y) / (b.y - a.y) * (b.x - a.x));
        }
      }
      std::sort(xs.begin(), xs.end());
      for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
        const long c0 = std::max(0L, static_cast<long>(std::ceil(xs[i] * size - 0.5)));
        const long c1 = std::min(static_cast<long>(n_) - 1,
                                 static_cast<long>(std::floor(xs[i + 1] * size - 0.5)));
        for (long c = c0; c <= c1; ++c) {
          image_(row, static_cast<std::size_t>(c)) = 1.0;
        }
      }
    }
  }

  void fill_polygon(const std::vector<Pt>& pts, const Jitter& jit) {
    std::vector<Pt> transformed;
    transformed.reserve(pts.size());
    for (const auto& p : pts) transformed.push_back(jit.apply(p));
    fill_polygon(transformed);
  }

 private:
  MatrixD image_;
  std::size_t n_;
};

// ---------------------------------------------------------------------------
// Glyph programs. All coordinates in [0,1]^2 with a ~0.12 margin.
// ---------------------------------------------------------------------------

void draw_digit(Canvas& cv, std::size_t cls, const Jitter& j, double th) {
  auto L = [&](Pt a, Pt b) { cv.line(j.apply(a), j.apply(b), th); };
  auto B = [&](Pt a, Pt c, Pt b) { cv.bezier(j.apply(a), j.apply(c), j.apply(b), th); };
  switch (cls) {
    case 0:
      cv.arc({0.5, 0.5}, 0.22, 0.32, 0.0, 2.0 * kPi, th, j);
      break;
    case 1:
      L({0.42, 0.28}, {0.55, 0.16});
      L({0.55, 0.16}, {0.55, 0.84});
      break;
    case 2:
      cv.arc({0.5, 0.34}, 0.20, 0.18, -kPi, 0.12, th, j);
      L({0.68, 0.40}, {0.32, 0.82});
      L({0.32, 0.82}, {0.72, 0.82});
      break;
    case 3:
      cv.arc({0.48, 0.33}, 0.18, 0.17, -kPi * 0.9, kPi * 0.5, th, j);
      cv.arc({0.48, 0.66}, 0.20, 0.18, -kPi * 0.5, kPi * 0.9, th, j);
      break;
    case 4:
      L({0.62, 0.16}, {0.30, 0.62});
      L({0.30, 0.62}, {0.74, 0.62});
      L({0.62, 0.16}, {0.62, 0.84});
      break;
    case 5:
      L({0.68, 0.18}, {0.36, 0.18});
      L({0.36, 0.18}, {0.34, 0.48});
      cv.arc({0.50, 0.64}, 0.19, 0.19, -kPi * 0.55, kPi * 0.75, th, j);
      break;
    case 6:
      B({0.62, 0.16}, {0.34, 0.30}, {0.34, 0.62});
      cv.arc({0.51, 0.65}, 0.17, 0.17, 0.0, 2.0 * kPi, th, j);
      break;
    case 7:
      L({0.30, 0.18}, {0.70, 0.18});
      L({0.70, 0.18}, {0.42, 0.84});
      break;
    case 8:
      cv.arc({0.5, 0.33}, 0.16, 0.15, 0.0, 2.0 * kPi, th, j);
      cv.arc({0.5, 0.66}, 0.19, 0.17, 0.0, 2.0 * kPi, th, j);
      break;
    case 9:
      cv.arc({0.50, 0.35}, 0.17, 0.17, 0.0, 2.0 * kPi, th, j);
      B({0.67, 0.38}, {0.66, 0.66}, {0.46, 0.84});
      break;
    default:
      throw ConfigError("digit class out of range");
  }
}

void draw_fashion(Canvas& cv, std::size_t cls, const Jitter& j, double th) {
  auto P = [&](std::initializer_list<Pt> pts) {
    cv.fill_polygon(std::vector<Pt>(pts), j);
  };
  auto L = [&](Pt a, Pt b) { cv.line(j.apply(a), j.apply(b), th); };
  switch (cls) {
    case 0:  // t-shirt: torso + short sleeves
      P({{0.36, 0.30}, {0.64, 0.30}, {0.62, 0.78}, {0.38, 0.78}});
      P({{0.22, 0.30}, {0.40, 0.26}, {0.42, 0.44}, {0.26, 0.46}});
      P({{0.60, 0.26}, {0.78, 0.30}, {0.74, 0.46}, {0.58, 0.44}});
      break;
    case 1:  // trouser: two legs from a waistband
      P({{0.36, 0.20}, {0.64, 0.20}, {0.64, 0.30}, {0.36, 0.30}});
      P({{0.36, 0.30}, {0.49, 0.30}, {0.47, 0.84}, {0.36, 0.84}});
      P({{0.51, 0.30}, {0.64, 0.30}, {0.64, 0.84}, {0.53, 0.84}});
      break;
    case 2:  // pullover: torso + long sleeves
      P({{0.36, 0.28}, {0.64, 0.28}, {0.63, 0.80}, {0.37, 0.80}});
      P({{0.20, 0.30}, {0.38, 0.26}, {0.38, 0.72}, {0.24, 0.74}});
      P({{0.62, 0.26}, {0.80, 0.30}, {0.76, 0.74}, {0.62, 0.72}});
      break;
    case 3:  // dress: fitted top flaring out
      P({{0.42, 0.18}, {0.58, 0.18}, {0.56, 0.42}, {0.72, 0.84},
         {0.28, 0.84}, {0.44, 0.42}});
      break;
    case 4:  // coat: long body, open front line
      P({{0.34, 0.24}, {0.66, 0.24}, {0.68, 0.84}, {0.32, 0.84}});
      L({0.50, 0.26}, {0.50, 0.82});
      P({{0.20, 0.26}, {0.36, 0.24}, {0.34, 0.66}, {0.22, 0.66}});
      P({{0.64, 0.24}, {0.80, 0.26}, {0.78, 0.66}, {0.66, 0.66}});
      break;
    case 5:  // sandal: sole + two straps
      P({{0.20, 0.68}, {0.80, 0.68}, {0.82, 0.78}, {0.18, 0.78}});
      L({0.30, 0.68}, {0.44, 0.48});
      L({0.44, 0.48}, {0.58, 0.68});
      L({0.62, 0.52}, {0.72, 0.68});
      break;
    case 6:  // shirt: torso + collar V + buttons line
      P({{0.36, 0.26}, {0.64, 0.26}, {0.63, 0.80}, {0.37, 0.80}});
      L({0.44, 0.26}, {0.50, 0.36});
      L({0.56, 0.26}, {0.50, 0.36});
      L({0.50, 0.38}, {0.50, 0.78});
      break;
    case 7:  // sneaker: low wedge
      P({{0.18, 0.62}, {0.52, 0.56}, {0.66, 0.44}, {0.82, 0.60},
         {0.82, 0.74}, {0.18, 0.74}});
      break;
    case 8:  // bag: body + handle
      P({{0.28, 0.44}, {0.72, 0.44}, {0.74, 0.80}, {0.26, 0.80}});
      cv.arc({0.5, 0.42}, 0.14, 0.16, -kPi, 0.0, th, j);
      break;
    case 9:  // ankle boot: shaft + foot
      P({{0.40, 0.22}, {0.58, 0.22}, {0.58, 0.56}, {0.78, 0.64},
         {0.78, 0.78}, {0.40, 0.78}});
      break;
    default:
      throw ConfigError("fashion class out of range");
  }
}

void draw_kana(Canvas& cv, std::size_t cls, const Jitter& j, double th) {
  auto L = [&](Pt a, Pt b) { cv.line(j.apply(a), j.apply(b), th); };
  auto B = [&](Pt a, Pt c, Pt b) { cv.bezier(j.apply(a), j.apply(c), j.apply(b), th); };
  switch (cls) {
    case 0:  // o-like: cross + sweeping loop
      L({0.50, 0.16}, {0.50, 0.60});
      L({0.28, 0.34}, {0.72, 0.34});
      B({0.50, 0.60}, {0.24, 0.86}, {0.40, 0.62});
      B({0.50, 0.60}, {0.80, 0.70}, {0.58, 0.86});
      break;
    case 1:  // ki-like: two bars + curved tail
      L({0.30, 0.28}, {0.72, 0.22});
      L({0.28, 0.44}, {0.74, 0.38});
      L({0.54, 0.14}, {0.48, 0.66});
      B({0.48, 0.66}, {0.44, 0.88}, {0.66, 0.80});
      break;
    case 2:  // su-like: bar + loop with long tail
      L({0.26, 0.30}, {0.76, 0.30});
      B({0.56, 0.30}, {0.70, 0.52}, {0.48, 0.56});
      B({0.48, 0.56}, {0.30, 0.60}, {0.52, 0.40});
      B({0.52, 0.46}, {0.54, 0.72}, {0.40, 0.88});
      break;
    case 3:  // tsu-like: three dots + sweeping arc
      cv.arc({0.5, 0.42}, 0.30, 0.26, 0.15 * kPi, 0.85 * kPi, th, j);
      L({0.28, 0.26}, {0.32, 0.36});
      L({0.46, 0.20}, {0.48, 0.32});
      L({0.64, 0.22}, {0.62, 0.34});
      break;
    case 4:  // na-like: cross + hook + dot
      L({0.34, 0.24}, {0.34, 0.62});
      L({0.20, 0.40}, {0.50, 0.34});
      B({0.62, 0.28}, {0.58, 0.60}, {0.46, 0.80});
      L({0.66, 0.56}, {0.70, 0.70});
      break;
    case 5:  // ha-like: vertical + branching curve
      L({0.32, 0.20}, {0.32, 0.80});
      B({0.32, 0.48}, {0.56, 0.30}, {0.70, 0.22});
      B({0.32, 0.52}, {0.60, 0.56}, {0.68, 0.84});
      break;
    case 6:  // ma-like: two bars + loop tail
      L({0.26, 0.28}, {0.74, 0.28});
      L({0.30, 0.46}, {0.70, 0.46});
      L({0.52, 0.16}, {0.52, 0.64});
      cv.arc({0.48, 0.72}, 0.10, 0.09, 0.0, 2.0 * kPi, th, j);
      break;
    case 7:  // ya-like: slanted loop + crossing stroke
      B({0.30, 0.36}, {0.54, 0.14}, {0.70, 0.34});
      B({0.70, 0.34}, {0.60, 0.52}, {0.40, 0.50});
      L({0.46, 0.22}, {0.56, 0.86});
      break;
    case 8:  // re-like: vertical + angular sweep
      L({0.34, 0.18}, {0.34, 0.82});
      L({0.34, 0.40}, {0.62, 0.24});
      B({0.62, 0.24}, {0.66, 0.60}, {0.74, 0.82});
      break;
    case 9:  // wo-like: bar + zigzag + arc
      L({0.28, 0.26}, {0.72, 0.26});
      L({0.52, 0.26}, {0.36, 0.52});
      L({0.36, 0.52}, {0.62, 0.50});
      B({0.62, 0.50}, {0.56, 0.78}, {0.36, 0.84});
      break;
    default:
      throw ConfigError("kana class out of range");
  }
}

void draw_letter(Canvas& cv, std::size_t cls, const Jitter& j, double th) {
  auto L = [&](Pt a, Pt b) { cv.line(j.apply(a), j.apply(b), th); };
  switch (cls) {
    case 0:  // A
      L({0.30, 0.84}, {0.50, 0.16});
      L({0.50, 0.16}, {0.70, 0.84});
      L({0.38, 0.58}, {0.62, 0.58});
      break;
    case 1:  // B
      L({0.34, 0.16}, {0.34, 0.84});
      cv.arc({0.36, 0.33}, 0.18, 0.17, -kPi / 2.0, kPi / 2.0, th, j);
      cv.arc({0.36, 0.67}, 0.21, 0.17, -kPi / 2.0, kPi / 2.0, th, j);
      break;
    case 2:  // C
      cv.arc({0.54, 0.50}, 0.24, 0.32, kPi * 0.3, kPi * 1.7, th, j);
      break;
    case 3:  // D
      L({0.34, 0.16}, {0.34, 0.84});
      cv.arc({0.36, 0.50}, 0.26, 0.34, -kPi / 2.0, kPi / 2.0, th, j);
      break;
    case 4:  // E
      L({0.34, 0.16}, {0.34, 0.84});
      L({0.34, 0.16}, {0.68, 0.16});
      L({0.34, 0.50}, {0.62, 0.50});
      L({0.34, 0.84}, {0.68, 0.84});
      break;
    case 5:  // F
      L({0.34, 0.16}, {0.34, 0.84});
      L({0.34, 0.16}, {0.68, 0.16});
      L({0.34, 0.50}, {0.62, 0.50});
      break;
    case 6:  // G
      cv.arc({0.52, 0.50}, 0.24, 0.32, kPi * 0.3, kPi * 1.75, th, j);
      L({0.76, 0.56}, {0.56, 0.56});
      L({0.74, 0.56}, {0.74, 0.74});
      break;
    case 7:  // H
      L({0.32, 0.16}, {0.32, 0.84});
      L({0.68, 0.16}, {0.68, 0.84});
      L({0.32, 0.50}, {0.68, 0.50});
      break;
    case 8:  // I
      L({0.40, 0.16}, {0.60, 0.16});
      L({0.50, 0.16}, {0.50, 0.84});
      L({0.40, 0.84}, {0.60, 0.84});
      break;
    case 9:  // J
      L({0.44, 0.16}, {0.70, 0.16});
      L({0.60, 0.16}, {0.60, 0.66});
      cv.arc({0.46, 0.66}, 0.14, 0.16, 0.0, kPi, th, j);
      break;
    default:
      throw ConfigError("letter class out of range");
  }
}

}  // namespace

SyntheticFamily parse_family(const std::string& name) {
  std::string low(name.size(), '\0');
  std::transform(name.begin(), name.end(), low.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (low == "digits" || low == "mnist") return SyntheticFamily::Digits;
  if (low == "fashion" || low == "fmnist") return SyntheticFamily::Fashion;
  if (low == "kana" || low == "kmnist") return SyntheticFamily::Kana;
  if (low == "letters" || low == "emnist") return SyntheticFamily::Letters;
  throw ConfigError("unknown synthetic family '" + name + "'");
}

const char* family_name(SyntheticFamily family) {
  switch (family) {
    case SyntheticFamily::Digits: return "digits";
    case SyntheticFamily::Fashion: return "fashion";
    case SyntheticFamily::Kana: return "kana";
    case SyntheticFamily::Letters: return "letters";
  }
  return "?";
}

MatrixD render_glyph(SyntheticFamily family, std::size_t cls, Rng& rng) {
  ODONN_CHECK(cls < 10, "render_glyph: class must be 0-9");

  Jitter jit;
  jit.angle = rng.uniform(-kMaxRotate, kMaxRotate);
  jit.scale = 1.0 + rng.uniform(-kScaleJitter, kScaleJitter);
  jit.dx = rng.uniform(-kMaxShift, kMaxShift);
  jit.dy = rng.uniform(-kMaxShift, kMaxShift);
  jit.thickness = 1.0 + rng.uniform(-kThicknessJitter, kThicknessJitter);

  const double th = 0.055 * jit.thickness * jit.scale;
  Canvas canvas(kImageSize);
  switch (family) {
    case SyntheticFamily::Digits: draw_digit(canvas, cls, jit, th); break;
    case SyntheticFamily::Fashion: draw_fashion(canvas, cls, jit, th); break;
    case SyntheticFamily::Kana: draw_kana(canvas, cls, jit, th); break;
    case SyntheticFamily::Letters: draw_letter(canvas, cls, jit, th); break;
  }

  MatrixD image = canvas.take();
  for (std::size_t i = 0; i < image.size(); ++i) {
    image[i] = std::clamp(image[i] + rng.normal(0.0, kNoiseSigma), 0.0, 1.0);
  }
  return image;
}

Dataset make_synthetic(SyntheticFamily family, std::size_t count,
                       std::uint64_t seed) {
  ODONN_CHECK(count >= 1, "make_synthetic: count must be >= 1");
  Rng rng(seed);
  std::vector<std::size_t> labels(count);
  for (std::size_t i = 0; i < count; ++i) labels[i] = i % 10;
  rng.shuffle(labels);

  std::vector<MatrixD> images;
  images.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    images.push_back(render_glyph(family, labels[i], rng));
  }
  return Dataset(std::move(images), std::move(labels), 10);
}

}  // namespace odonn::data
