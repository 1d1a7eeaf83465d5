#include "fab/spec.hpp"

#include <cmath>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/config.hpp"
#include "common/error.hpp"

namespace odonn::fab {

const char* const kDefaultPerturbationSpec =
    "roughness(sigma_um=0.05,corr=2)+quantize(levels=16)+misalign("
    "sigma_px=0.25)";

namespace {

using Args = std::map<std::string, double>;

double parse_number(const std::string& token, const std::string& context) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    throw ConfigError("perturbation spec: cannot parse '" + token +
                      "' as a number in " + context);
  }
  if (!std::isfinite(value)) {
    throw ConfigError("perturbation spec: '" + token + "' is not finite in " +
                      context);
  }
  return value;
}

/// Splits "name(k=v,k=v)" into the name and a parsed argument map.
std::pair<std::string, Args> parse_model_token(const std::string& token) {
  const auto paren = token.find('(');
  std::string name = token.substr(0, paren);
  if (name.empty()) {
    throw ConfigError("perturbation spec: empty model name in '" + token +
                      "'");
  }
  Args args;
  if (paren != std::string::npos) {
    if (token.back() != ')') {
      throw ConfigError("perturbation spec: missing ')' in '" + token + "'");
    }
    const std::string body =
        token.substr(paren + 1, token.size() - paren - 2);
    if (!body.empty()) {
      for (const std::string& arg : split_csv(body)) {
        const auto eq = arg.find('=');
        if (eq == std::string::npos || eq == 0) {
          throw ConfigError("perturbation spec: expected key=value, got '" +
                            arg + "' in '" + token + "'");
        }
        args[arg.substr(0, eq)] =
            parse_number(arg.substr(eq + 1), "'" + token + "'");
      }
    }
  }
  return {std::move(name), std::move(args)};
}

/// Takes (and erases) one argument, so leftovers can be rejected.
double take(Args& args, const std::string& key, double dflt) {
  const auto it = args.find(key);
  if (it == args.end()) return dflt;
  const double value = it->second;
  args.erase(it);
  return value;
}

void reject_leftovers(const Args& args, const std::string& name) {
  if (args.empty()) return;
  throw ConfigError("perturbation spec: unknown argument '" +
                    args.begin()->first + "' for model '" + name + "'");
}

/// Optional per-layer restriction: layer=-1 (default) hits every mask,
/// layer=K only mask K of a multi-layer stack.
long take_layer(Args& args, const std::string& name) {
  const double layer = take(args, "layer", -1.0);
  if (!(layer >= -1.0 && layer <= 64.0 && layer == std::floor(layer))) {
    throw ConfigError("perturbation spec: " + name +
                      " layer must be an integer in [-1, 64]");
  }
  return static_cast<long>(layer);
}

std::unique_ptr<PerturbationModel> build_model(const std::string& name,
                                               Args args) {
  if (name == "roughness") {
    SurfaceRoughnessOptions options;
    options.sigma_um = take(args, "sigma_um", options.sigma_um);
    options.correlation_px = take(args, "corr", options.correlation_px);
    options.layer = take_layer(args, name);
    reject_leftovers(args, name);
    return std::make_unique<SurfaceRoughness>(options);
  }
  if (name == "quantize") {
    QuantizeLevelsOptions options;
    const double levels =
        take(args, "levels", static_cast<double>(options.levels));
    // Validate in double space: a negative or huge value cast to size_t is
    // undefined behavior, not a level count.
    if (!(levels >= 2.0 && levels <= 65536.0 &&
          levels == std::floor(levels))) {
      throw ConfigError(
          "perturbation spec: quantize levels must be an integer in "
          "[2, 65536]");
    }
    options.levels = static_cast<std::size_t>(levels);
    options.layer = take_layer(args, name);
    reject_leftovers(args, name);
    return std::make_unique<QuantizeLevels>(options);
  }
  if (name == "misalign") {
    MisalignmentOptions options;
    options.sigma_px = take(args, "sigma_px", options.sigma_px);
    reject_leftovers(args, name);
    return std::make_unique<LateralMisalignment>(options);
  }
  if (name == "detune") {
    WavelengthDetuneOptions options;
    options.sigma_rel = take(args, "sigma_rel", options.sigma_rel);
    reject_leftovers(args, name);
    return std::make_unique<WavelengthDetune>(options);
  }
  if (name == "ctjitter") {
    CrosstalkJitterOptions options;
    options.sigma = take(args, "sigma", options.sigma);
    reject_leftovers(args, name);
    return std::make_unique<CrosstalkJitter>(options);
  }
  throw ConfigError("perturbation spec: unknown model '" + name +
                    "' (expected roughness, quantize, misalign, detune or "
                    "ctjitter)");
}

}  // namespace

PerturbationStack parse_perturbation_stack(const std::string& spec) {
  // Split on '+' at parenthesis depth 0 only: strtod numbers like "1e+3"
  // or "+0.5" are legal inside an argument list.
  std::vector<std::string> tokens;
  std::string current;
  int depth = 0;
  for (const char c : spec) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == '+' && depth == 0) {
      tokens.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  tokens.push_back(current);

  PerturbationStack stack;
  for (const std::string& token : tokens) {
    if (token.empty()) {
      throw ConfigError("perturbation spec: empty model entry in '" + spec +
                        "'");
    }
    auto [name, args] = parse_model_token(token);
    stack.push_back(build_model(name, std::move(args)));
  }
  return stack;
}

}  // namespace odonn::fab
