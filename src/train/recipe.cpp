#include "train/recipe.hpp"

#include <algorithm>
#include <cctype>

#include "common/error.hpp"

namespace odonn::train {

const char* recipe_name(RecipeKind kind) {
  switch (kind) {
    case RecipeKind::Baseline: return "baseline";
    case RecipeKind::OursA: return "ours-a";
    case RecipeKind::OursB: return "ours-b";
    case RecipeKind::OursC: return "ours-c";
    case RecipeKind::OursD: return "ours-d";
  }
  return "?";
}

RecipeKind parse_recipe(const std::string& name) {
  std::string low(name.size(), '\0');
  std::transform(name.begin(), name.end(), low.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (low == "baseline") return RecipeKind::Baseline;
  if (low == "ours-a" || low == "a") return RecipeKind::OursA;
  if (low == "ours-b" || low == "b") return RecipeKind::OursB;
  if (low == "ours-c" || low == "c") return RecipeKind::OursC;
  if (low == "ours-d" || low == "d") return RecipeKind::OursD;
  throw ConfigError("unknown recipe '" + name + "'");
}

}  // namespace odonn::train
