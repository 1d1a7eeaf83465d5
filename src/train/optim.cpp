#include "train/optim.hpp"

#include <cmath>

#include "common/error.hpp"

namespace odonn::train {

namespace {

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;

void ensure_state(std::vector<MatrixD>& state,
                  const std::vector<MatrixD>& params) {
  if (state.size() == params.size()) return;
  state.clear();
  state.reserve(params.size());
  for (const auto& p : params) state.emplace_back(p.rows(), p.cols(), 0.0);
}

}  // namespace

Adam::Adam(double lr) : lr_(lr) {
  ODONN_CHECK(lr > 0.0, "optimizer: learning rate must be positive");
}

void Adam::step(std::vector<MatrixD>& params,
                const std::vector<MatrixD>& grads) {
  ODONN_CHECK_SHAPE(params.size() == grads.size(),
                    "optimizer: parameter/gradient count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    ODONN_CHECK_SHAPE(params[i].same_shape(grads[i]),
                      "optimizer: parameter/gradient shape mismatch");
  }
  ensure_state(m_, params);
  ensure_state(v_, params);
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    for (std::size_t j = 0; j < params[i].size(); ++j) {
      const double g = grads[i][j];
      m_[i][j] = kBeta1 * m_[i][j] + (1.0 - kBeta1) * g;
      v_[i][j] = kBeta2 * v_[i][j] + (1.0 - kBeta2) * g * g;
      const double mhat = m_[i][j] / bc1;
      const double vhat = v_[i][j] / bc2;
      params[i][j] -= lr_ * (mhat / (std::sqrt(vhat) + kEps));
    }
  }
}

}  // namespace odonn::train
