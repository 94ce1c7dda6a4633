#include "nn/distribution.hpp"

#include <cmath>
#include <stdexcept>

namespace afp::nn {

namespace {
constexpr float kNegInf = -1e9f;
}

MaskedCategorical::MaskedCategorical(const num::Tensor& logits,
                                     const std::vector<float>& mask) {
  if (logits.dim() != 2) {
    throw std::invalid_argument("MaskedCategorical: logits must be [B, N]");
  }
  batch_ = logits.shape()[0];
  n_ = logits.shape()[1];
  if (static_cast<std::int64_t>(mask.size()) != logits.size()) {
    throw std::invalid_argument("MaskedCategorical: mask size mismatch");
  }
  for (int b = 0; b < batch_; ++b) {
    bool any = false;
    for (int i = 0; i < n_; ++i)
      any = any || mask[static_cast<std::size_t>(b) * n_ + i] > 0.5f;
    if (!any) {
      throw std::invalid_argument(
          "MaskedCategorical: row " + std::to_string(b) +
          " has no valid action");
    }
  }
  // masked = logits * m + (1 - m) * (-1e9).  The multiplicative form keeps
  // gradients flowing only through valid entries.
  num::Tensor m = num::Tensor::from_vector(logits.shape(), mask);
  std::vector<float> offs(mask.size());
  for (std::size_t i = 0; i < mask.size(); ++i)
    offs[i] = (1.0f - mask[i]) * kNegInf;
  num::Tensor off = num::Tensor::from_vector(logits.shape(), std::move(offs));
  masked_logits_ = num::add(num::mul(logits, m), off);
  log_probs_ = num::log_softmax_rows(masked_logits_);
}

std::vector<int> MaskedCategorical::sample(std::mt19937_64& rng) const {
  std::vector<int> out(static_cast<std::size_t>(batch_));
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  for (int b = 0; b < batch_; ++b) {
    const float* lp = log_probs_.data() + static_cast<std::size_t>(b) * n_;
    double u = unif(rng);
    double cum = 0.0;
    int pick = -1;
    for (int i = 0; i < n_; ++i) {
      // A masked action's probability underflows to exactly 0; accepting
      // only positive ones keeps a draw of exactly 0.0 off index 0.
      const double p = std::exp(static_cast<double>(lp[i]));
      cum += p;
      if (p > 0.0 && u <= cum) {
        pick = i;
        break;
      }
    }
    if (pick < 0) {
      // Numerical tail: fall back to the most likely valid action.
      float best = kNegInf;
      for (int i = 0; i < n_; ++i)
        if (lp[i] > best) {
          best = lp[i];
          pick = i;
        }
    }
    out[static_cast<std::size_t>(b)] = pick;
  }
  return out;
}

std::vector<int> MaskedCategorical::mode() const {
  std::vector<int> out(static_cast<std::size_t>(batch_));
  for (int b = 0; b < batch_; ++b) {
    const float* lp = log_probs_.data() + static_cast<std::size_t>(b) * n_;
    int best = 0;
    for (int i = 1; i < n_; ++i)
      if (lp[i] > lp[best]) best = i;
    out[static_cast<std::size_t>(b)] = best;
  }
  return out;
}

num::Tensor MaskedCategorical::log_prob(const std::vector<int>& actions) const {
  return num::gather_per_row(log_probs_, actions);
}

num::Tensor MaskedCategorical::entropy() const {
  // H = -sum p log p.  For invalid entries p == 0 exactly (exp(-1e9 - lse)
  // underflows), so p * log p evaluates to -0 and contributes nothing.
  num::Tensor p = num::exp_op(log_probs_);
  return num::neg(num::sum_axis1(num::mul(p, log_probs_)));
}

}  // namespace afp::nn
