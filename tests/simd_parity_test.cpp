// Parity tests for the runtime-dispatched kernel tiers: every op with an
// AVX2 micro-kernel path must agree with the naive reference tier — forward
// AND backward — within 1e-4 relative, across odd/even/boundary sizes and
// for every selectable AFP_KERNEL_TIER value.  On hardware without AVX2 the
// avx2 tier resolves to scalar and the checks still run (trivially).
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "numeric/ops.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"
#include "numeric/tensor.hpp"

namespace afp::num {
namespace {

constexpr float kTol = 1e-4f;

/// Sizes that exercise the vector width boundaries: below, at, above one
/// 8-lane register, and around the 4-row / 16-column blocking.
const int kOddSizes[] = {1, 7, 8, 9, 63, 64, 65};

struct Eval {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

Eval evaluate(const std::function<Tensor(std::vector<Tensor>&)>& fn,
              std::vector<Tensor> inputs) {
  for (auto& t : inputs) t.zero_grad();
  Tensor out = fn(inputs);
  Tensor loss = sum_all(square(out));
  loss.backward();
  Eval e;
  e.out = out.values();
  for (auto& t : inputs) e.grads.push_back(t.grad());
  return e;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float bound = kTol * std::max(1.0f, std::abs(a[i]));
    ASSERT_NEAR(a[i], b[i], bound) << what << " at " << i;
  }
}

/// Runs the graph under the naive reference tier, then under every fast
/// tier, and requires matching forwards and gradients.
void tier_parity_check(const std::function<Tensor(std::vector<Tensor>&)>& fn,
                       const std::vector<Tensor>& inputs,
                       const std::string& what) {
  const KernelTier entry = kernel_tier();  // restore the ambient tier after
  set_kernel_tier(KernelTier::kNaive);
  const Eval ref = evaluate(fn, inputs);
  for (const KernelTier tier :
       {KernelTier::kScalar, KernelTier::kAvx2, KernelTier::kAuto}) {
    set_kernel_tier(tier);
    const Eval got = evaluate(fn, inputs);
    const std::string ctx = what + " [" + kernel_tier_name(kernel_tier()) + "]";
    expect_close(ref.out, got.out, ctx + " forward");
    for (std::size_t i = 0; i < ref.grads.size(); ++i)
      expect_close(ref.grads[i], got.grads[i],
                   ctx + " grad of input " + std::to_string(i));
  }
  set_kernel_tier(entry);
}

std::mt19937_64 rng_fixed() { return std::mt19937_64(4321); }

TEST(KernelTier, ParseAndNames) {
  KernelTier t;
  EXPECT_TRUE(parse_kernel_tier("naive", &t));
  EXPECT_EQ(t, KernelTier::kNaive);
  EXPECT_TRUE(parse_kernel_tier("scalar", &t));
  EXPECT_EQ(t, KernelTier::kScalar);
  EXPECT_TRUE(parse_kernel_tier("avx2", &t));
  EXPECT_EQ(t, KernelTier::kAvx2);
  EXPECT_TRUE(parse_kernel_tier("auto", &t));
  EXPECT_EQ(t, KernelTier::kAuto);
  EXPECT_FALSE(parse_kernel_tier("sse9", &t));
  EXPECT_FALSE(parse_kernel_tier(nullptr, &t));
  EXPECT_STREQ(kernel_tier_name(KernelTier::kScalar), "scalar");
}

TEST(KernelTier, NaiveToggleInterop) {
  const KernelTier entry = kernel_tier();
  set_kernel_tier(KernelTier::kNaive);
  EXPECT_EQ(kernel_tier(), KernelTier::kNaive);
  set_kernel_tier(KernelTier::kAuto);
  // Resolved tier is never kAuto, and avx2 only when the CPU has it.
  EXPECT_NE(kernel_tier(), KernelTier::kAuto);
  if (kernel_tier() == KernelTier::kAvx2) {
    EXPECT_TRUE(cpu_supports_avx2());
  }
  set_kernel_tier(entry);
}

TEST(SimdParity, MatmulOddSizes) {
  auto rng = rng_fixed();
  for (const int m : kOddSizes) {
    for (const int k : kOddSizes) {
      for (const int n : kOddSizes) {
        // Full fwd+bwd covers gemm_nn (forward), gemm_nt (dA) and
        // gemm_tn (dB) at this shape.
        std::vector<Tensor> in{Tensor::randn({m, k}, rng, 1.0f, true),
                               Tensor::randn({k, n}, rng, 1.0f, true)};
        tier_parity_check(
            [](std::vector<Tensor>& v) { return matmul(v[0], v[1]); }, in,
            "matmul " + std::to_string(m) + "x" + std::to_string(k) + "x" +
                std::to_string(n));
      }
    }
  }
}

TEST(SimdParity, LinearAndFusedLinearRelu) {
  auto rng = rng_fixed();
  for (const int b : {1, 7, 33}) {
    for (const int n : kOddSizes) {
      std::vector<Tensor> in{Tensor::randn({b, 24}, rng, 1.0f, true),
                             Tensor::randn({24, n}, rng, 0.5f, true),
                             Tensor::randn({n}, rng, 0.5f, true)};
      const std::string sz = std::to_string(b) + "x24x" + std::to_string(n);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return linear(v[0], v[1], v[2]); }, in,
          "linear " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return linear_relu(v[0], v[1], v[2]); },
          in, "linear_relu " + sz);
    }
  }
}

TEST(SimdParity, ElementwiseOddSizes) {
  auto rng = rng_fixed();
  for (const int r : kOddSizes) {
    for (const int c : {1, 9, 65}) {
      const std::string sz = std::to_string(r) + "x" + std::to_string(c);
      std::vector<Tensor> two{Tensor::randn({r, c}, rng, 1.0f, true),
                              Tensor::randn({r, c}, rng, 1.0f, true)};
      tier_parity_check(
          [](std::vector<Tensor>& v) { return add(v[0], v[1]); }, two,
          "add " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return sub(v[0], v[1]); }, two,
          "sub " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return mul(v[0], v[1]); }, two,
          "mul " + sz);
      std::vector<Tensor> one{Tensor::randn({r, c}, rng, 1.0f, true)};
      tier_parity_check(
          [](std::vector<Tensor>& v) { return relu(v[0]); }, one,
          "relu " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return mul_scalar(v[0], -1.7f); }, one,
          "mul_scalar " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return add_scalar(v[0], 0.3f); }, one,
          "add_scalar " + sz);
      std::vector<Tensor> rowvec{Tensor::randn({r, c}, rng, 1.0f, true),
                                 Tensor::randn({c}, rng, 1.0f, true)};
      tier_parity_check(
          [](std::vector<Tensor>& v) { return add_rowvec(v[0], v[1]); },
          rowvec, "add_rowvec " + sz);
    }
  }
}

TEST(SimdParity, SoftmaxAndReductionsOddSizes) {
  auto rng = rng_fixed();
  for (const int r : {1, 8, 63}) {
    for (const int c : kOddSizes) {
      const std::string sz = std::to_string(r) + "x" + std::to_string(c);
      std::vector<Tensor> in{Tensor::randn({r, c}, rng, 2.0f, true)};
      tier_parity_check(
          [](std::vector<Tensor>& v) { return softmax_rows(v[0]); }, in,
          "softmax_rows " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return log_softmax_rows(v[0]); }, in,
          "log_softmax_rows " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return sum_axis1(v[0]); }, in,
          "sum_axis1 " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return mean_axis0(v[0]); }, in,
          "mean_axis0 " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return sum_all(v[0]); }, in,
          "sum_all " + sz);
      tier_parity_check(
          [](std::vector<Tensor>& v) { return mean_all(v[0]); }, in,
          "mean_all " + sz);
    }
  }
}

TEST(SimdParity, ConvolutionsAcrossBatchSizes) {
  // Covers the tiered GEMM inside the im2col lowering and the batch-split
  // dW accumulation (batched for B > 1, plain contraction for B == 1).
  auto rng = rng_fixed();
  struct Case { int b, ic, h, w, oc, k, stride, pad; };
  const Case cases[] = {
      {1, 1, 5, 5, 2, 3, 1, 0},
      {2, 2, 7, 9, 4, 3, 2, 1},
      {3, 3, 8, 8, 5, 5, 1, 2},
      {5, 4, 9, 7, 3, 3, 1, 1},
  };
  for (const auto& c : cases) {
    std::vector<Tensor> in{
        Tensor::randn({c.b, c.ic, c.h, c.w}, rng, 1.0f, true),
        Tensor::randn({c.oc, c.ic, c.k, c.k}, rng, 0.4f, true),
        Tensor::randn({c.oc}, rng, 0.4f, true)};
    tier_parity_check(
        [c](std::vector<Tensor>& v) {
          return conv2d(v[0], v[1], v[2], c.stride, c.pad);
        },
        in, "conv2d b" + std::to_string(c.b));
  }
  const Case dcases[] = {
      {1, 2, 3, 3, 2, 4, 2, 1},
      {3, 3, 5, 4, 4, 3, 1, 0},
      {4, 1, 4, 6, 2, 5, 2, 2},
  };
  for (const auto& c : dcases) {
    std::vector<Tensor> in{
        Tensor::randn({c.b, c.ic, c.h, c.w}, rng, 1.0f, true),
        Tensor::randn({c.ic, c.oc, c.k, c.k}, rng, 0.4f, true),
        Tensor::randn({c.oc}, rng, 0.4f, true)};
    tier_parity_check(
        [c](std::vector<Tensor>& v) {
          return conv_transpose2d(v[0], v[1], v[2], c.stride, c.pad);
        },
        in, "conv_transpose2d b" + std::to_string(c.b));
  }
}

TEST(SimdParity, TiersAreThreadCountInvariant) {
  // Within each tier, a mixed GEMM + conv + fused-linear + softmax graph
  // must produce bitwise-identical gradients for 1 vs 4 threads (the conv
  // dW path accumulates per image in a fixed order for exactly this).
  auto make_inputs = [] {
    auto rng = rng_fixed();
    return std::vector<Tensor>{
        Tensor::randn({33, 40}, rng, 1.0f, true),
        Tensor::randn({40, 17}, rng, 1.0f, true),
        Tensor::randn({4, 3, 16, 16}, rng, 1.0f, true),
        Tensor::randn({6, 3, 3, 3}, rng, 0.3f, true),
        Tensor::randn({6}, rng, 0.3f, true),
        Tensor::randn({17}, rng, 0.5f, true),
    };
  };
  auto graph = [](std::vector<Tensor>& v) {
    Tensor fused = linear_relu(v[0], v[1], v[5]);
    Tensor sm = softmax_rows(fused);
    Tensor cv = conv2d(v[2], v[3], v[4], 1, 1);
    return add(sum_all(square(sm)), sum_all(square(cv)));
  };
  const KernelTier entry = kernel_tier();
  for (const KernelTier tier : {KernelTier::kScalar, KernelTier::kAvx2}) {
    set_kernel_tier(tier);
    auto run = [&](int threads) {
      set_num_threads(threads);
      auto in = make_inputs();
      for (auto& t : in) t.zero_grad();
      graph(in).backward();
      std::vector<std::vector<float>> grads;
      for (auto& t : in) grads.push_back(t.grad());
      return grads;
    };
    const auto g1 = run(1);
    const auto g4 = run(4);
    set_num_threads(0);
    ASSERT_EQ(g1.size(), g4.size());
    for (std::size_t t = 0; t < g1.size(); ++t) {
      ASSERT_EQ(g1[t].size(), g4[t].size());
      for (std::size_t i = 0; i < g1[t].size(); ++i)
        ASSERT_EQ(g1[t][i], g4[t][i])
            << kernel_tier_name(kernel_tier()) << " input " << t << " coord "
            << i;
    }
  }
  set_kernel_tier(entry);
}

}  // namespace
}  // namespace afp::num
