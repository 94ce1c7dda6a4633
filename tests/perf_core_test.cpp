// Parity and determinism tests for the performance core: the blocked GEMM,
// im2col convolutions and CSR SpMM must agree with the scalar reference
// kernels (forward AND backward) within 1e-4, and results must be
// identical for any thread-pool size.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>
#include <tuple>
#include <vector>

#include "nn/rgcn_layer.hpp"
#include "numeric/ops.hpp"
#include "numeric/parallel.hpp"
#include "numeric/scratch.hpp"
#include "numeric/simd.hpp"
#include "numeric/sparse.hpp"
#include "numeric/tensor.hpp"

namespace afp::num {
namespace {

constexpr float kTol = 1e-4f;

/// Forward values + per-input gradients of a scalar-producing graph.
struct Eval {
  std::vector<float> out;                ///< forward value of fn's result
  std::vector<std::vector<float>> grads;  ///< one per input
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
                  const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float bound = kTol * std::max(1.0f, std::abs(a[i]));
    EXPECT_NEAR(a[i], b[i], bound) << what << " at " << i;
  }
}

/// The tier to compare against the naive reference: the active one, or
/// auto when the binary runs under AFP_KERNEL_TIER=naive.
KernelTier fast_tier() {
  const KernelTier t = kernel_tier();
  return t == KernelTier::kNaive ? KernelTier::kAuto : t;
}

/// Runs the graph twice — reference kernels vs fast kernels — on identical
/// inputs and requires matching forward values and gradients.  Leaves the
/// fast tier set.
void parity_check(const std::function<Tensor(std::vector<Tensor>&)>& fn,
                  const std::vector<Tensor>& inputs) {
  const KernelTier fast_kernels = fast_tier();
  set_kernel_tier(KernelTier::kNaive);
  const Eval ref = evaluate(fn, inputs);
  set_kernel_tier(fast_kernels);
  const Eval fast = evaluate(fn, inputs);
  expect_close(ref.out, fast.out, "forward");
  for (std::size_t i = 0; i < ref.grads.size(); ++i) {
    expect_close(ref.grads[i], fast.grads[i],
                 ("grad of input " + std::to_string(i)).c_str());
  }
}

std::mt19937_64 rng_fixed() { return std::mt19937_64(1234); }

TEST(GemmParity, RandomizedShapes) {
  auto rng = rng_fixed();
  const int shapes[][3] = {
      {1, 1, 1}, {2, 3, 4}, {5, 1, 8}, {17, 31, 13}, {64, 48, 80}, {33, 128, 7},
  };
  for (const auto& s : shapes) {
    std::vector<Tensor> in{Tensor::randn({s[0], s[1]}, rng, 1.0f, true),
                           Tensor::randn({s[1], s[2]}, rng, 1.0f, true)};
    parity_check(
        [](std::vector<Tensor>& v) { return matmul(v[0], v[1]); }, in);
  }
}

TEST(GemmParity, LinearLayer) {
  auto rng = rng_fixed();
  std::vector<Tensor> in{Tensor::randn({12, 40}, rng, 1.0f, true),
                         Tensor::randn({40, 24}, rng, 0.5f, true),
                         Tensor::randn({24}, rng, 0.5f, true)};
  parity_check(
      [](std::vector<Tensor>& v) { return linear(v[0], v[1], v[2]); }, in);
}

TEST(ConvParity, PolicyTrunkShapes) {
  // The policy CNN trunk: 3x3 convs over the 32x32 mask planes.
  auto rng = rng_fixed();
  std::vector<Tensor> in{Tensor::randn({2, 6, 32, 32}, rng, 1.0f, true),
                         Tensor::randn({8, 6, 3, 3}, rng, 0.3f, true),
                         Tensor::randn({8}, rng, 0.3f, true)};
  parity_check(
      [](std::vector<Tensor>& v) { return conv2d(v[0], v[1], v[2], 2, 1); },
      in);
  parity_check(
      [](std::vector<Tensor>& v) { return conv2d(v[0], v[1], v[2], 1, 1); },
      in);
}

TEST(ConvParity, RandomizedShapes) {
  auto rng = rng_fixed();
  struct Case { int b, ic, h, w, oc, k, stride, pad; };
  const Case cases[] = {
      {1, 1, 5, 5, 2, 3, 1, 0},
      {3, 2, 7, 9, 4, 3, 2, 1},
      {2, 3, 8, 8, 5, 5, 1, 2},
      {1, 4, 6, 6, 3, 1, 1, 0},
  };
  for (const auto& c : cases) {
    std::vector<Tensor> in{
        Tensor::randn({c.b, c.ic, c.h, c.w}, rng, 1.0f, true),
        Tensor::randn({c.oc, c.ic, c.k, c.k}, rng, 0.4f, true),
        Tensor::randn({c.oc}, rng, 0.4f, true)};
    parity_check(
        [c](std::vector<Tensor>& v) {
          return conv2d(v[0], v[1], v[2], c.stride, c.pad);
        },
        in);
  }
}

TEST(ConvParity, DeconvPolicyHeadShapes) {
  // The deconvolutional policy head: 4x4 stride-2 upsampling chain.
  auto rng = rng_fixed();
  std::vector<Tensor> in{Tensor::randn({2, 8, 4, 4}, rng, 1.0f, true),
                         Tensor::randn({8, 4, 4, 4}, rng, 0.3f, true),
                         Tensor::randn({4}, rng, 0.3f, true)};
  parity_check(
      [](std::vector<Tensor>& v) {
        return conv_transpose2d(v[0], v[1], v[2], 2, 1);
      },
      in);
}

TEST(ConvParity, DeconvRandomizedShapes) {
  auto rng = rng_fixed();
  struct Case { int b, ic, h, w, oc, k, stride, pad; };
  const Case cases[] = {
      {1, 2, 3, 3, 2, 4, 2, 1},
      {2, 3, 5, 4, 4, 3, 1, 0},
      {3, 1, 4, 6, 2, 5, 2, 2},
  };
  for (const auto& c : cases) {
    std::vector<Tensor> in{
        Tensor::randn({c.b, c.ic, c.h, c.w}, rng, 1.0f, true),
        Tensor::randn({c.ic, c.oc, c.k, c.k}, rng, 0.4f, true),
        Tensor::randn({c.oc}, rng, 0.4f, true)};
    parity_check(
        [c](std::vector<Tensor>& v) {
          return conv_transpose2d(v[0], v[1], v[2], c.stride, c.pad);
        },
        in);
  }
}

TEST(SparseCSR, FromCooAndLookup) {
  auto m = SparseCSR::from_coo(3, 4, {{0, 1, 2.0f}, {2, 3, 1.5f}, {0, 1, 1.0f}});
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.nnz(), 2);  // duplicates summed
  EXPECT_FLOAT_EQ(m.at(0, 1), 3.0f);
  EXPECT_FLOAT_EQ(m.at(2, 3), 1.5f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 0.0f);
  EXPECT_THROW(SparseCSR::from_coo(2, 2, {{0, 5, 1.0f}}),
               std::invalid_argument);
}

TEST(SparseCSR, TransposeRoundTrip) {
  auto rng = rng_fixed();
  std::uniform_real_distribution<float> unif(0.0f, 1.0f);
  std::vector<std::tuple<int, int, float>> coo;
  for (int r = 0; r < 20; ++r)
    for (int c = 0; c < 15; ++c)
      if (unif(rng) < 0.15f) coo.emplace_back(r, c, unif(rng));
  const auto a = SparseCSR::from_coo(20, 15, coo);
  const auto att = a.transpose().transpose();
  const auto d1 = a.to_dense(), d2 = att.to_dense();
  for (std::int64_t i = 0; i < d1.size(); ++i)
    EXPECT_FLOAT_EQ(d1.at(i), d2.at(i));
}

TEST(Spmm, MatchesDenseMatmulForwardAndBackward) {
  auto rng = rng_fixed();
  std::uniform_real_distribution<float> unif(0.0f, 1.0f);
  const int n = 40, d = 8;
  std::vector<std::tuple<int, int, float>> coo;
  for (int r = 0; r < n; ++r)
    for (int c = 0; c < n; ++c)
      if (unif(rng) < 0.1f) coo.emplace_back(r, c, unif(rng));
  const SparseCSR a = SparseCSR::from_coo(n, n, coo);
  const Tensor a_dense = a.to_dense();

  const Tensor h0 = Tensor::randn({n, d}, rng, 1.0f, true);
  const Eval sparse = evaluate(
      [&a](std::vector<Tensor>& v) { return spmm(a, v[0]); }, {h0});
  const Eval dense = evaluate(
      [&a_dense](std::vector<Tensor>& v) { return matmul(a_dense, v[0]); },
      {h0});
  expect_close(dense.out, sparse.out, "spmm forward");
  expect_close(dense.grads[0], sparse.grads[0], "spmm grad");
}

TEST(Spmm, ValidatesShapes) {
  const auto a = SparseCSR::from_coo(2, 3, {{0, 0, 1.0f}});
  EXPECT_THROW(spmm(a, Tensor::ones({2, 4})), std::invalid_argument);
}

TEST(BuildAdjacencyCsr, MatchesDenseBuilder) {
  const std::vector<std::vector<std::pair<int, int>>> edges = {
      {{0, 1}, {1, 2}, {1, 2}, {3, 3}},  // duplicates + self-loop
      {},
      {{4, 0}, {2, 4}},
  };
  const auto dense = nn::build_adjacency(5, 3, edges);
  const auto csr = nn::build_adjacency_csr(5, 3, edges);
  ASSERT_EQ(dense.size(), csr.size());
  for (std::size_t r = 0; r < dense.size(); ++r) {
    const Tensor d = csr[r].to_dense();
    ASSERT_EQ(d.shape(), dense[r].shape());
    for (std::int64_t i = 0; i < d.size(); ++i)
      EXPECT_FLOAT_EQ(d.at(i), dense[r].at(i)) << "relation " << r;
  }
}

TEST(RGCNLayer, SparseForwardMatchesDense) {
  auto rng = rng_fixed();
  nn::RGCNLayer layer(6, 8, 3, nn::Activation::kTanh, rng);
  const std::vector<std::vector<std::pair<int, int>>> edges = {
      {{0, 1}, {1, 2}}, {{2, 3}}, {}};
  const Tensor h = Tensor::randn({4, 6}, rng);
  const Tensor out_d = layer.forward(h, nn::build_adjacency(4, 3, edges));
  const Tensor out_s = layer.forward(h, nn::build_adjacency_csr(4, 3, edges));
  ASSERT_EQ(out_d.shape(), out_s.shape());
  for (std::int64_t i = 0; i < out_d.size(); ++i)
    EXPECT_NEAR(out_d.at(i), out_s.at(i), kTol);
}

TEST(Determinism, IdenticalAcrossThreadCounts) {
  // Bitwise-identical forward values and gradients for 1 vs 4 threads:
  // every output element is accumulated by exactly one chunk in a fixed
  // order regardless of the pool size.
  auto make_inputs = [] {
    auto rng = rng_fixed();
    return std::vector<Tensor>{
        Tensor::randn({48, 40}, rng, 1.0f, true),
        Tensor::randn({40, 56}, rng, 1.0f, true),
        Tensor::randn({2, 6, 32, 32}, rng, 1.0f, true),
        Tensor::randn({8, 6, 3, 3}, rng, 0.3f, true),
        Tensor::randn({8}, rng, 0.3f, true),
    };
  };
  auto graph = [](std::vector<Tensor>& v) {
    Tensor mm = matmul(v[0], v[1]);
    Tensor cv = conv2d(v[2], v[3], v[4], 2, 1);
    return add(sum_all(square(mm)), sum_all(square(cv)));
  };
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
  set_num_threads(0);  // restore the ambient default
  ASSERT_EQ(g1.size(), g4.size());
  for (std::size_t t = 0; t < g1.size(); ++t) {
    ASSERT_EQ(g1[t].size(), g4[t].size());
    for (std::size_t i = 0; i < g1[t].size(); ++i)
      EXPECT_FLOAT_EQ(g1[t][i], g4[t][i]) << "input " << t << " coord " << i;
  }
}

TEST(Storage, ReshapeAndDetachAliasTheValueBuffer) {
  Tensor a = Tensor::from_vector({2, 3}, {1, 2, 3, 4, 5, 6}, true);
  Tensor r = reshape(a, {3, 2});
  EXPECT_EQ(r.data(), a.data());  // view, not a copy
  Tensor d = a.detach();
  EXPECT_EQ(d.data(), a.data());
  EXPECT_FALSE(d.requires_grad());
  // Writes through the view are visible through the source handle.
  r.set(0, 42.0f);
  EXPECT_FLOAT_EQ(a.at(0), 42.0f);
}

TEST(LinearRelu, FusedMatchesComposition) {
  // The fused op and relu(linear(...)) compute the same function; forward
  // values and all three gradients must agree within the parity tolerance.
  auto rng = rng_fixed();
  for (const auto& [b, in, out] : {std::tuple{1, 5, 3}, std::tuple{12, 40, 24},
                                   std::tuple{33, 17, 65}}) {
    std::vector<Tensor> inputs{Tensor::randn({b, in}, rng, 1.0f, true),
                               Tensor::randn({in, out}, rng, 0.5f, true),
                               Tensor::randn({out}, rng, 0.5f, true)};
    const Eval fused = evaluate(
        [](std::vector<Tensor>& v) { return linear_relu(v[0], v[1], v[2]); },
        inputs);
    const Eval composed = evaluate(
        [](std::vector<Tensor>& v) {
          return relu(linear(v[0], v[1], v[2]));
        },
        inputs);
    expect_close(composed.out, fused.out, "linear_relu forward");
    for (std::size_t i = 0; i < composed.grads.size(); ++i)
      expect_close(composed.grads[i], fused.grads[i],
                   ("linear_relu grad " + std::to_string(i)).c_str());
  }
}

TEST(LinearRelu, GradientsMatchFiniteDifferences) {
  auto rng = rng_fixed();
  std::vector<Tensor> inputs{Tensor::randn({3, 4}, rng, 1.0f, true),
                             Tensor::randn({4, 2}, rng, 1.0f, true),
                             Tensor::randn({2}, rng, 1.0f, true)};
  auto loss_of = [&]() {
    return sum_all(square(linear_relu(inputs[0], inputs[1], inputs[2])));
  };
  for (auto& t : inputs) t.zero_grad();
  loss_of().backward();
  const float eps = 1e-2f;
  for (std::size_t t = 0; t < inputs.size(); ++t) {
    for (std::int64_t i = 0; i < inputs[t].size(); ++i) {
      const float orig = inputs[t].at(i);
      inputs[t].set(i, orig + eps);
      const float up = loss_of().item();
      inputs[t].set(i, orig - eps);
      const float down = loss_of().item();
      inputs[t].set(i, orig);
      const float fd = (up - down) / (2.0f * eps);
      const float an = inputs[t].grad()[static_cast<std::size_t>(i)];
      // Central differences in float are noisy; 2e-2 absolute-or-relative
      // is tight enough to catch a wrong mask or transposed GEMM.
      EXPECT_NEAR(an, fd, 2e-2f * std::max(1.0f, std::abs(fd)))
          << "input " << t << " coord " << i;
    }
  }
}

TEST(ScratchArena, NoAllocationGrowthAcrossTrainingIterations) {
  // A steady-state training loop must stop allocating workspace once the
  // per-thread arenas are warm: the im2col buffers, channel-major gathers
  // and per-image dW partials all reuse their slabs.
  //
  // The naive reference kernels bypass the arena entirely, so pin a fast
  // tier for the duration (the binary may run under AFP_KERNEL_TIER=naive).
  const KernelTier entry = kernel_tier();
  set_kernel_tier(fast_tier());
  auto rng = rng_fixed();
  const Tensor x = Tensor::randn({4, 3, 16, 16}, rng, 1.0f);
  Tensor w = Tensor::randn({6, 3, 3, 3}, rng, 0.3f, true);
  Tensor b = Tensor::randn({6}, rng, 0.3f, true);
  Tensor fw = Tensor::randn({6 * 16 * 16, 32}, rng, 0.1f, true);
  Tensor fb = Tensor::randn({32}, rng, 0.1f, true);
  auto train_step = [&] {
    w.zero_grad();
    b.zero_grad();
    fw.zero_grad();
    fb.zero_grad();
    Tensor h = conv2d(x, w, b, 1, 1);
    h = reshape(h, {4, 6 * 16 * 16});
    h = linear_relu(h, fw, fb);
    sum_all(square(h)).backward();
  };
  for (int i = 0; i < 2; ++i) train_step();  // warm-up fills the arena
  const std::uint64_t allocs = scratch_allocation_count();
  const std::uint64_t bytes = scratch_allocated_bytes();
  EXPECT_GT(allocs, 0u);  // the loop really does run through the arena
  for (int i = 0; i < 8; ++i) train_step();
  EXPECT_EQ(scratch_allocation_count(), allocs)
      << "workspace allocated after warm-up";
  EXPECT_EQ(scratch_allocated_bytes(), bytes);
  set_kernel_tier(entry);
}

TEST(Storage, BufferPoolRecyclesFreedBuffers) {
  // Use a size far larger than any other allocation in this binary so the
  // best-fit lookup can only ever see this buffer.
  constexpr std::size_t kOdd = (1u << 22) + 12347;
  auto buf = detail::acquire_buffer(kOdd);
  float* raw = buf->data();
  const std::size_t parked = detail::buffer_pool_size();
  buf.reset();  // returns the storage to the pool
  EXPECT_EQ(detail::buffer_pool_size(), parked + 1);
  auto again = detail::acquire_buffer(kOdd);
  EXPECT_EQ(detail::buffer_pool_size(), parked);
  EXPECT_EQ(again->data(), raw);  // same storage came back
}

TEST(ThreadPool, BusyPoolRunsAConcurrentCallerInline) {
  // While one caller's loop holds the pool, a second caller's parallel_for
  // must complete on its own thread instead of waiting for the first.
  set_num_threads(4);
  std::promise<void> second_done;
  std::future<void> done = second_done.get_future();
  std::atomic<bool> first_inside{false};
  bool overtook = false;
  std::thread first([&] {
    parallel_for(4, 1, [&](std::int64_t b, std::int64_t) {
      if (b != 0) return;
      first_inside.store(true);
      overtook = done.wait_for(std::chrono::seconds(10)) ==
                 std::future_status::ready;
    });
  });
  while (!first_inside.load()) std::this_thread::yield();
  std::vector<int> hits(8, 0);
  parallel_for(8, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  second_done.set_value();
  first.join();
  set_num_threads(0);
  EXPECT_TRUE(overtook) << "the second caller waited for the busy pool";
  EXPECT_EQ(hits, std::vector<int>(8, 1));
}

}  // namespace
}  // namespace afp::num
