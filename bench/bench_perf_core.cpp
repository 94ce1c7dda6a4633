// Performance-core benchmark: throughput of the blocked GEMM, the im2col
// convolutions, the CSR SpMM / R-GCN encoder, and an end-to-end PPO
// training step — each measured against the original scalar seed kernels
// (the naive kernel tier) so the speedup trajectory is tracked across
// PRs.  Results are printed and written to BENCH_perf_core.json.
//
// Knobs: AFP_BENCH_SCALE scales iteration counts (0.05 for CI smoke runs),
// AFP_NUM_THREADS sizes the pool, AFP_KERNEL_TIER pins the micro-kernel
// tier (the *_tier rows compare avx2 vs scalar explicitly, single-thread).
#include <chrono>
#include <cstdio>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "nn/rgcn_layer.hpp"
#include "numeric/ops.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"
#include "numeric/sparse.hpp"
#include "rgcn/reward_model.hpp"
#include "rl/agent.hpp"
#include "rl/ppo.hpp"
#include "rl/task.hpp"
#include "structrec/structrec.hpp"

namespace afp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median wall time of `iters` runs of fn (seconds).
template <class Fn>
double time_median(int iters, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(iters));
  for (int i = 0; i < iters; ++i) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

struct Row {
  std::string name;
  double fast_s = 0.0;
  double naive_s = 0.0;
  double speedup() const { return fast_s > 0.0 ? naive_s / fast_s : 0.0; }
};

/// The tier the "fast" columns time: the active one, or auto when
/// AFP_KERNEL_TIER selects the naive tier the other column times.
num::KernelTier fast_tier() {
  const num::KernelTier t = num::kernel_tier();
  return t == num::KernelTier::kNaive ? num::KernelTier::kAuto : t;
}

/// Times fn under both kernel paths; leaves the fast tier set.
template <class Fn>
Row compare(const std::string& name, int iters, Fn&& fn) {
  Row row;
  row.name = name;
  const num::KernelTier fast = fast_tier();
  num::set_kernel_tier(fast);
  row.fast_s = time_median(iters, fn);
  num::set_kernel_tier(num::KernelTier::kNaive);
  row.naive_s = time_median(std::max(1, iters / 2), fn);
  num::set_kernel_tier(fast);
  return row;
}

Row bench_gemm(std::mt19937_64& rng) {
  const int n = 512;
  const auto a = num::Tensor::randn({n, n}, rng);
  const auto b = num::Tensor::randn({n, n}, rng);
  num::NoGradGuard ng;
  Row row = compare("gemm_512x512x512", scaled(10),
                    [&] { (void)num::matmul(a, b); });
  const double flops = 2.0 * n * n * n;
  std::printf("%-28s fast %8.2f ms (%6.2f GFLOP/s)  naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, flops / row.fast_s / 1e9,
              row.naive_s * 1e3, row.speedup());
  return row;
}

Row bench_gemm_train(std::mt19937_64& rng) {
  const int n = 256;
  const auto a = num::Tensor::randn({n, n}, rng, 1.0f, true);
  const auto b = num::Tensor::randn({n, n}, rng, 1.0f, true);
  Row row = compare("gemm_fwd_bwd_256", scaled(10), [&] {
    auto ac = a;
    auto bc = b;
    ac.zero_grad();
    bc.zero_grad();
    num::sum_all(num::matmul(ac, bc)).backward();
  });
  std::printf("%-28s fast %8.2f ms  naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

/// Times fn single-threaded under the avx2 tier ("fast") vs the scalar tier
/// ("naive" column), restoring the ambient tier (which may be pinned via
/// AFP_KERNEL_TIER) and pool afterwards.
template <class Fn>
Row compare_tiers(const std::string& name, int iters, Fn&& fn) {
  Row row;
  const num::KernelTier entry = num::kernel_tier();
  num::set_num_threads(1);
  num::set_kernel_tier(num::KernelTier::kAvx2);
  // On hardware without AVX2 the request falls back to scalar; label the
  // row with the tier that actually ran so the JSON can't masquerade a
  // scalar-vs-scalar measurement as an AVX2 speedup.
  const char* fast_tier = num::kernel_tier_name(num::kernel_tier());
  row.name = name + "_" + fast_tier + "_vs_scalar";
  row.fast_s = time_median(iters, fn);
  num::set_kernel_tier(num::KernelTier::kScalar);
  row.naive_s = time_median(iters, fn);
  num::set_kernel_tier(entry);
  num::set_num_threads(0);
  std::printf("%-28s %s %6.2f ms  scalar %8.2f ms  speedup %5.2fx (1 thread)\n",
              row.name.c_str(), fast_tier, row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_gemm_tier(std::mt19937_64& rng) {
  // PR 2 acceptance metric: single-core GEMM fwd+bwd, explicit AVX2 tier
  // vs PR 1's scalar-blocked kernels.
  const int n = 256;
  const auto a = num::Tensor::randn({n, n}, rng, 1.0f, true);
  const auto b = num::Tensor::randn({n, n}, rng, 1.0f, true);
  return compare_tiers("gemm_fwd_bwd_256", scaled(10), [&] {
    auto ac = a;
    auto bc = b;
    ac.zero_grad();
    bc.zero_grad();
    num::sum_all(num::matmul(ac, bc)).backward();
  });
}

Row bench_softmax_tier(std::mt19937_64& rng) {
  const auto x = num::Tensor::randn({4096, 65}, rng, 2.0f, true);
  return compare_tiers("softmax_ew_fwd_bwd", scaled(20), [&] {
    auto xc = x;
    xc.zero_grad();
    num::sum_all(num::square(num::softmax_rows(num::relu(xc)))).backward();
  });
}

Row bench_linear_relu_fused(std::mt19937_64& rng) {
  // Fused linear_relu vs relu(linear(...)) under the ambient tier, at a
  // skinny-K shape (rollout batches through a narrow head) where the saved
  // elementwise passes and intermediate tensors are visible next to the
  // GEMM.
  const auto x = num::Tensor::randn({4096, 24}, rng, 1.0f, true);
  const auto w = num::Tensor::randn({24, 96}, rng, 0.5f, true);
  const auto b = num::Tensor::randn({96}, rng, 0.5f, true);
  auto step = [&](bool fused) {
    auto wc = w;
    wc.zero_grad();
    auto h = fused ? num::linear_relu(x, wc, b)
                   : num::relu(num::linear(x, wc, b));
    num::sum_all(num::square(h)).backward();
  };
  Row row;
  row.name = "linear_relu_fused_vs_split";
  row.fast_s = time_median(scaled(20), [&] { step(true); });
  row.naive_s = time_median(scaled(20), [&] { step(false); });
  std::printf("%-28s fused %7.2f ms  split %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_conv_policy(std::mt19937_64& rng) {
  // The paper policy trunk's first conv at rollout batch size: 16 envs,
  // 6 mask channels, 32x32 grid -> 16 channels, stride 1.
  const auto x = num::Tensor::randn({16, 6, 32, 32}, rng, 1.0f, true);
  const auto w = num::Tensor::randn({16, 6, 3, 3}, rng, 0.3f, true);
  const auto b = num::Tensor::randn({16}, rng, 0.3f, true);
  Row row = compare("conv2d_policy_fwd_bwd", scaled(20), [&] {
    auto wc = w;
    wc.zero_grad();
    num::sum_all(num::square(num::conv2d(x, wc, b, 1, 1))).backward();
  });
  std::printf("%-28s fast %8.2f ms  naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_deconv_policy(std::mt19937_64& rng) {
  // Last deconv of the paper policy head: 16ch 16x16 -> 8ch 32x32.
  const auto x = num::Tensor::randn({16, 16, 16, 16}, rng, 1.0f, true);
  const auto w = num::Tensor::randn({16, 8, 4, 4}, rng, 0.3f, true);
  const auto b = num::Tensor::randn({8}, rng, 0.3f, true);
  Row row = compare("deconv_policy_fwd_bwd", scaled(20), [&] {
    auto wc = w;
    wc.zero_grad();
    num::sum_all(num::square(num::conv_transpose2d(x, wc, b, 2, 1))).backward();
  });
  std::printf("%-28s fast %8.2f ms  naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_rgcn_forward(std::mt19937_64& rng) {
  // R-GCN layer at N=256 with E ~ 4N edges per relation: CSR SpMM path
  // vs the dense [N, N] matmul path of the seed.
  const int n = 256, relations = 5;
  std::vector<std::vector<std::pair<int, int>>> edges(relations);
  std::uniform_int_distribution<int> pick(0, n - 1);
  for (auto& rel : edges) {
    for (int e = 0; e < 4 * n; ++e) rel.emplace_back(pick(rng), pick(rng));
  }
  nn::RGCNLayer layer(rgcn::kEmbeddingDim, rgcn::kEmbeddingDim, relations,
                      nn::Activation::kRelu, rng);
  const auto h = num::Tensor::randn({n, rgcn::kEmbeddingDim}, rng);
  const auto adj_csr = nn::build_adjacency_csr(n, relations, edges);
  const auto adj_dense = nn::build_adjacency(n, relations, edges);
  num::NoGradGuard ng;
  Row row;
  row.name = "rgcn_forward_n256";
  const num::KernelTier fast = fast_tier();
  num::set_kernel_tier(fast);
  row.fast_s = time_median(scaled(20), [&] { (void)layer.forward(h, adj_csr); });
  num::set_kernel_tier(num::KernelTier::kNaive);
  row.naive_s =
      time_median(scaled(10), [&] { (void)layer.forward(h, adj_dense); });
  num::set_kernel_tier(fast);
  std::printf("%-28s sparse %6.2f ms  dense-naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_spmm(std::mt19937_64& rng) {
  const int n = 1024, d = 32;
  std::uniform_real_distribution<float> unif(0.0f, 1.0f);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::vector<std::tuple<int, int, float>> coo;
  for (int e = 0; e < 8 * n; ++e)
    coo.emplace_back(pick(rng), pick(rng), unif(rng));
  const auto a = num::SparseCSR::from_coo(n, n, coo);
  const auto ad = a.to_dense();
  const auto h = num::Tensor::randn({n, d}, rng);
  num::NoGradGuard ng;
  Row row;
  row.name = "spmm_n1024_nnz8k";
  const num::KernelTier fast = fast_tier();
  num::set_kernel_tier(fast);
  row.fast_s = time_median(scaled(50), [&] { (void)num::spmm(a, h); });
  num::set_kernel_tier(num::KernelTier::kNaive);
  row.naive_s = time_median(scaled(5), [&] { (void)num::matmul(ad, h); });
  num::set_kernel_tier(fast);
  std::printf("%-28s sparse %6.3f ms  dense-naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

Row bench_training_step() {
  // End-to-end PPO iteration (rollout + GAE + minibatch updates) on the
  // fast preset: the acceptance metric for this PR.
  std::mt19937_64 rng(7);
  rgcn::RewardModel encoder(rng);
  graphir::CircuitGraph graph;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == "ota_small") {
      const auto nl = e.make();
      graph = graphir::build_graph(nl, structrec::recognize(nl));
    }
  }
  rl::PPOConfig cfg;
  cfg.n_envs = 4;
  cfg.n_steps = 16;
  cfg.epochs = 2;
  cfg.minibatch = 32;

  // Construction (net init, env resets) happens outside the timer; only
  // iterate() — rollout, GAE, minibatch updates — is measured.
  auto timed_iterations = [&](int iters) {
    std::mt19937_64 seed_rng(11);
    rl::ActorCritic net(rl::PolicyConfig::fast(), seed_rng);
    rl::PPOTrainer trainer(net, {rl::make_task(encoder, graph)}, cfg);
    std::mt19937_64 it_rng(13);
    (void)trainer.iterate(it_rng);  // warm-up: populates the buffer pool
    return time_median(iters, [&] { (void)trainer.iterate(it_rng); });
  };
  Row row;
  row.name = "ppo_training_step";
  const num::KernelTier fast = fast_tier();
  num::set_kernel_tier(fast);
  row.fast_s = timed_iterations(std::max(1, scaled(4)));
  num::set_kernel_tier(num::KernelTier::kNaive);
  row.naive_s = timed_iterations(std::max(1, scaled(2)));
  num::set_kernel_tier(fast);
  std::printf("%-28s fast %8.2f ms  naive %8.2f ms  speedup %5.2fx\n",
              row.name.c_str(), row.fast_s * 1e3, row.naive_s * 1e3,
              row.speedup());
  return row;
}

void write_json(const std::vector<Row>& rows) {
  std::ofstream os("BENCH_perf_core.json");
  os << "{\n  \"bench\": \"perf_core\",\n  \"threads\": "
     << num::num_threads() << ",\n  \"scale\": " << bench_scale()
     << ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    os << "    {\"name\": \"" << r.name << "\", \"fast_ms\": " << r.fast_s * 1e3
       << ", \"naive_ms\": " << r.naive_s * 1e3
       << ", \"speedup\": " << r.speedup() << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace
}  // namespace afp::bench

int main() {
  using namespace afp::bench;
  std::printf("perf_core bench: %d threads, scale %.2f\n",
              afp::num::num_threads(), bench_scale());
  std::mt19937_64 rng(42);
  std::vector<Row> rows;
  rows.push_back(bench_gemm(rng));
  rows.push_back(bench_gemm_train(rng));
  rows.push_back(bench_gemm_tier(rng));
  rows.push_back(bench_softmax_tier(rng));
  rows.push_back(bench_linear_relu_fused(rng));
  rows.push_back(bench_conv_policy(rng));
  rows.push_back(bench_deconv_policy(rng));
  rows.push_back(bench_rgcn_forward(rng));
  rows.push_back(bench_spmm(rng));
  rows.push_back(bench_training_step());
  write_json(rows);
  std::printf("wrote BENCH_perf_core.json\n");
  return 0;
}
