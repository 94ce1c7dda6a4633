#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "nn/distribution.hpp"
#include "nn/layers.hpp"
#include "nn/rgcn_layer.hpp"

namespace afp::nn {
namespace {

std::mt19937_64 rng_fixed() { return std::mt19937_64(7); }

TEST(Linear, ShapesAndParamCount) {
  auto rng = rng_fixed();
  Linear fc(8, 4, rng);
  EXPECT_EQ(fc.parameter_count(), 8 * 4 + 4);
  auto rng2 = rng_fixed();
  num::Tensor x = num::Tensor::randn({3, 8}, rng2);
  num::Tensor y = fc.forward(x);
  EXPECT_EQ(y.shape(), (num::Shape{3, 4}));
}

TEST(Linear, NamedParameters) {
  auto rng = rng_fixed();
  Linear fc(2, 2, rng);
  const auto named = fc.named_parameters("fc");
  EXPECT_TRUE(named.count("fc.weight"));
  EXPECT_TRUE(named.count("fc.bias"));
}

TEST(Conv2d, OutputShape) {
  auto rng = rng_fixed();
  Conv2d conv(6, 16, 3, 1, 1, rng);
  num::Tensor x = num::Tensor::randn({2, 6, 32, 32}, rng);
  EXPECT_EQ(conv.forward(x).shape(), (num::Shape{2, 16, 32, 32}));
  Conv2d conv2(6, 8, 3, 2, 1, rng);
  EXPECT_EQ(conv2.forward(x).shape(), (num::Shape{2, 8, 16, 16}));
}

TEST(ConvTranspose2d, Upsamples) {
  auto rng = rng_fixed();
  ConvTranspose2d deconv(8, 4, 4, 2, 1, rng);
  num::Tensor x = num::Tensor::randn({1, 8, 4, 4}, rng);
  EXPECT_EQ(deconv.forward(x).shape(), (num::Shape{1, 4, 8, 8}));
}

TEST(MLP, ForwardAndTrainability) {
  auto rng = rng_fixed();
  MLP mlp({4, 8, 1}, Activation::kRelu, Activation::kNone, rng);
  num::Tensor x = num::Tensor::randn({5, 4}, rng);
  num::Tensor y = mlp.forward(x);
  EXPECT_EQ(y.shape(), (num::Shape{5, 1}));
  EXPECT_TRUE(y.requires_grad());
  EXPECT_THROW(MLP({3}, Activation::kRelu, Activation::kNone, rng),
               std::invalid_argument);
}

TEST(Activate, AllKinds) {
  num::Tensor x = num::Tensor::from_vector({2}, {-1.0f, 1.0f});
  EXPECT_FLOAT_EQ(activate(x, Activation::kRelu).at(0), 0.0f);
  EXPECT_NEAR(activate(x, Activation::kTanh).at(1), std::tanh(1.0f), 1e-6f);
  EXPECT_NEAR(activate(x, Activation::kSigmoid).at(0),
              1.0f / (1.0f + std::exp(1.0f)), 1e-6f);
  EXPECT_FLOAT_EQ(activate(x, Activation::kNone).at(0), -1.0f);
}

TEST(BuildAdjacency, RowNormalized) {
  // Relation 0: edges 0-1, 1-2; relation 1: empty.
  const auto adj = build_adjacency(3, 2, {{{0, 1}, {1, 2}}, {}});
  ASSERT_EQ(adj.size(), 2u);
  // Node 1 has two neighbours -> entries 0.5 each.
  EXPECT_FLOAT_EQ(adj[0].at(1 * 3 + 0), 0.5f);
  EXPECT_FLOAT_EQ(adj[0].at(1 * 3 + 2), 0.5f);
  // Node 0 has one neighbour -> entry 1.
  EXPECT_FLOAT_EQ(adj[0].at(0 * 3 + 1), 1.0f);
  // Empty relation: all zero.
  for (int i = 0; i < 9; ++i) EXPECT_FLOAT_EQ(adj[1].at(i), 0.0f);
}

TEST(BuildAdjacency, SelfLoopAllowed) {
  const auto adj = build_adjacency(2, 1, {{{0, 0}}});
  EXPECT_FLOAT_EQ(adj[0].at(0), 1.0f);  // self-loop, degree 1
}

TEST(BuildAdjacency, ValidatesIndices) {
  EXPECT_THROW(build_adjacency(2, 1, {{{0, 5}}}), std::invalid_argument);
  EXPECT_THROW(build_adjacency(2, 2, {{}}), std::invalid_argument);
}

TEST(RGCNLayer, ForwardShapeAndRelationCount) {
  auto rng = rng_fixed();
  RGCNLayer layer(6, 8, 3, Activation::kRelu, rng);
  EXPECT_EQ(layer.num_relations(), 3);
  num::Tensor h = num::Tensor::randn({4, 6}, rng);
  const auto adj = build_adjacency(4, 3, {{{0, 1}}, {{1, 2}}, {}});
  EXPECT_EQ(layer.forward(h, adj).shape(), (num::Shape{4, 8}));
  EXPECT_THROW(layer.forward(h, {adj[0]}), std::invalid_argument);
}

TEST(RGCNLayer, PermutationEquivariance) {
  // Relabeling nodes and permuting features must permute outputs likewise.
  auto rng = rng_fixed();
  RGCNLayer layer(3, 4, 1, Activation::kTanh, rng);
  num::Tensor h = num::Tensor::from_vector(
      {3, 3}, {1, 0, 0, 0, 1, 0, 0, 0, 1});
  const auto adj = build_adjacency(3, 1, {{{0, 1}, {1, 2}}});
  num::Tensor out = layer.forward(h, adj);

  // Permutation: swap nodes 0 and 2 (graph is symmetric under it).
  num::Tensor hp = num::Tensor::from_vector(
      {3, 3}, {0, 0, 1, 0, 1, 0, 1, 0, 0});
  const auto adjp = build_adjacency(3, 1, {{{2, 1}, {1, 0}}});
  num::Tensor outp = layer.forward(hp, adjp);
  for (int c = 0; c < 4; ++c) {
    EXPECT_NEAR(out.at(0 * 4 + c), outp.at(2 * 4 + c), 1e-5f);
    EXPECT_NEAR(out.at(1 * 4 + c), outp.at(1 * 4 + c), 1e-5f);
    EXPECT_NEAR(out.at(2 * 4 + c), outp.at(0 * 4 + c), 1e-5f);
  }
}

TEST(RGCNLayer, RelationsAreDistinguished) {
  // The same edge under different relations must produce different
  // outputs (relation-specific weights).
  auto rng = rng_fixed();
  RGCNLayer layer(2, 2, 2, Activation::kNone, rng);
  num::Tensor h = num::Tensor::from_vector({2, 2}, {1, 2, 3, 4});
  const auto adj_r0 = build_adjacency(2, 2, {{{0, 1}}, {}});
  const auto adj_r1 = build_adjacency(2, 2, {{}, {{0, 1}}});
  num::Tensor o0 = layer.forward(h, adj_r0);
  num::Tensor o1 = layer.forward(h, adj_r1);
  bool differs = false;
  for (int i = 0; i < 4; ++i) {
    if (std::abs(o0.at(i) - o1.at(i)) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(MaskedCategorical, InvalidActionsNeverSampled) {
  auto rng = rng_fixed();
  num::Tensor logits = num::Tensor::zeros({2, 4});
  // Row 0: only actions 1, 2 valid; row 1: only action 3.
  const std::vector<float> mask{0, 1, 1, 0, 0, 0, 0, 1};
  MaskedCategorical dist(logits, mask);
  for (int trial = 0; trial < 200; ++trial) {
    const auto a = dist.sample(rng);
    EXPECT_TRUE(a[0] == 1 || a[0] == 2);
    EXPECT_EQ(a[1], 3);
  }
  EXPECT_EQ(dist.mode()[1], 3);
}

TEST(MaskedCategorical, ZeroDrawNeverPicksAMaskedAction) {
  // An mt19937_64 whose next output is 0, so the uniform draw is exactly
  // 0.0: words 0, 1 and 156 of the state are zero and the index (312) forces
  // a regeneration first.  A masked action has probability exactly 0, so
  // `u <= cum` holds at index 0 even though action 0 is masked.
  std::stringstream state;
  for (int i = 0; i < 312; ++i) {
    state << (i == 0 || i == 1 || i == 156 ? 0 : i + 1) << ' ';
  }
  state << 312;
  std::mt19937_64 rng;
  state >> rng;
  std::mt19937_64 probe = rng;
  ASSERT_EQ(probe(), 0u);
  MaskedCategorical dist(num::Tensor::zeros({1, 4}), {0, 1, 1, 1});
  const int pick = dist.sample(rng)[0];
  EXPECT_GE(pick, 1);
  EXPECT_LE(pick, 3);
}

TEST(MaskedCategorical, LogProbMatchesUniformOverValid) {
  num::Tensor logits = num::Tensor::zeros({1, 4});
  const std::vector<float> mask{1, 1, 0, 0};
  MaskedCategorical dist(logits, mask);
  num::Tensor lp = dist.log_prob({0});
  EXPECT_NEAR(lp.at(0), std::log(0.5f), 1e-5f);
}

TEST(MaskedCategorical, EntropyCountsOnlyValidActions) {
  num::Tensor logits = num::Tensor::zeros({1, 8});
  const std::vector<float> mask{1, 1, 1, 1, 0, 0, 0, 0};
  MaskedCategorical dist(logits, mask);
  EXPECT_NEAR(dist.entropy().at(0), std::log(4.0f), 1e-4f);
}

TEST(MaskedCategorical, AllInvalidRowThrows) {
  num::Tensor logits = num::Tensor::zeros({1, 3});
  EXPECT_THROW(MaskedCategorical(logits, {0, 0, 0}), std::invalid_argument);
}

TEST(MaskedCategorical, GradientFlowsThroughValidLogitsOnly) {
  num::Tensor logits = num::Tensor::zeros({1, 3}, true);
  const std::vector<float> mask{1, 1, 0};
  MaskedCategorical dist(logits, mask);
  num::sum_all(dist.log_prob({0})).backward();
  EXPECT_NE(logits.grad()[0], 0.0f);
  EXPECT_NE(logits.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(logits.grad()[2], 0.0f);
}

}  // namespace
}  // namespace afp::nn
