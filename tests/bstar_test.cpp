// Tests for the B*-tree representation and its SA baseline.
#include <gtest/gtest.h>

#include "metaheur/bstar.hpp"
#include "netlist/library.hpp"

namespace afp::metaheur {
namespace {

floorplan::Instance instance_of(const std::string& name) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  return floorplan::make_instance(g);
}

TEST(BStarTree, RandomTreesAreValid) {
  std::mt19937_64 rng(1);
  for (int n : {1, 2, 5, 9, 19}) {
    for (int trial = 0; trial < 10; ++trial) {
      const auto t = BStarTree::random(n, rng);
      EXPECT_TRUE(t.valid()) << "n=" << n;
      EXPECT_EQ(t.size(), n);
    }
  }
}

TEST(BStarTree, PackNeverOverlapsAndIsCompacted) {
  std::mt19937_64 rng(2);
  const auto inst = instance_of("bias2");
  for (int trial = 0; trial < 30; ++trial) {
    const auto t = BStarTree::random(inst.num_blocks(), rng);
    const auto rects = pack_bstar(inst, t);
    ASSERT_EQ(static_cast<int>(rects.size()), inst.num_blocks());
    EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0);
    // Left/bottom compaction: the bounding box touches both axes.
    const auto bb = geom::bounding_box(rects);
    EXPECT_NEAR(bb.x, 0.0, 1e-9);
    EXPECT_NEAR(bb.y, 0.0, 1e-9);
  }
}

TEST(BStarTree, LeftChildPacksToTheRight) {
  // Hand-built 2-node tree: left child abuts the parent's right edge.
  auto inst = instance_of("ota_small");
  BStarTree t;
  t.left = {1, -1, -1};
  t.right = {-1, -1, -1};
  t.parent = {-1, 0, -1};
  t.root = 0;
  t.shapes = {1, 1, 1};
  // Attach block 2 as right child of block 0 (stacks above).
  t.right[0] = 2;
  t.parent[2] = 0;
  ASSERT_TRUE(t.valid());
  const auto rects = pack_bstar(inst, t);
  EXPECT_NEAR(rects[1].x, rects[0].right(), 1e-9);
  EXPECT_NEAR(rects[1].y, 0.0, 1e-9);
  EXPECT_NEAR(rects[2].x, rects[0].x, 1e-9);
  EXPECT_GE(rects[2].y, rects[0].top() - 1e-9);
}

TEST(BStarTree, SpacingPadsSlots) {
  std::mt19937_64 rng(3);
  const auto inst = instance_of("ota1");
  const auto t = BStarTree::random(inst.num_blocks(), rng);
  const auto tight = pack_bstar(inst, t, 0.0);
  const auto spaced = pack_bstar(inst, t, 1.0);
  EXPECT_GT(geom::bounding_box(spaced).area(),
            geom::bounding_box(tight).area());
  for (std::size_t i = 0; i < tight.size(); ++i) {
    EXPECT_DOUBLE_EQ(tight[i].w, spaced[i].w);
  }
}

class BStarMoveSuite : public ::testing::TestWithParam<BStarMove> {};

TEST_P(BStarMoveSuite, MovesPreserveValidity) {
  std::mt19937_64 rng(4);
  const auto inst = instance_of("driver");
  BStarTree t = BStarTree::random(inst.num_blocks(), rng);
  for (int k = 0; k < 100; ++k) {
    apply_bstar_move(t, GetParam(), rng);
    ASSERT_TRUE(t.valid()) << "after move " << k;
    const auto rects = pack_bstar(inst, t);
    ASSERT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMoves, BStarMoveSuite,
    ::testing::Values(BStarMove::kChangeShape, BStarMove::kSwapBlocks,
                      BStarMove::kMoveLeaf),
    [](const ::testing::TestParamInfo<BStarMove>& info) {
      switch (info.param) {
        case BStarMove::kChangeShape: return std::string("shape");
        case BStarMove::kSwapBlocks: return std::string("swap");
        default: return std::string("move_leaf");
      }
    });

TEST(BStarSa, ProducesCompetitiveFloorplans) {
  std::mt19937_64 rng(5);
  const auto inst = instance_of("ota2");
  SAParams p;
  p.iterations = 1500;
  const auto res = run_sa_bstar(inst, p, rng);
  EXPECT_EQ(res.method, "SA-B*[15]");
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
  EXPECT_LT(res.eval.dead_space, 0.75);
  EXPECT_GT(res.evaluations, 1000);
  // Better than a random tree.
  const auto rand_cost =
      sp_cost(inst, pack_bstar(inst, BStarTree::random(inst.num_blocks(), rng),
                               inst.canvas_w / 32.0));
  EXPECT_LT(sp_cost(inst, res.rects), rand_cost);
}

TEST(BStarSa, SmallInstance) {
  std::mt19937_64 rng(6);
  const auto inst = instance_of("bias_small");
  SAParams p;
  p.iterations = 300;
  const auto res = run_sa_bstar(inst, p, rng);
  EXPECT_EQ(static_cast<int>(res.rects.size()), inst.num_blocks());
  EXPECT_TRUE(res.eval.constraints_ok);
}

}  // namespace
}  // namespace afp::metaheur
