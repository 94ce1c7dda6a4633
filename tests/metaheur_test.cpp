#include <gtest/gtest.h>

#include "metaheur/baselines.hpp"
#include "netlist/library.hpp"

namespace afp::metaheur {
namespace {

floorplan::Instance instance_of(const netlist::Netlist& nl,
                                bool constrained = false) {
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  if (constrained) {
    graphir::apply_constraints(g, graphir::default_constraints(g));
  }
  return floorplan::make_instance(g);
}

TEST(SequencePair, InitialAndRandomAreValidPermutations) {
  std::mt19937_64 rng(1);
  for (const SequencePair& sp :
       {SequencePair::initial(7), SequencePair::random(7, rng)}) {
    EXPECT_EQ(sp.size(), 7);
    std::vector<int> s1 = sp.s1, s2 = sp.s2;
    std::sort(s1.begin(), s1.end());
    std::sort(s2.begin(), s2.end());
    for (int i = 0; i < 7; ++i) {
      EXPECT_EQ(s1[static_cast<std::size_t>(i)], i);
      EXPECT_EQ(s2[static_cast<std::size_t>(i)], i);
    }
    for (int s : sp.shapes) {
      EXPECT_GE(s, 0);
      EXPECT_LT(s, floorplan::kNumShapes);
    }
  }
}

TEST(SequencePair, PackNeverOverlaps) {
  std::mt19937_64 rng(2);
  const auto inst = instance_of(netlist::make_bias2());
  for (int trial = 0; trial < 50; ++trial) {
    const auto sp = SequencePair::random(inst.num_blocks(), rng);
    const auto rects = pack(inst, sp);
    EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0);
  }
}

TEST(SequencePair, PackKnownArrangements) {
  // Two blocks: (ab, ab) -> side by side; (ab, ba) -> stacked.
  auto inst = instance_of(netlist::make_ota_small());
  inst.blocks.resize(2);
  SequencePair sp = SequencePair::initial(2);
  auto rects = pack(inst, sp);
  EXPECT_GT(rects[1].x, rects[0].x - 1e-12);
  EXPECT_DOUBLE_EQ(rects[1].y, 0.0);
  sp.s2 = {1, 0};
  rects = pack(inst, sp);
  // a above b: block 0 sits on top of block 1.
  EXPECT_DOUBLE_EQ(rects[0].x, 0.0);
  EXPECT_GE(rects[0].y, rects[1].top() - 1e-12);
}

TEST(SequencePair, SpacingReservesRoutingRoom) {
  const auto inst = instance_of(netlist::make_ota1());
  const auto sp = SequencePair::initial(inst.num_blocks());
  const auto tight = pack(inst, sp, 0.0);
  const auto spaced = pack(inst, sp, 1.0);
  EXPECT_GT(geom::bounding_box(spaced).area(),
            geom::bounding_box(tight).area());
  // Original rect sizes preserved.
  for (std::size_t i = 0; i < tight.size(); ++i) {
    EXPECT_DOUBLE_EQ(tight[i].w, spaced[i].w);
    EXPECT_DOUBLE_EQ(tight[i].h, spaced[i].h);
  }
}

TEST(SequencePair, MovesPreservePermutations) {
  std::mt19937_64 rng(3);
  SequencePair sp = SequencePair::random(9, rng);
  for (int m = 0; m < kNumMoves; ++m) {
    for (int k = 0; k < 20; ++k) {
      apply_move(sp, static_cast<Move>(m), rng);
    }
  }
  std::vector<int> s1 = sp.s1, s2 = sp.s2;
  std::sort(s1.begin(), s1.end());
  std::sort(s2.begin(), s2.end());
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(s1[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(s2[static_cast<std::size_t>(i)], i);
  }
}

TEST(SpCost, ViolationCostsMoreThanCompliance) {
  auto inst = instance_of(netlist::make_ota_small());
  inst.constraints.sym_pairs.push_back({1, 2, true});
  const std::vector<geom::Rect> ok{{0, 0, 4, 4}, {4, 0, 4, 4}, {8, 0, 4, 4}};
  const std::vector<geom::Rect> bad{{0, 0, 4, 4}, {4, 1, 4, 4}, {8, 3, 4, 4}};
  EXPECT_LT(sp_cost(inst, ok), sp_cost(inst, bad));
}

struct BaselineCase {
  std::string name;
  std::function<BaselineResult(const floorplan::Instance&, std::mt19937_64&)>
      run;
};

class BaselineSuite : public ::testing::TestWithParam<BaselineCase> {};

TEST_P(BaselineSuite, ProducesValidFloorplanOnAllCircuits) {
  std::mt19937_64 rng(11);
  for (const auto& cname : {"ota1", "rs_latch"}) {
    netlist::Netlist nl;
    for (const auto& e : netlist::circuit_registry()) {
      if (e.name == cname) nl = e.make();
    }
    const auto inst = instance_of(nl);
    const auto res = GetParam().run(inst, rng);
    ASSERT_EQ(static_cast<int>(res.rects.size()), inst.num_blocks());
    EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(res.rects), 0.0);
    EXPECT_GT(res.runtime_s, 0.0);
    EXPECT_GT(res.evaluations, 0);
    EXPECT_TRUE(res.eval.constraints_ok);
    EXPECT_LT(res.eval.dead_space, 0.95);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, BaselineSuite,
    ::testing::Values(
        BaselineCase{"sa",
                     [](const floorplan::Instance& i, std::mt19937_64& r) {
                       SAParams p;
                       p.iterations = 400;
                       return run_sa(i, p, r);
                     }},
        BaselineCase{"ga",
                     [](const floorplan::Instance& i, std::mt19937_64& r) {
                       GAParams p;
                       p.population = 10;
                       p.generations = 10;
                       return run_ga(i, p, r);
                     }},
        BaselineCase{"pso",
                     [](const floorplan::Instance& i, std::mt19937_64& r) {
                       PSOParams p;
                       p.particles = 8;
                       p.iterations = 10;
                       return run_pso(i, p, r);
                     }},
        BaselineCase{"rlsa",
                     [](const floorplan::Instance& i, std::mt19937_64& r) {
                       RLSAParams p;
                       p.iterations = 400;
                       return run_rlsa(i, p, r);
                     }},
        BaselineCase{"rlsp",
                     [](const floorplan::Instance& i, std::mt19937_64& r) {
                       RLSPParams p;
                       p.episodes = 10;
                       p.steps_per_episode = 20;
                       return run_rlsp(i, p, r);
                     }}),
    [](const ::testing::TestParamInfo<BaselineCase>& info) {
      return info.param.name;
    });

TEST(SA, LongerScheduleDoesNotHurt) {
  const auto inst = instance_of(netlist::make_ota2());
  std::mt19937_64 r1(5), r2(5);
  SAParams small;
  small.iterations = 50;
  SAParams big;
  big.iterations = 3000;
  const double c_small = -run_sa(inst, small, r1).eval.reward;
  const double c_big = -run_sa(inst, big, r2).eval.reward;
  EXPECT_LE(c_big, c_small + 0.5);
}

TEST(SA, BeatsRandomPacking) {
  const auto inst = instance_of(netlist::make_bias1());
  std::mt19937_64 rng(7);
  const double spacing = inst.canvas_w / 32.0;  // the auto default
  double random_cost = 0.0;
  for (int k = 0; k < 5; ++k) {
    random_cost +=
        sp_cost(inst, pack(inst, SequencePair::random(inst.num_blocks(), rng),
                           spacing));
  }
  random_cost /= 5.0;
  SAParams p;
  p.iterations = 2000;
  const auto res = run_sa(inst, p, rng);
  EXPECT_LT(sp_cost(inst, res.rects), random_cost);
}

TEST(EstimateHpwlMin, PositiveAndBelowRandom) {
  const auto inst = instance_of(netlist::make_ota2());
  std::mt19937_64 rng(13);
  const double ref = estimate_hpwl_min(inst, rng, 800);
  EXPECT_GT(ref, 0.0);
  std::mt19937_64 rng2(14);
  const double random_hpwl = floorplan::hpwl_of(
      inst, pack(inst, SequencePair::random(inst.num_blocks(), rng2)));
  EXPECT_LE(ref, random_hpwl + 1e-9);
}

}  // namespace
}  // namespace afp::metaheur
