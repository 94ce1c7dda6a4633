// Property-based and parameterized sweeps across modules: invariants that
// must hold for every circuit in the registry, both constraint settings,
// and randomized inputs.
#include <gtest/gtest.h>

#include "env/env.hpp"
#include "metaheur/baselines.hpp"
#include "netlist/library.hpp"
#include "route/oarsmt.hpp"

namespace afp {
namespace {

struct CircuitParam {
  std::string name;
  bool constrained;
};

std::string param_name(const ::testing::TestParamInfo<CircuitParam>& info) {
  return info.param.name + (info.param.constrained ? "_constrained" : "_free");
}

std::vector<CircuitParam> all_params() {
  std::vector<CircuitParam> out;
  for (const auto& e : netlist::circuit_registry()) {
    out.push_back({e.name, false});
    out.push_back({e.name, true});
  }
  return out;
}

floorplan::Instance instance_of(const CircuitParam& p) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == p.name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  if (p.constrained) {
    graphir::apply_constraints(g, graphir::default_constraints(g));
  }
  return floorplan::make_instance(g);
}

// ---------------------------------------------------------------- grid ---

class GridProperty : public ::testing::TestWithParam<CircuitParam> {};

TEST_P(GridProperty, MaskFollowingEpisodesAreSound) {
  // For every circuit and constraint setting: following the position mask
  // either completes the floorplan (then: no overlaps, inside canvas,
  // constraints satisfied) or dead-ends (then: some earlier choice closed
  // the space — still sound, the env charges -50).
  const auto inst = instance_of(GetParam());
  floorplan::GridFloorplan fp(inst, 32);
  bool dead_end = false;
  for (int b : inst.placement_order()) {
    const auto mask = fp.position_mask(b, 1);
    int cell = -1;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] > 0.5f) {
        cell = static_cast<int>(i);
        break;
      }
    }
    if (cell < 0) {
      dead_end = true;
      break;
    }
    fp.place(b, 1, cell % 32, cell / 32);
  }
  if (dead_end) {
    SUCCEED();
    return;
  }
  ASSERT_TRUE(fp.complete());
  const auto rects = fp.rects();
  EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0);
  for (const auto& r : rects) {
    EXPECT_GE(r.x, -1e-9);
    EXPECT_GE(r.y, -1e-9);
    EXPECT_LE(r.right(), inst.canvas_w + 1e-9);
    EXPECT_LE(r.top(), inst.canvas_h + 1e-9);
  }
  // Symmetry is exact (block centers coincide with grid centers);
  // alignment is exact at grid granularity, i.e. within half a cell.
  const double tol = inst.canvas_w / 32.0 / 2.0 + 1e-9;
  EXPECT_EQ(floorplan::constraint_violations(inst, rects, tol), 0);
}

TEST_P(GridProperty, PositionMaskAgreesWithValid) {
  const auto inst = instance_of(GetParam());
  floorplan::GridFloorplan fp(inst, 32);
  // Place the first two blocks, then cross-check mask vs valid() for the
  // third on a sampled grid subset (full 3x1024 check per shape is cheap
  // enough for small circuits; sample for big ones).
  const auto order = inst.placement_order();
  for (int k = 0; k < 2 && k < static_cast<int>(order.size()); ++k) {
    const int b = order[static_cast<std::size_t>(k)];
    const auto mask = fp.position_mask(b, 0);
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] > 0.5f) {
        fp.place(b, 0, static_cast<int>(i) % 32, static_cast<int>(i) / 32);
        break;
      }
    }
  }
  if (static_cast<int>(order.size()) < 3) return;
  const int b = order[2];
  for (int s = 0; s < floorplan::kNumShapes; ++s) {
    const auto mask = fp.position_mask(b, s);
    for (int row = 0; row < 32; row += 3) {
      for (int col = 0; col < 32; col += 3) {
        EXPECT_EQ(mask[static_cast<std::size_t>(row) * 32 + col] > 0.5f,
                  fp.valid(b, s, col, row))
            << "shape " << s << " cell (" << col << "," << row << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, GridProperty,
                         ::testing::ValuesIn(all_params()), param_name);

// ----------------------------------------------------------------- env ---

class EnvProperty : public ::testing::TestWithParam<CircuitParam> {};

TEST_P(EnvProperty, IntermediateRewardsTelescope) {
  // Eq. (4) rewards telescope: the sum of the per-step terms equals
  // -(final dead space + final HPWL / (W + H)); the terminal step adds the
  // Eq. (5) reward on top.
  const auto inst = instance_of(GetParam());
  env::FloorplanEnv environment(inst);
  auto obs = environment.reset();
  double sum = 0.0;
  env::StepResult last;
  while (!obs.done) {
    int a = -1;
    for (std::size_t i = 0; i < obs.action_mask.size(); ++i) {
      if (obs.action_mask[i] > 0.5f) {
        a = static_cast<int>(i);
        break;
      }
    }
    if (a < 0) return;  // constrained dead end: nothing to check
    last = environment.step(a);
    sum += last.reward;
    obs = last.obs;
  }
  if (last.violated || !last.final_eval) return;
  const auto& grid = environment.grid();
  const double expected_partial =
      -(grid.partial_dead_space() +
        grid.partial_hpwl() / (inst.canvas_w + inst.canvas_h));
  EXPECT_NEAR(sum, expected_partial + last.final_eval->reward, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, EnvProperty,
                         ::testing::ValuesIn(all_params()), param_name);

// ------------------------------------------------------------- seq pair ---

class SequencePairProperty : public ::testing::TestWithParam<CircuitParam> {};

TEST_P(SequencePairProperty, RandomPackingsAreAlwaysLegal) {
  const auto inst = instance_of(GetParam());
  std::mt19937_64 rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto sp = metaheur::SequencePair::random(inst.num_blocks(), rng);
    for (double spacing : {0.0, 0.7}) {
      const auto rects = metaheur::pack(inst, sp, spacing);
      ASSERT_EQ(static_cast<int>(rects.size()), inst.num_blocks());
      EXPECT_DOUBLE_EQ(geom::total_pairwise_overlap(rects), 0.0);
      for (const auto& r : rects) {
        EXPECT_GE(r.x, -1e-9);
        EXPECT_GE(r.y, -1e-9);
      }
    }
  }
}

TEST_P(SequencePairProperty, PackRespectsOrderingRelations) {
  // a before b in both sequences -> a strictly left of b (no x overlap of
  // padded slots); a before b in s1, after in s2 -> a above b.
  const auto inst = instance_of(GetParam());
  if (inst.num_blocks() < 2) return;
  std::mt19937_64 rng(7);
  const auto sp = metaheur::SequencePair::random(inst.num_blocks(), rng);
  const auto rects = metaheur::pack(inst, sp, 0.0);
  std::vector<int> pos1(rects.size()), pos2(rects.size());
  for (std::size_t i = 0; i < rects.size(); ++i) {
    pos1[static_cast<std::size_t>(sp.s1[i])] = static_cast<int>(i);
    pos2[static_cast<std::size_t>(sp.s2[i])] = static_cast<int>(i);
  }
  for (int a = 0; a < inst.num_blocks(); ++a) {
    for (int b = 0; b < inst.num_blocks(); ++b) {
      if (a == b) continue;
      if (pos1[static_cast<std::size_t>(a)] < pos1[static_cast<std::size_t>(b)] &&
          pos2[static_cast<std::size_t>(a)] < pos2[static_cast<std::size_t>(b)]) {
        EXPECT_LE(rects[static_cast<std::size_t>(a)].right(),
                  rects[static_cast<std::size_t>(b)].x + 1e-9)
            << "blocks " << a << "," << b;
      }
      if (pos1[static_cast<std::size_t>(a)] < pos1[static_cast<std::size_t>(b)] &&
          pos2[static_cast<std::size_t>(a)] > pos2[static_cast<std::size_t>(b)]) {
        EXPECT_GE(rects[static_cast<std::size_t>(a)].y,
                  rects[static_cast<std::size_t>(b)].top() - 1e-9)
            << "blocks " << a << "," << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, SequencePairProperty,
                         ::testing::ValuesIn(all_params()), param_name);

// ----------------------------------------------------------------- route ---

TEST(RouteProperty, TreeLengthBoundedBelowByHpwl) {
  // The OARSMT length is at least the net's HPWL (a Steiner lower bound
  // relaxation) and, without obstacles, at most the star wirelength.
  std::mt19937_64 rng(3);
  std::uniform_real_distribution<double> unif(0.0, 50.0);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<geom::Point> pins;
    const int n = 2 + trial % 5;
    for (int i = 0; i < n; ++i) pins.push_back({unif(rng), unif(rng)});
    const auto tree = route::route_net(pins, {});
    const double hp = geom::hpwl_net(pins);
    EXPECT_GE(tree.length(), hp - 1e-6) << "trial " << trial;
    double star = 0.0;
    for (std::size_t i = 1; i < pins.size(); ++i) {
      star += geom::manhattan(pins[0], pins[i]);
    }
    EXPECT_LE(tree.length(), star + 1e-6) << "trial " << trial;
  }
}

TEST(RouteProperty, ObstacleRoutesAvoidAndStayBounded) {
  // With an obstacle the heuristic tree (a) never crosses it, (b) stays at
  // or above the HPWL lower bound.  Note: strict length monotonicity vs
  // the obstacle-free tree does NOT hold for a greedy Steiner heuristic —
  // obstacle edges enrich the escape grid with extra Steiner candidates.
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> unif(0.0, 40.0);
  const geom::Rect obstacle{15.0, 15.0, 6.0, 6.0};
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<geom::Point> pins{{unif(rng), unif(rng)},
                                        {unif(rng), unif(rng)},
                                        {unif(rng), unif(rng)}};
    bool clear = true;
    for (const auto& p : pins) {
      clear = clear && !obstacle.inflated(0.2).contains(p);
    }
    if (!clear) continue;
    const auto tree = route::route_net(pins, {{obstacle}});
    EXPECT_GE(tree.length(), geom::hpwl_net(pins) - 1e-6);
    const geom::Rect core = obstacle.inflated(-0.1);
    for (const auto& [a, b] : tree.edges) {
      const auto pa = tree.nodes[static_cast<std::size_t>(a)];
      const auto pb = tree.nodes[static_cast<std::size_t>(b)];
      const geom::Point mid{(pa.x + pb.x) / 2.0, (pa.y + pb.y) / 2.0};
      EXPECT_FALSE(core.contains(mid)) << "trial " << trial;
    }
  }
}

// ---------------------------------------------------------------- reward ---

TEST(RewardProperty, EvaluationMonotoneInPacking) {
  // Spreading any floorplan strictly apart can only lower the reward.
  std::mt19937_64 rng(5);
  for (const auto& e : netlist::circuit_registry()) {
    const auto inst = instance_of({e.name, false});
    const auto sp = metaheur::SequencePair::random(inst.num_blocks(), rng);
    const auto tight = metaheur::pack(inst, sp, 0.0);
    const auto spread = metaheur::pack(inst, sp, 2.0);
    const auto ev_tight = floorplan::evaluate_floorplan(inst, tight);
    const auto ev_spread = floorplan::evaluate_floorplan(inst, spread);
    EXPECT_GE(ev_tight.reward, ev_spread.reward - 1e-9) << e.name;
  }
}

}  // namespace
}  // namespace afp
