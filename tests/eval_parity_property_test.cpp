// Property harness for the incremental evaluation engine
// (metaheur/eval_cache): over 200 seeds per (circuit, representation), long
// accept/reject move walks must score bitwise identically through the delta
// evaluator, the AFP_EVAL=check oracle (which recomputes the legacy path on
// every call and throws std::logic_error on any cost or rect divergence),
// and a from-scratch pack + sp_cost done here.  Separately, parallel
// tempering, whose replicas step concurrently, must stay bitwise
// thread-invariant (1 vs 4 pool threads).
#include <gtest/gtest.h>

#include <cstring>

#include "ingest/scenario.hpp"
#include "metaheur/baselines.hpp"
#include "metaheur/eval_cache.hpp"
#include "metaheur/tempering.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp {
namespace {

constexpr int kSeeds = 200;
constexpr int kWalkLength = 40;

floorplan::Instance instance_of(const std::string& name) {
  netlist::Netlist nl;
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == name) nl = e.make();
  }
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  return floorplan::make_instance(g);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/// Restores the process-wide eval mode on scope exit so test order (and the
/// CI AFP_EVAL=check leg) cannot leak a mode into unrelated tests.
class ScopedEvalMode {
 public:
  explicit ScopedEvalMode(metaheur::EvalMode m)
      : prev_(metaheur::eval_mode()) {
    metaheur::set_eval_mode(m);
  }
  ~ScopedEvalMode() { metaheur::set_eval_mode(prev_); }

 private:
  metaheur::EvalMode prev_;
};

struct RepCase {
  std::string circuit;
  metaheur::Representation rep;
};

std::string case_name(const ::testing::TestParamInfo<RepCase>& info) {
  return info.param.circuit + "_" + metaheur::to_string(info.param.rep);
}

class EvalParityProperty : public ::testing::TestWithParam<RepCase> {};

/// One SA-shaped walk: candidate = accepted state + a burst of moves, with a
/// deterministic accept/reject pattern so the evaluator's cached packing
/// regularly diverges from the proposed state (the rejected-candidate diff
/// is the hard case for delta repacking).  Every evaluation is compared
/// bitwise against a from-scratch pack + sp_cost.
template <class State, class MutateFn, class EvalFn, class OracleFn>
void run_walk(State cur, MutateFn mutate, EvalFn eval, OracleFn oracle,
              std::mt19937_64& rng, int seed) {
  double cur_cost = 0.0;
  bool have_cur = false;
  std::uniform_int_distribution<int> burst(1, 3);
  for (int step = 0; step < kWalkLength; ++step) {
    State cand = cur;
    const int moves = burst(rng);
    for (int m = 0; m < moves; ++m) mutate(cand, rng);
    const double got = eval(cand);
    const double want = oracle(cand);
    ASSERT_TRUE(same_bits(got, want))
        << "seed " << seed << " step " << step << ": delta=" << got
        << " full=" << want;
    if (!have_cur || got < cur_cost || step % 3 == 0) {
      cur = std::move(cand);
      cur_cost = got;
      have_cur = true;
    }
  }
}

TEST_P(EvalParityProperty, DeltaMatchesFullOverMoveWalks) {
  const auto& param = GetParam();
  const auto inst = instance_of(param.circuit);
  for (const auto mode :
       {metaheur::EvalMode::kDelta, metaheur::EvalMode::kCheck}) {
    ScopedEvalMode scoped(mode);
    for (int seed = 0; seed < kSeeds; ++seed) {
      std::mt19937_64 rng(static_cast<std::uint64_t>(seed) + 7);
      const double spacing = seed % 2 == 0 ? 0.0 : inst.canvas_w / 32.0;
      if (param.rep == metaheur::Representation::kBStarTree) {
        metaheur::BStarEvaluator ev(inst, spacing);
        run_walk(
            metaheur::BStarTree::random(inst.num_blocks(), rng),
            [](metaheur::BStarTree& t, std::mt19937_64& r) {
              std::uniform_int_distribution<int> d(
                  0, metaheur::kNumBStarMoves - 1);
              apply_bstar_move(t, static_cast<metaheur::BStarMove>(d(r)), r);
            },
            [&](const metaheur::BStarTree& t) { return ev.cost(t); },
            [&](const metaheur::BStarTree& t) {
              return metaheur::sp_cost(inst, pack_bstar(inst, t, spacing));
            },
            rng, seed);
      } else {
        metaheur::SpEvaluator ev(inst, spacing);
        run_walk(
            metaheur::SequencePair::random(inst.num_blocks(), rng),
            [](metaheur::SequencePair& s, std::mt19937_64& r) {
              std::uniform_int_distribution<int> d(0, metaheur::kNumMoves - 1);
              apply_move(s, static_cast<metaheur::Move>(d(r)), r);
            },
            [&](const metaheur::SequencePair& s) { return ev.cost(s); },
            [&](const metaheur::SequencePair& s) {
              return metaheur::sp_cost(inst, pack(inst, s, spacing));
            },
            rng, seed);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Representations, EvalParityProperty,
    ::testing::Values(
        RepCase{"ota2", metaheur::Representation::kSequencePair},
        RepCase{"ota2", metaheur::Representation::kBStarTree},
        RepCase{"bias2", metaheur::Representation::kSequencePair},
        RepCase{"bias2", metaheur::Representation::kBStarTree}),
    case_name);

TEST(HpwlReferenceParity, SameBitsAndRngStateInEveryModeAcrossCrossover) {
  // estimate_hpwl_min switches to SpEvaluator::hpwl() at
  // kHpwlDeltaMinBlocks; on both sides of that switch the reference and
  // the caller's rng state after it must not depend on the eval mode.
  for (const int blocks : {8, 19, 20, 24, 64, 200}) {
    ingest::ScenarioSpec spec;
    spec.size = blocks;
    const netlist::Netlist nl = ingest::make_scenario(spec).netlist;
    const auto inst = floorplan::make_instance(
        graphir::build_graph(nl, structrec::recognize(nl)));
    ASSERT_EQ(inst.num_blocks(), blocks);
    double want = 0.0;
    std::mt19937_64 want_rng;
    for (const auto mode :
         {metaheur::EvalMode::kFull, metaheur::EvalMode::kDelta,
          metaheur::EvalMode::kCheck}) {
      ScopedEvalMode scoped(mode);
      std::mt19937_64 rng(static_cast<std::uint64_t>(blocks));
      const double got = metaheur::estimate_hpwl_min(inst, rng);
      if (mode == metaheur::EvalMode::kFull) {
        want = got;
        want_rng = rng;
        continue;
      }
      EXPECT_TRUE(same_bits(got, want))
          << blocks << " blocks, mode " << to_string(mode) << ": " << got
          << " vs full " << want;
      EXPECT_TRUE(rng == want_rng)
          << blocks << " blocks, mode " << to_string(mode);
    }
  }
}

void expect_same_result(const metaheur::BaselineResult& a,
                        const metaheur::BaselineResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.rects.size(), b.rects.size()) << what;
  for (std::size_t i = 0; i < a.rects.size(); ++i) {
    EXPECT_TRUE(same_bits(a.rects[i].x, b.rects[i].x) &&
                same_bits(a.rects[i].y, b.rects[i].y) &&
                same_bits(a.rects[i].w, b.rects[i].w) &&
                same_bits(a.rects[i].h, b.rects[i].h))
        << what << ": rect " << i;
  }
  EXPECT_TRUE(same_bits(a.eval.reward, b.eval.reward)) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
}

TEST(PtDeterminism, ReplicasAreThreadInvariant) {
  // PT replicas step concurrently on the pool, each with its own evaluator;
  // the ensemble must stay bitwise identical across thread counts.
  ScopedEvalMode scoped(metaheur::EvalMode::kDelta);
  const auto inst = instance_of("ota2");
  auto run_with = [&](int threads) {
    metaheur::PTParams p;
    p.replicas = 4;
    p.iterations = 200;
    num::set_num_threads(threads);
    std::mt19937_64 rng(42);
    auto r = run_pt(inst, p, rng);
    num::set_num_threads(0);  // restore the ambient default
    return r;
  };
  expect_same_result(run_with(1), run_with(4), "pt 1 vs 4 threads");
}

}  // namespace
}  // namespace afp
