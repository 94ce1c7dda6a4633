// Determinism tests for the parallel metaheuristics: SA multi-restart, GA
// and PSO (parallel population scoring) and B*-tree SA multi-restart must
// produce bitwise-identical best cost and layout whether the shared pool
// runs 1 or 4 threads, and seeded runs must be reproducible across repeats.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "metaheur/optimizer.hpp"
#include "metaheur/parallel_search.hpp"
#include "metaheur/tempering.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp::metaheur {
namespace {

floorplan::Instance instance_of(const netlist::Netlist& nl) {
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  return floorplan::make_instance(g);
}

void expect_identical(const BaselineResult& a, const BaselineResult& b,
                      const char* what) {
  EXPECT_EQ(a.method, b.method) << what;
  EXPECT_EQ(a.evaluations, b.evaluations) << what;
  // Bitwise-equal reward and layout: the packed rectangles are pure doubles
  // computed from the same candidate, so any drift means the search path
  // diverged.
  EXPECT_EQ(a.eval.reward, b.eval.reward) << what;
  EXPECT_EQ(a.eval.hpwl, b.eval.hpwl) << what;
  ASSERT_EQ(a.rects.size(), b.rects.size()) << what;
  for (std::size_t i = 0; i < a.rects.size(); ++i)
    EXPECT_EQ(a.rects[i], b.rects[i]) << what << " rect " << i;
}

/// Runs `search` under 1 and 4 pool threads plus a repeat, and requires all
/// three results to be identical.
void check_thread_invariance(
    const std::function<BaselineResult()>& search, const char* what) {
  num::set_num_threads(1);
  const BaselineResult r1 = search();
  const BaselineResult r1_repeat = search();
  num::set_num_threads(4);
  const BaselineResult r4 = search();
  num::set_num_threads(0);  // restore the ambient default
  expect_identical(r1, r1_repeat, (std::string(what) + " repeat").c_str());
  expect_identical(r1, r4, (std::string(what) + " 1-vs-4 threads").c_str());
}

TEST(RestartRng, StreamsAreStableAndDistinct) {
  auto a = restart_rng(7, 0);
  auto b = restart_rng(7, 0);
  EXPECT_EQ(a(), b());  // same (seed, restart) -> same stream
  auto c = restart_rng(7, 1);
  auto d = restart_rng(8, 0);
  std::mt19937_64 a2 = restart_rng(7, 0);
  EXPECT_NE(a2(), c());
  EXPECT_NE(a2(), d());
}

TEST(MultiStart, RejectsZeroRestarts) {
  const auto inst = instance_of(netlist::make_ota_small());
  EXPECT_THROW(run_multistart(inst, *make_optimizer("sa"), {}, {0, 1}),
               std::invalid_argument);
}

TEST(MultiStart, SaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  const auto sa = make_optimizer("sa", {{"iterations", "600"}});
  check_thread_invariance(
      [&] { return run_multistart(inst, *sa, {}, {4, 11}); }, "SA x4");
}

TEST(MultiStart, BStarSaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_bias1());
  const auto sab = make_optimizer("sab", {{"iterations", "600"}});
  check_thread_invariance(
      [&] { return run_multistart(inst, *sab, {}, {4, 5}); }, "SA-B* x4");
}

TEST(ParallelPopulations, GaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  GAParams p;
  p.population = 10;
  p.generations = 8;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(33);  // fresh stream per run
        return run_ga(inst, p, rng);
      },
      "GA");
}

TEST(ParallelPopulations, PsoIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  PSOParams p;
  p.particles = 8;
  p.iterations = 10;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(44);
        return run_pso(inst, p, rng);
      },
      "PSO");
}

TEST(MultiStart, GaIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota_small());
  const auto ga =
      make_optimizer("ga", {{"population", "8"}, {"generations", "5"}});
  check_thread_invariance(
      [&] { return run_multistart(inst, *ga, {}, {3, 9}); }, "GA x3");
}

// ------------------------------------------------ parallel tempering ---

TEST(Tempering, SwapProbabilityMatchesHandComputedReference) {
  // P(swap) = min(1, exp((1/Ti - 1/Tj)(Ci - Cj))).  Hand-computed cases:
  //  Ti=0.5, Tj=1.0, Ci=3, Cj=5: exponent (2-1)(3-5) = -2  -> e^-2
  EXPECT_DOUBLE_EQ(pt_swap_probability(3.0, 5.0, 0.5, 1.0), std::exp(-2.0));
  //  Ti=0.5, Tj=1.0, Ci=5, Cj=3: exponent (2-1)(5-3) = +2  -> clipped to 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(5.0, 3.0, 0.5, 1.0), 1.0);
  //  Ti=0.25, Tj=2.0, Ci=1.5, Cj=1.0: (4-0.5)(0.5) = 1.75 -> 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(1.5, 1.0, 0.25, 2.0), 1.0);
  //  Symmetric temperatures never reject: exponent 0 -> 1
  EXPECT_DOUBLE_EQ(pt_swap_probability(4.0, 9.0, 1.0, 1.0), 1.0);
  //  Ti=1, Tj=4, Ci=2, Cj=10: (1-0.25)(-8) = -6 -> e^-6
  EXPECT_DOUBLE_EQ(pt_swap_probability(2.0, 10.0, 1.0, 4.0), std::exp(-6.0));
}

TEST(Tempering, GeometricLadderIsMonotoneAndGeometric) {
  const auto t = geometric_ladder(1e-3, 2.0, 6);
  ASSERT_EQ(t.size(), 6u);
  EXPECT_DOUBLE_EQ(t.front(), 1e-3);
  EXPECT_DOUBLE_EQ(t.back(), 2.0);
  for (std::size_t k = 1; k < t.size(); ++k) {
    EXPECT_GT(t[k], t[k - 1]) << "rung " << k;
  }
  // Constant ratio between adjacent rungs (geometric schedule).
  const double ratio = t[1] / t[0];
  for (std::size_t k = 2; k < t.size(); ++k) {
    EXPECT_NEAR(t[k] / t[k - 1], ratio, 1e-9) << "rung " << k;
  }
  EXPECT_THROW(geometric_ladder(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(geometric_ladder(2.0, 1.0, 4), std::invalid_argument);
}

TEST(Tempering, ReplicaStreamsAreStableDistinctAndSeparated) {
  auto a = replica_rng(7, 0);
  auto b = replica_rng(7, 0);
  EXPECT_EQ(a(), b());  // same (seed, replica) -> same stream
  auto c = replica_rng(7, 1);
  auto d = replica_rng(8, 0);
  auto swap_stream = replica_rng(7, -1);
  std::mt19937_64 a2 = replica_rng(7, 0);
  EXPECT_NE(a2(), c());
  EXPECT_NE(a2(), d());
  EXPECT_NE(a2(), swap_stream());
  // Domain separation from the multi-restart streams.
  auto restart = restart_rng(7, 0);
  std::mt19937_64 a3 = replica_rng(7, 0);
  EXPECT_NE(a3(), restart());
}

TEST(Tempering, RejectsDegenerateParams) {
  const auto inst = instance_of(netlist::make_ota_small());
  std::mt19937_64 rng(1);
  PTParams p;
  p.replicas = 1;
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
  p = {};
  p.swap_interval = 0;
  EXPECT_THROW(run_pt(inst, p, rng), std::invalid_argument);
}

TEST(Tempering, PtIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota2());
  PTParams p;
  p.replicas = 6;
  p.iterations = 120;
  p.swap_interval = 8;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(17);
        return run_pt(inst, p, rng);
      },
      "PT");
}

TEST(Tempering, PtBStarIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_bias1());
  PTParams p;
  p.replicas = 5;
  p.iterations = 100;
  p.swap_interval = 10;
  p.representation = Representation::kBStarTree;
  check_thread_invariance(
      [&] {
        std::mt19937_64 rng(23);
        return run_pt(inst, p, rng);
      },
      "PT-B*");
}

TEST(Tempering, MultiStartPtIsThreadCountInvariant) {
  const auto inst = instance_of(netlist::make_ota_small());
  const auto pt =
      make_optimizer("pt", {{"replicas", "4"}, {"iterations", "80"}});
  check_thread_invariance(
      [&] { return run_multistart(inst, *pt, {}, {3, 13}); }, "PT x3");
}

TEST(Tempering, BestIsNoWorseThanEveryReplicaStart) {
  // The returned best must beat (or match) each replica's initial state:
  // the chains only ever improve their per-replica best.
  const auto inst = instance_of(netlist::make_ota2());
  PTParams p;
  p.replicas = 6;
  p.iterations = 200;
  std::mt19937_64 rng(31);
  const auto res = run_pt(inst, p, rng);
  const double best = sp_cost(inst, res.rects);
  const double spacing = inst.canvas_w / 32.0;
  std::mt19937_64 seed_rng(31);
  const std::uint64_t base_seed = seed_rng();
  for (int k = 0; k < p.replicas; ++k) {
    auto rrng = replica_rng(base_seed, k);
    const auto sp = SequencePair::random(inst.num_blocks(), rrng);
    EXPECT_GE(sp_cost(inst, pack(inst, sp, spacing)), best - 1e-12)
        << "replica " << k;
  }
  EXPECT_EQ(res.evaluations,
            static_cast<long>(p.replicas) * (1 + p.iterations));
  EXPECT_EQ(res.method, "PT");
}

TEST(MultiStart, BestOfRestartsIsNoWorseThanAnySingleRestart) {
  const auto inst = instance_of(netlist::make_ota2());
  SAParams p;
  p.iterations = 500;
  const MultiStartOptions opt{4, 21};
  const auto multi = run_multistart(
      inst, *make_optimizer("sa", {{"iterations", "500"}}), {}, opt);
  const double multi_cost = sp_cost(inst, multi.rects);
  long total_evals = 0;
  for (int k = 0; k < opt.restarts; ++k) {
    auto rng = restart_rng(opt.base_seed, k);
    const auto single = run_sa(inst, p, rng);
    EXPECT_GE(sp_cost(inst, single.rects), multi_cost - 1e-12)
        << "restart " << k;
    total_evals += single.evaluations;
  }
  EXPECT_EQ(multi.evaluations, total_evals);
  EXPECT_EQ(multi.method, "SAx4");
}

}  // namespace
}  // namespace afp::metaheur
