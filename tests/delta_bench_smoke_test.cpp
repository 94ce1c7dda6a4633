// Bench-smoke gate for the incremental evaluation engine: over every
// Table I circuit, a seeded SA run (both encodings) and a seeded PT run
// must produce bitwise-identical best floorplans under AFP_EVAL=full and
// AFP_EVAL=delta.  This is the end-to-end guarantee behind the bench's
// delta-vs-full speedup table: the fast path changes wall time only, never
// a result.
#include <gtest/gtest.h>

#include <cstring>

#include "metaheur/eval_cache.hpp"
#include "metaheur/tempering.hpp"
#include "netlist/library.hpp"

namespace afp {
namespace {

const char* const kTableICircuits[] = {"ota1",     "ota2",   "bias1",
                                       "rs_latch", "driver", "bias2"};

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

void expect_same(const metaheur::BaselineResult& full,
                 const metaheur::BaselineResult& delta,
                 const std::string& what) {
  ASSERT_EQ(full.rects.size(), delta.rects.size()) << what;
  for (std::size_t i = 0; i < full.rects.size(); ++i) {
    EXPECT_TRUE(same_bits(full.rects[i].x, delta.rects[i].x) &&
                same_bits(full.rects[i].y, delta.rects[i].y) &&
                same_bits(full.rects[i].w, delta.rects[i].w) &&
                same_bits(full.rects[i].h, delta.rects[i].h))
        << what << ": rect " << i;
  }
  EXPECT_TRUE(same_bits(full.eval.reward, delta.eval.reward))
      << what << ": reward " << full.eval.reward << " vs "
      << delta.eval.reward;
  EXPECT_EQ(full.evaluations, delta.evaluations) << what;
}

template <class RunFn>
void compare_modes(RunFn run, const std::string& what) {
  metaheur::BaselineResult full, delta;
  {
    ScopedEvalMode scoped(metaheur::EvalMode::kFull);
    full = run();
  }
  {
    ScopedEvalMode scoped(metaheur::EvalMode::kDelta);
    delta = run();
  }
  expect_same(full, delta, what);
}

TEST(DeltaBenchSmoke, SaBestCostsMatchFullOnTableI) {
  for (const char* name : kTableICircuits) {
    const auto inst = instance_of(name);
    metaheur::SAParams p;
    p.iterations = 600;
    compare_modes(
        [&]() {
          std::mt19937_64 rng(11);
          return run_sa(inst, p, rng);
        },
        std::string("sa/") + name);
    metaheur::SAParams bp;
    bp.iterations = 600;
    compare_modes(
        [&]() {
          std::mt19937_64 rng(11);
          return run_sa_bstar(inst, bp, rng);
        },
        std::string("sab/") + name);
  }
}

TEST(DeltaBenchSmoke, PtBestCostsMatchFullOnTableI) {
  for (const char* name : kTableICircuits) {
    const auto inst = instance_of(name);
    metaheur::PTParams p;
    p.replicas = 3;
    p.iterations = 200;
    compare_modes(
        [&]() {
          std::mt19937_64 rng(23);
          return run_pt(inst, p, rng);
        },
        std::string("pt/") + name);
  }
}

}  // namespace
}  // namespace afp
