// The one annealing step every Metropolis search in metaheur runs: SA over
// both encodings, RL-SA, each parallel-tempering replica and the HPWL
// reference (estimate_hpwl_min).
//
// A Chain trait adapts an encoding: State, its incremental Evaluator,
// random() / mutate() drawing only from the caller's stream, and
// pack_state() for the final result.  Annealer<Chain> holds one chain's
// current and best state; step() mutates a copy, scores it, and accepts it
// outright when it is strictly downhill.  Otherwise it draws a uniform u
// and accepts when u < exp(-delta / temp), which always holds for an
// equal-cost move.  The uniform is drawn only off the strictly-downhill
// branch: that draw order fixes every search result, and
// tests/search_golden_test.cpp pins those results across commits.
#pragma once

#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "metaheur/eval_cache.hpp"

namespace afp::metaheur {

struct SpChain {
  using State = SequencePair;
  using Evaluator = SpEvaluator;
  static State random(const floorplan::Instance& inst, std::mt19937_64& rng) {
    return SequencePair::random(inst.num_blocks(), rng);
  }
  static void mutate(State& s, std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, kNumMoves - 1);
    apply_move(s, static_cast<Move>(d(rng)), rng);
  }
  static std::vector<geom::Rect> pack_state(const floorplan::Instance& inst,
                                            const State& s, double spacing) {
    return pack(inst, s, spacing);
  }
};

struct BStarChain {
  using State = BStarTree;
  using Evaluator = BStarEvaluator;
  static State random(const floorplan::Instance& inst, std::mt19937_64& rng) {
    return BStarTree::random(inst.num_blocks(), rng);
  }
  static void mutate(State& s, std::mt19937_64& rng) {
    std::uniform_int_distribution<int> d(0, kNumBStarMoves - 1);
    apply_bstar_move(s, static_cast<BStarMove>(d(rng)), rng);
  }
  static std::vector<geom::Rect> pack_state(const floorplan::Instance& inst,
                                            const State& s, double spacing) {
    return pack_bstar(inst, s, spacing);
  }
};

/// The usual Score callable: a state's cost under a chain evaluator.
template <class Evaluator>
auto score_with(Evaluator& ev) {
  return [&ev](const auto& state) { return ev.cost(state); };
}

/// One annealing chain: its current and best state with their costs.
/// Public so parallel tempering can exchange current states between
/// chains; each chain keeps its own best.
template <class Chain>
struct Annealer {
  using State = typename Chain::State;

  State cur;
  double cur_cost = 0.0;
  State best;
  double best_cost = 0.0;

  /// Starts at Chain::random; `score(state)` returns a state's cost.
  template <class Score>
  void start(const floorplan::Instance& inst, std::mt19937_64& rng,
             Score&& score) {
    cur = Chain::random(inst, rng);
    cur_cost = score(cur);
    best = cur;
    best_cost = cur_cost;
  }

  /// One Metropolis step at `temp` with a caller-chosen move
  /// (`mutate(state)`).  Returns the candidate's cost.
  template <class Score, class Mutate>
  double step(double temp, std::mt19937_64& rng, Score&& score,
              Mutate&& mutate) {
    State cand = cur;
    mutate(cand);
    const double cost = score(cand);
    std::uniform_real_distribution<double> unif(0.0, 1.0);
    if (cost < cur_cost || unif(rng) < std::exp((cur_cost - cost) / temp)) {
      cur = std::move(cand);
      cur_cost = cost;
      if (cur_cost < best_cost) {
        best = cur;
        best_cost = cur_cost;
      }
    }
    return cost;
  }

  /// One Metropolis step with a random Chain::mutate move.
  template <class Score>
  double step(double temp, std::mt19937_64& rng, Score&& score) {
    return step(temp, rng, score,
                [&rng](State& s) { Chain::mutate(s, rng); });
  }
};

}  // namespace afp::metaheur
