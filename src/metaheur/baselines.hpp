// Metaheuristic floorplanning baselines: simulated annealing, genetic
// algorithm, particle-swarm optimization, and reimplementations of the two
// sequence-pair RL agents of Basso et al., SMACD 2024 [13] (RL-SA and pure
// RL).  All operate on the SequencePair encoding and are scored by the
// shared sp_cost / evaluate_floorplan metric code.
#pragma once

#include <chrono>
#include <random>
#include <string>

#include "metaheur/sequence_pair.hpp"
#include "metaheur/stop.hpp"

namespace afp::metaheur {

/// Result record common to all baselines.
struct BaselineResult {
  std::string method;
  std::vector<geom::Rect> rects;
  floorplan::Evaluation eval;
  double runtime_s = 0.0;
  long evaluations = 0;  ///< packed-and-scored candidate count
};

/// The knobs every search shares: the base of each run_* entry point's
/// parameter struct (and of PTParams).
struct SearchParams {
  double spacing_um = -1.0;  ///< congestion margin; < 0 = auto (one grid cell)
  /// Polled by the inner loop (per move, generation, sweep or episode); a
  /// stopped run returns its best-so-far.  Null = never stops.
  const CancelToken* stop = nullptr;
  /// Range check of the struct's own knobs; throws std::invalid_argument.
  /// Each run_* entry point calls its struct's check, and so does the
  /// registry once configure() has applied the options.
  void check() const {}
};

struct SAParams : SearchParams {
  int iterations = 4000;
  double t_start = 2.0;
  double t_end = 1e-3;
  /// Finite t_start > 0 and t_end > 0.
  void check() const;
};

struct GAParams : SearchParams {
  int population = 24;
  int generations = 60;
  double crossover_rate = 0.9;
  double mutation_rate = 0.3;
  int tournament = 3;
};

struct PSOParams : SearchParams {
  int particles = 20;
  int iterations = 80;
  double inertia = 0.72;
  double c1 = 1.5;  ///< cognitive coefficient
  double c2 = 1.5;  ///< social coefficient
};

struct RLSAParams : SearchParams {
  int iterations = 4000;
  double t_start = 2.0;
  double t_end = 1e-3;
  double learning_rate = 0.1;
  /// Finite t_start > 0 and t_end > 0.
  void check() const;
};

struct RLSPParams : SearchParams {
  int episodes = 160;
  int steps_per_episode = 60;
  double learning_rate = 0.05;
};

/// Resolves a congestion-aware spacing parameter: negative means "auto",
/// one grid cell of the 32x32 placement canvas — the same routing allowance
/// the RL method's quantization reserves (Section V-B fairness note).
/// Shared by every representation so equal-budget comparisons stay fair.
double resolve_spacing(const floorplan::Instance& inst, double spacing_um);

BaselineResult run_sa(const floorplan::Instance& inst, const SAParams& p,
                      std::mt19937_64& rng);
BaselineResult run_ga(const floorplan::Instance& inst, const GAParams& p,
                      std::mt19937_64& rng);
BaselineResult run_pso(const floorplan::Instance& inst, const PSOParams& p,
                       std::mt19937_64& rng);
/// RL-SA of [13]: annealing whose move-type selection is a softmax policy
/// updated online by REINFORCE on the acceptance improvement.
BaselineResult run_rlsa(const floorplan::Instance& inst, const RLSAParams& p,
                        std::mt19937_64& rng);
/// Pure RL of [13]: episodic policy-gradient over sequence-pair moves.
BaselineResult run_rlsp(const floorplan::Instance& inst, const RLSPParams& p,
                        std::mt19937_64& rng);

/// HPWLmin estimate (Section IV-D4): best HPWL found by a short SA that
/// optimizes wirelength only.  From kHpwlDeltaMinBlocks blocks up it scores
/// through SpEvaluator::hpwl(); the result bits are the same either way.
double estimate_hpwl_min(const floorplan::Instance& inst,
                         std::mt19937_64& rng, int iterations = 2000);

}  // namespace afp::metaheur
