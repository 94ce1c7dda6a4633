// Parallel tempering (replica exchange) over the floorplan representations.
//
// K simulated-annealing chains run on a cooling temperature ladder
// T_0 <= T_1 <= ... <= T_{K-1} (T_0 coldest): every rung cools
// geometrically over its own move budget, with a constant ratio between
// neighbors.  Chains step independently between exchange rounds, then
// adjacent replicas attempt a state exchange with the Metropolis
// replica-exchange probability
//
//   P(swap i <-> j) = min(1, exp((1/T_i - 1/T_j) * (C_i - C_j))),
//
// which lets hot chains tunnel out of local minima and feed improved states
// down the ladder.  A budget skew assigns the cold chain the lion's share of
// the move budget so the ensemble stays competitive with one long SA chain
// at an EQUAL total number of cost evaluations.  Both the SequencePair and
// the B*-tree encodings are supported; cost is the shared sp_cost metric, as
// for every other baseline.
//
// Reproducibility contract (same as metaheur/parallel_search): replica k
// draws only from replica_rng(seed, k), a SplitMix64-derived stream, and the
// chains step concurrently on the shared numeric thread pool with one replica
// per chunk.  Swap rounds are serial and deterministic: round r attempts the
// even pairs (0,1),(2,3),... when r is even and the odd pairs (1,2),(3,4),...
// when r is odd, drawing acceptance uniforms from a dedicated swap stream in
// pair order.  Results are therefore bitwise identical for any
// AFP_NUM_THREADS, including 1, and for repeated runs with the same seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "metaheur/parallel_search.hpp"

namespace afp::metaheur {

/// Chain encoding the replicas search over.
enum class Representation : int { kSequencePair = 0, kBStarTree = 1 };

const char* to_string(Representation rep);

/// Defaults were tuned at an equal TOTAL move budget against the
/// single-chain SA baseline over the Table I circuits (see bench_search):
/// a small skewed ladder whose cold chain starts below SA's t_start, since
/// the hot rungs take over the exploration phase the cold chain no longer
/// pays for.
struct PTParams : SearchParams {
  int replicas = 3;        ///< ladder size K (>= 2)
  int iterations = 1333;   ///< mean moves per replica (total = K * this)
  /// Every chain cools geometrically from m_k * t_start to m_k * t_end over
  /// its own budget, with multipliers m_k geometric in [1, hot_factor] — so
  /// the coldest replica runs a plain SA schedule while the hot chains
  /// explore, and the ladder's temperature ratios (hence swap rates) stay
  /// constant as it cools.
  double t_start = 0.5;      ///< coldest chain's start temperature
  double t_end = 1e-3;       ///< coldest chain's final temperature
  double hot_factor = 8.0;   ///< hottest/coldest multiplier
  /// Budget skew between rungs: replica k receives a share of the total
  /// move budget proportional to budget_skew^-k, so with skew > 1 the cold
  /// chain keeps most of the moves (approaching a single long SA chain)
  /// while the short hot chains feed it diversity through exchanges.
  /// 1.0 = classic equal-length chains.  The TOTAL budget is always
  /// replicas * iterations, redistributed exactly.
  double budget_skew = 3.0;
  int swap_interval = 8;   ///< cold-chain moves between exchange rounds (>= 1)
  Representation representation = Representation::kSequencePair;
  /// replicas >= 2, iterations >= 0, swap_interval >= 1,
  /// t_start >= t_end > 0, hot_factor >= 1 and budget_skew >= 1.
  void check() const;
};

/// Geometric ladder lo * (hi/lo)^(k/(K-1)), k=0..K-1: the rung multipliers.
/// Strictly increasing for hi > lo > 0.
std::vector<double> geometric_ladder(double lo, double hi, int replicas);

/// Replica-exchange acceptance probability min(1, exp((1/ti - 1/tj)(ci - cj))).
double pt_swap_probability(double cost_i, double cost_j, double t_i,
                           double t_j);

/// Independent RNG stream for replica `replica` of `base_seed`.  Distinct
/// mixing domain from restart_rng so PT-inside-multistart never aliases a
/// restart stream.  replica -1 is the swap-acceptance stream.
std::mt19937_64 replica_rng(std::uint64_t base_seed, int replica);

/// Runs parallel tempering and returns the best state ever visited by any
/// replica (ties to the lower replica slot).  Draws one u64 from `rng` as the
/// base seed for the replica streams, so identically-seeded callers are
/// reproducible.  method: "PT" / "PT-B*".
BaselineResult run_pt(const floorplan::Instance& inst, const PTParams& p,
                      std::mt19937_64& rng);

}  // namespace afp::metaheur
