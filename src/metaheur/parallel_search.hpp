// Parallel multi-restart driver: the one best-of-N fan-out of the
// registry optimizers (core::FloorplanPipeline's --restarts, the benches and
// the tests all go through run_multistart).
//
// A single annealing / GA / tempering run is inherently sequential, so the
// scalable axis is restarts: K independent searches from per-restart seeded
// RNG streams, run concurrently on the shared numeric thread pool
// (numeric/parallel.hpp), with the best result selected deterministically.
//
// Reproducibility contract: restart k always draws from restart_rng(seed, k)
// — a SplitMix64-derived stream independent of the others — and each search
// runs entirely inside one parallel_for chunk without touching the pool
// (nested parallel_for calls run serially on the worker).  Results are
// therefore bitwise identical for any AFP_NUM_THREADS, including 1, and the
// winning restart is a pure function of the seed.
#pragma once

#include <cstdint>
#include <random>

#include "metaheur/baselines.hpp"

namespace afp::metaheur {

class Optimizer;      // metaheur/optimizer.hpp
struct SearchBudget;  // metaheur/optimizer.hpp

/// SplitMix64 finalizer used to derive all the independent search streams
/// (restart_rng here, replica_rng in metaheur/tempering) — one definition so
/// the domain-separation contract between them cannot silently diverge.
std::uint64_t splitmix64(std::uint64_t x);

/// Independent RNG stream for restart `restart` of `base_seed` (SplitMix64
/// over the pair, so neighboring seeds/restarts are decorrelated).
std::mt19937_64 restart_rng(std::uint64_t base_seed, int restart);

struct MultiStartOptions {
  int restarts = 4;
  std::uint64_t base_seed = 1;
};

/// Runs `ms.restarts` searches `opt.run(inst, budget, restart_rng(
/// ms.base_seed, k))` on the pool and returns the winner: lowest sp_cost of
/// the packed result, ties broken by the lowest restart index.
/// `evaluations` is summed over all restarts; `runtime_s` is the wall time
/// of the whole fan-out; `method` gains an "x<restarts>" suffix when
/// restarts > 1.  Throws std::invalid_argument when restarts < 1.
BaselineResult run_multistart(const floorplan::Instance& inst,
                              const Optimizer& opt,
                              const SearchBudget& budget,
                              const MultiStartOptions& ms);

}  // namespace afp::metaheur
