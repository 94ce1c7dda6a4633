#include "metaheur/parallel_search.hpp"

#include <chrono>
#include <stdexcept>
#include <vector>

#include "metaheur/optimizer.hpp"
#include "numeric/parallel.hpp"

namespace afp::metaheur {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::mt19937_64 restart_rng(std::uint64_t base_seed, int restart) {
  const std::uint64_t mixed =
      splitmix64(splitmix64(base_seed) ^
                 (0x7f4a7c15ull + static_cast<std::uint64_t>(restart)));
  return std::mt19937_64(mixed);
}

BaselineResult run_multistart(const floorplan::Instance& inst,
                              const Optimizer& opt,
                              const SearchBudget& budget,
                              const MultiStartOptions& ms) {
  if (ms.restarts < 1) {
    throw std::invalid_argument("run_multistart: restarts must be >= 1");
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<BaselineResult> results(static_cast<std::size_t>(ms.restarts));
  // grain 1: each restart is one unit of work; a restart never re-enters the
  // pool (nested parallel_for runs serially on the worker), so the streams
  // stay independent and results are thread-count invariant.
  num::parallel_for(ms.restarts, 1, [&](std::int64_t k0, std::int64_t k1) {
    for (std::int64_t k = k0; k < k1; ++k) {
      std::mt19937_64 rng = restart_rng(ms.base_seed, static_cast<int>(k));
      results[static_cast<std::size_t>(k)] = opt.run(inst, budget, rng);
    }
  });
  // Deterministic selection: lowest packed cost, ties to the first restart.
  int best = 0;
  double best_cost = sp_cost(inst, results[0].rects);
  long evals = results[0].evaluations;
  for (int k = 1; k < ms.restarts; ++k) {
    evals += results[static_cast<std::size_t>(k)].evaluations;
    const double c = sp_cost(inst, results[static_cast<std::size_t>(k)].rects);
    if (c < best_cost) {
      best_cost = c;
      best = k;
    }
  }
  BaselineResult r = std::move(results[static_cast<std::size_t>(best)]);
  r.evaluations = evals;
  r.runtime_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  if (ms.restarts > 1) r.method += "x" + std::to_string(ms.restarts);
  return r;
}

}  // namespace afp::metaheur
