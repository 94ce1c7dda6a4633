#include "metaheur/tempering.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "metaheur/anneal.hpp"
#include "numeric/parallel.hpp"

namespace afp::metaheur {

namespace {

template <class Chain>
BaselineResult run_pt_impl(const floorplan::Instance& inst, const PTParams& p,
                           std::uint64_t base_seed, const char* method) {
  const auto t0 = std::chrono::steady_clock::now();
  const double spacing = resolve_spacing(inst, p.spacing_um);
  const int K = p.replicas;
  const auto kz = [](int k) { return static_cast<std::size_t>(k); };

  std::vector<std::mt19937_64> rngs;
  rngs.reserve(kz(K));
  for (int k = 0; k < K; ++k) rngs.push_back(replica_rng(base_seed, k));

  // Per-replica incremental evaluators (each chain's packing state lives
  // with its chain across rounds; replica exchanges just hand it a bigger
  // diff).
  std::vector<typename Chain::Evaluator> evals_by_replica;
  evals_by_replica.reserve(kz(K));
  for (int k = 0; k < K; ++k) evals_by_replica.emplace_back(inst, spacing);

  // Initial states + costs, one replica per chunk (chains never re-enter
  // the pool: nested parallel_for inside pack/sp_cost runs serially there).
  std::vector<Annealer<Chain>> chain(kz(K));
  num::parallel_for(K, 1, [&](std::int64_t k0, std::int64_t k1) {
    for (std::int64_t k = k0; k < k1; ++k) {
      const std::size_t ks = static_cast<std::size_t>(k);
      chain[ks].start(inst, rngs[ks], score_with(evals_by_replica[ks]));
    }
  });

  // Per-replica move budgets: share of the K * iterations total
  // proportional to budget_skew^-k, remainder handed to the coldest chains
  // (all deterministic integer arithmetic).
  const long total_moves = static_cast<long>(K) * p.iterations;
  std::vector<long> budget(kz(K), p.iterations);
  if (p.budget_skew > 1.0) {
    std::vector<double> w(kz(K));
    double sum_w = 0.0;
    for (int k = 0; k < K; ++k) {
      w[kz(k)] = std::pow(p.budget_skew, -k);
      sum_w += w[kz(k)];
    }
    long assigned = 0;
    for (int k = 0; k < K; ++k) {
      budget[kz(k)] = static_cast<long>(
          std::floor(static_cast<double>(total_moves) * w[kz(k)] / sum_w));
      assigned += budget[kz(k)];
    }
    for (int k = 0; assigned < total_moves; k = (k + 1) % K, ++assigned) {
      ++budget[kz(k)];
    }
  }

  // Rung values: fixed temperatures, or per-replica multipliers on an
  // annealing schedule each chain traverses over its own budget.  The auto
  // t_hot is floored at t_cold so a flat initial cost spread degenerates to
  // a constant ladder instead of an invalid one.
  std::vector<double> initial_cost(kz(K));
  for (int k = 0; k < K; ++k) initial_cost[kz(k)] = chain[kz(k)].cur_cost;
  const double t_hot =
      p.anneal ? 0.0
               : (p.t_hot >= 0.0
                      ? p.t_hot
                      : std::max(auto_hot_temperature(initial_cost),
                                 p.t_cold));
  const std::vector<double> rung =
      p.anneal ? geometric_ladder(1.0, p.hot_factor, K)
               : geometric_ladder(p.t_cold, t_hot, K);
  std::vector<double> decay(kz(K), 1.0);
  if (p.anneal) {
    for (int k = 0; k < K; ++k) {
      decay[kz(k)] = std::pow(
          p.t_end / p.t_start,
          1.0 / static_cast<double>(std::max(1l, budget[kz(k)] - 1)));
    }
  }
  const auto temp_at = [&](int k, long move_index) {
    return p.anneal ? rung[kz(k)] * p.t_start *
                          std::pow(decay[kz(k)],
                                   static_cast<double>(move_index))
                    : rung[kz(k)];
  };

  // Round pacing follows the cold chain: it advances swap_interval moves
  // per round and every other chain is paced to the same budget fraction,
  // so all chains finish together and swaps happen between comparably
  // annealed states.
  std::mt19937_64 swap_rng = replica_rng(base_seed, -1);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  int swap_interval = p.swap_interval;
  const int max_interval = p.swap_interval * 4;
  std::vector<long> done(kz(K), 0);
  // Moves actually performed per chain (== done[k] unless a stop token cut
  // a round short) so reported evaluations stay exact under cancellation.
  std::vector<long> moves(kz(K), 0);
  int round = 0;
  long window_attempts = 0, window_accepts = 0;
  while (done[0] < budget[0]) {
    if (p.stop != nullptr && p.stop->stop_requested()) break;
    const long cold_next =
        std::min<long>(budget[0], done[0] + swap_interval);
    std::vector<long> next(kz(K));
    next[0] = cold_next;
    for (int k = 1; k < K; ++k) {
      next[kz(k)] = cold_next >= budget[0]
                        ? budget[kz(k)]
                        : budget[kz(k)] * cold_next / budget[0];
    }
    num::parallel_for(K, 1, [&](std::int64_t k0, std::int64_t k1) {
      for (std::int64_t k = k0; k < k1; ++k) {
        const std::size_t ks = static_cast<std::size_t>(k);
        StopPoll stopped(p.stop);
        for (long it = done[ks]; it < next[ks]; ++it) {
          if (stopped()) break;
          ++moves[ks];
          chain[ks].step(temp_at(static_cast<int>(k), it), rngs[ks],
                         score_with(evals_by_replica[ks]));
        }
      }
    });
    done = std::move(next);
    if (done[0] >= budget[0]) break;  // a final exchange cannot improve best
    // Serial exchange round: even pairs on even rounds, odd pairs on odd
    // rounds, acceptance uniforms drawn in pair order from the swap stream.
    for (int i = round % 2; i + 1 < K; i += 2) {
      auto& lo = chain[kz(i)];
      auto& hi = chain[kz(i + 1)];
      const double pr = pt_swap_probability(
          lo.cur_cost, hi.cur_cost, temp_at(i, done[kz(i)]),
          temp_at(i + 1, done[kz(i + 1)]));
      const double u = unif(swap_rng);
      ++window_attempts;
      if (u < pr) {  // exchange current states; each chain keeps its best
        std::swap(lo.cur, hi.cur);
        std::swap(lo.cur_cost, hi.cur_cost);
        ++window_accepts;
      }
    }
    ++round;
    if (p.adaptive_swap && round % kAdaptWindow == 0 && window_attempts > 0) {
      const double rate = static_cast<double>(window_accepts) /
                          static_cast<double>(window_attempts);
      if (rate > 0.5) {
        swap_interval = std::max(1, swap_interval / 2);
      } else if (rate < 0.1) {
        swap_interval = std::min(max_interval, swap_interval * 2);
      }
      window_attempts = window_accepts = 0;
    }
  }

  int win = 0;
  for (int k = 1; k < K; ++k) {
    if (chain[kz(k)].best_cost < chain[kz(win)].best_cost) win = k;
  }
  BaselineResult r;
  r.method = method;
  r.rects = Chain::pack_state(inst, chain[kz(win)].best, spacing);
  r.eval = floorplan::evaluate_floorplan(inst, r.rects);
  // K initial packings + one per performed move (== K * (1 + iterations)
  // for an uninterrupted run; less when a stop token cut chains short).
  r.evaluations = static_cast<long>(K);
  for (int k = 0; k < K; ++k) r.evaluations += moves[kz(k)];
  r.runtime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return r;
}

}  // namespace

void PTParams::check() const {
  if (replicas < 2) {
    throw std::invalid_argument("run_pt: replicas must be >= 2");
  }
  if (iterations < 0) {
    throw std::invalid_argument("run_pt: iterations must be >= 0");
  }
  if (swap_interval < 1) {
    throw std::invalid_argument("run_pt: swap_interval must be >= 1");
  }
  if (t_cold <= 0.0 || (t_hot >= 0.0 && t_hot <= t_cold)) {
    throw std::invalid_argument("run_pt: need t_hot > t_cold > 0");
  }
  if (anneal && (t_end <= 0.0 || t_start < t_end || hot_factor < 1.0)) {
    throw std::invalid_argument(
        "run_pt: need t_start >= t_end > 0 and hot_factor >= 1");
  }
  if (budget_skew < 1.0) {
    throw std::invalid_argument("run_pt: budget_skew must be >= 1");
  }
}

const char* to_string(Representation rep) {
  return rep == Representation::kBStarTree ? "bstar" : "sp";
}

std::vector<double> geometric_ladder(double t_cold, double t_hot,
                                     int replicas) {
  if (replicas < 1 || t_cold <= 0.0 || t_hot < t_cold) {
    throw std::invalid_argument(
        "geometric_ladder: need replicas >= 1 and t_hot >= t_cold > 0");
  }
  std::vector<double> temp(static_cast<std::size_t>(replicas));
  const double ratio = t_hot / t_cold;
  for (int k = 0; k < replicas; ++k) {
    const double frac =
        replicas == 1 ? 0.0
                      : static_cast<double>(k) /
                            static_cast<double>(replicas - 1);
    temp[static_cast<std::size_t>(k)] = t_cold * std::pow(ratio, frac);
  }
  return temp;
}

double pt_swap_probability(double cost_i, double cost_j, double t_i,
                           double t_j) {
  const double exponent = (1.0 / t_i - 1.0 / t_j) * (cost_i - cost_j);
  return std::min(1.0, std::exp(exponent));
}

double auto_hot_temperature(const std::vector<double>& initial_costs) {
  if (initial_costs.empty()) return 1.0;
  const auto [lo, hi] =
      std::minmax_element(initial_costs.begin(), initial_costs.end());
  return std::max(1.0, *hi - *lo);
}

std::mt19937_64 replica_rng(std::uint64_t base_seed, int replica) {
  // Distinct domain-separation constant from restart_rng's 0x7f4a7c15.
  const std::uint64_t mixed = splitmix64(
      splitmix64(base_seed ^ 0x9e3779b97f4a7c15ull) ^
      (0x1ce4e5b9ull + static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(replica))));
  return std::mt19937_64(mixed);
}

BaselineResult run_pt(const floorplan::Instance& inst, const PTParams& p,
                      std::mt19937_64& rng) {
  p.check();
  const std::uint64_t base_seed = rng();
  return p.representation == Representation::kBStarTree
             ? run_pt_impl<BStarChain>(inst, p, base_seed, "PT-B*")
             : run_pt_impl<SpChain>(inst, p, base_seed, "PT");
}

BaselineResult run_pt_multi(const floorplan::Instance& inst, const PTParams& p,
                            const MultiStartOptions& opt) {
  return run_multistart(
      inst,
      [&inst, &p](int, std::mt19937_64& rng) { return run_pt(inst, p, rng); },
      opt);
}

}  // namespace afp::metaheur
