// Table I — comparative analysis of the R-GCN + RL method (0/1/100/1000-
// shot fine-tuning) against SA, GA, PSO and the two SMACD'24 [13] agents,
// over six circuits: three seen in training (OTA-1, OTA-2, Bias-1) and
// three unseen (RS-Latch, Driver, Bias-2).  Metrics per cell: runtime (s),
// dead space (%), HPWL (um) and the Eq. (5) reward, reported as IQM +/- std
// over seeds, matching the paper's format.
//
// Scale note: the agent is trained with the CPU-budget preset and the
// "k-shot" columns use scaled fine-tuning budgets (1 / 96 / 512 episodes
// for the paper's 1 / 100 / 1000); baseline iteration counts are likewise
// scaled.  AFP_BENCH_SCALE multiplies all budgets.  Shapes to compare with the paper: fine-tuned R-GCN RL wins
// reward on (nearly) all circuits, zero-shot inference is orders of
// magnitude faster than search, RL[13] is the slowest baseline.
#include <benchmark/benchmark.h>

#include <ctime>

#include "bench_common.hpp"
#include "metaheur/optimizer.hpp"
#include "metaheur/parallel_search.hpp"
#include "numeric/parallel.hpp"
#include "rl/agent.hpp"

namespace {

using namespace afp;

struct Cell {
  bench::MetricSamples samples;
};

struct CircuitSpec {
  std::string name;
  int blocks;
  bool unseen;
};

const std::vector<CircuitSpec> kCircuits = {
    {"ota1", 5, false},    {"ota2", 8, false},   {"bias1", 9, false},
    {"rs_latch", 7, true}, {"driver", 17, true}, {"bias2", 19, true},
};

const std::vector<std::string> kMethods = {
    "R-GCN RL 0-shot", "R-GCN RL 1-shot", "R-GCN RL 100-shot",
    "R-GCN RL 1000-shot", "SA", "GA", "PSO", "RL-SA [13]", "RL [13]",
    "SA-B* [15]", "PT"};

constexpr int kSeeds = 5;

rl::TaskContext task_for(const rgcn::RewardModel& encoder,
                         const std::string& name, std::mt19937_64& rng) {
  auto nl = bench::make_circuit(name);
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  auto probe = floorplan::make_instance(g);
  const double ref = metaheur::estimate_hpwl_min(probe, rng, 1200);
  return rl::make_task(encoder, std::move(g), ref);
}

void run_table1() {
  std::printf("=== Table I: R-GCN+RL vs baselines (scaled reproduction) ===\n");
  std::printf("training agent (HCL over 5 circuits)...\n");
  const auto t_train0 = std::chrono::steady_clock::now();
  const core::TrainedAgent agent = core::train_agent(
      bench::bench_train_options(/*seed=*/1,
                                 /*episodes=*/bench::scaled(800)));
  const double train_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    t_train0)
          .count();
  std::printf("base training done in %.1fs (%zu PPO iterations)\n\n", train_s,
              agent.rl_history.size());

  // k-shot budgets: paper 1/100/1000 episodes -> scaled 1/96/768.
  const std::vector<std::pair<std::string, long>> kshot = {
      {"R-GCN RL 1-shot", 1},
      {"R-GCN RL 100-shot", bench::scaled(96)},
      {"R-GCN RL 1000-shot", bench::scaled(768)}};

  for (const auto& circuit : kCircuits) {
    std::map<std::string, Cell> row;
    std::mt19937_64 rng(100);

    // --- R-GCN RL 0-shot: inference only -------------------------------
    for (int s = 0; s < kSeeds; ++s) {
      std::mt19937_64 seed_rng(200 + s);
      auto task = task_for(*agent.encoder, circuit.name, seed_rng);
      const auto ep = rl::best_of_episodes(*agent.policy, task, 8, seed_rng);
      if (!ep.rects.empty()) {
        row["R-GCN RL 0-shot"].samples.add(ep.runtime_s, ep.eval);
      }
    }

    // --- k-shot fine-tuning ---------------------------------------------
    for (const auto& [label, episodes] : kshot) {
      // Fine-tuning dominates the bench runtime; large circuits get one
      // seed, small ones two.
      const int ft_seeds = circuit.blocks > 10 && episodes > 100 ? 1 : 2;
      for (int s = 0; s < ft_seeds; ++s) {
        std::mt19937_64 seed_rng(300 + s);
        auto task = task_for(*agent.encoder, circuit.name, seed_rng);
        rl::ActorCritic tuned(agent.policy->config(), seed_rng);
        rl::copy_parameters(*agent.policy, tuned);
        rl::PPOConfig ft;
        ft.n_envs = 4;
        ft.n_steps = 32;
        ft.minibatch = 64;
        ft.lr = 5e-4f;  // gentler than training: protects the base policy
        const auto t0 = std::chrono::steady_clock::now();
        rl::fine_tune(tuned, task, episodes, seed_rng, ft);
        const auto ep = rl::best_of_episodes(tuned, task, 8, seed_rng);
        const double rt = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        if (!ep.rects.empty()) row[label].samples.add(rt, ep.eval);
      }
    }

    // --- baselines ---------------------------------------------------------
    // Every baseline is a registry entry: label + optimizer name + options.
    core::FloorplanPipeline pipe;
    struct BaselineSpec {
      std::string label;
      std::string optimizer;
      metaheur::Options options;
    };
    const std::vector<BaselineSpec> baselines = {
        {"SA", "sa", {{"iterations", "2500"}}},
        {"GA", "ga", {{"population", "16"}, {"generations", "30"}}},
        {"PSO", "pso", {{"particles", "14"}, {"iterations", "40"}}},
        {"RL-SA [13]", "rlsa", {{"iterations", "2500"}}},
        {"RL [13]", "rlsp",
         {{"episodes", "60"}, {"steps_per_episode", "50"}}}};
    // The per-seed baseline runs are independent searches, so they fan out
    // on the shared thread pool (one seed per chunk); samples are gathered
    // in seed order afterwards so the printed statistics stay deterministic.
    // Each sample's runtime is re-measured as per-thread CPU time: a search
    // runs entirely on its worker (nested parallel_for is serial there), so
    // this matches the uncontended serial wall time the table used to
    // report, instead of wall clock inflated by the co-scheduled seeds.
    auto run_seeds =
        [&](unsigned seed_base,
            const std::function<metaheur::BaselineResult(
                const floorplan::Instance&, std::mt19937_64&)>& search) {
          auto thread_cpu_s = [] {
            timespec ts;
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
            return static_cast<double>(ts.tv_sec) +
                   static_cast<double>(ts.tv_nsec) * 1e-9;
          };
          std::vector<metaheur::BaselineResult> res(kSeeds);
          num::parallel_for(kSeeds, 1, [&](std::int64_t s0, std::int64_t s1) {
            for (std::int64_t s = s0; s < s1; ++s) {
              std::mt19937_64 seed_rng(seed_base + static_cast<unsigned>(s));
              auto nl = bench::make_circuit(circuit.name);
              auto prep = pipe.prepare(nl, seed_rng);
              const double cpu0 = thread_cpu_s();
              res[static_cast<std::size_t>(s)] =
                  search(prep.instance, seed_rng);
              res[static_cast<std::size_t>(s)].runtime_s =
                  thread_cpu_s() - cpu0;
            }
          });
          return res;
        };
    // Extra baseline beyond the paper's table: SA over B*-trees [15].
    {
      const auto sab =
          metaheur::make_optimizer("sab", {{"iterations", "2500"}});
      for (const auto& res :
           run_seeds(500, [&](const floorplan::Instance& inst,
                              std::mt19937_64& rng) {
             return sab->run(inst, {}, rng);
           })) {
        row["SA-B* [15]"].samples.add(res.runtime_s, res.eval);
      }
    }
    // Extra baseline: parallel tempering at SA's total move budget (the
    // replicas share the 2500 evaluations — see metaheur/tempering.hpp).
    {
      const auto pt = metaheur::make_optimizer(
          "pt", {{"iterations",
                  std::to_string(2500 / metaheur::PTParams{}.replicas - 1)}});
      for (const auto& res :
           run_seeds(400, [&](const floorplan::Instance& inst,
                              std::mt19937_64& rng) {
             return pt->run(inst, {}, rng);
           })) {
        row["PT"].samples.add(res.runtime_s, res.eval);
      }
    }
    for (const auto& spec : baselines) {
      const auto opt = metaheur::make_optimizer(spec.optimizer, spec.options);
      const auto results =
          run_seeds(400, [&](const floorplan::Instance& inst,
                             std::mt19937_64& rng) {
            return opt->run(inst, {}, rng);
          });
      for (const auto& res : results)
        row[spec.label].samples.add(res.runtime_s, res.eval);
    }

    // --- print the circuit's block ------------------------------------------
    std::printf("--- %s (%d blocks)%s ---\n", circuit.name.c_str(),
                circuit.blocks, circuit.unseen ? " [UNSEEN]" : "");
    std::printf("%-20s %16s %16s %16s %16s\n", "method", "runtime(s)",
                "dead space(%)", "HPWL(um)", "reward");
    for (const auto& m : kMethods) {
      const auto it = row.find(m);
      if (it == row.end() || it->second.samples.reward.empty()) {
        std::printf("%-20s %16s %16s %16s %16s\n", m.c_str(), "-", "-", "-",
                    "-");
        continue;
      }
      const auto& sm = it->second.samples;
      std::printf("%-20s %16s %16s %16s %16s\n", m.c_str(),
                  bench::pm(bench::iqm(sm.runtime_s),
                            bench::stddev(sm.runtime_s))
                      .c_str(),
                  bench::pm(bench::iqm(sm.dead_space_pct),
                            bench::stddev(sm.dead_space_pct))
                      .c_str(),
                  bench::pm(bench::iqm(sm.hpwl), bench::stddev(sm.hpwl))
                      .c_str(),
                  bench::pm(bench::iqm(sm.reward), bench::stddev(sm.reward))
                      .c_str());
    }
    // Winner per the paper's bolding: best IQM reward.
    std::string best;
    double best_r = -1e300;
    for (const auto& [m, cell] : row) {
      if (cell.samples.reward.empty()) continue;
      const double r = bench::iqm(cell.samples.reward);
      if (r > best_r) {
        best_r = r;
        best = m;
      }
    }
    std::printf("best reward: %s (%.2f)\n\n", best.c_str(), best_r);
  }
}

// Micro-benchmarks for the kernels Table I's runtime column depends on.
void BM_PolicyInferenceEpisode(benchmark::State& state) {
  std::mt19937_64 rng(1);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  auto nl = bench::make_circuit("ota2");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto task = rl::make_task(encoder, std::move(g));
  for (auto _ : state) {
    auto ep = rl::run_episode(policy, task, rng, true);
    benchmark::DoNotOptimize(ep.eval.reward);
  }
}
BENCHMARK(BM_PolicyInferenceEpisode)->Unit(benchmark::kMillisecond);

void BM_SaIteration1000(benchmark::State& state) {
  std::mt19937_64 rng(2);
  auto nl = bench::make_circuit("bias2");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  for (auto _ : state) {
    metaheur::SAParams p;
    p.iterations = 1000;
    auto res = metaheur::run_sa(inst, p, rng);
    benchmark::DoNotOptimize(res.eval.reward);
  }
}
BENCHMARK(BM_SaIteration1000)->Unit(benchmark::kMillisecond);

void BM_PtBudget1000(benchmark::State& state) {
  // Parallel tempering at a 1000-evaluation total budget; the replicas
  // step concurrently, so wall time approaches the cold chain's share as
  // AFP_NUM_THREADS grows.
  auto nl = bench::make_circuit("bias2");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  for (auto _ : state) {
    std::mt19937_64 rng(2);
    metaheur::PTParams p;
    p.iterations = 1000 / p.replicas - 1;
    auto res = metaheur::run_pt(inst, p, rng);
    benchmark::DoNotOptimize(res.eval.reward);
  }
}
BENCHMARK(BM_PtBudget1000)->Unit(benchmark::kMillisecond);

void BM_SaMultistart4(benchmark::State& state) {
  // Four 1000-iteration restarts on the shared pool; wall time approaches a
  // single restart as AFP_NUM_THREADS grows.
  auto nl = bench::make_circuit("bias2");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  const auto sa = metaheur::make_optimizer("sa", {{"iterations", "1000"}});
  for (auto _ : state) {
    auto res = metaheur::run_multistart(inst, *sa, {},
                                        {/*restarts=*/4, /*base_seed=*/2});
    benchmark::DoNotOptimize(res.eval.reward);
  }
}
BENCHMARK(BM_SaMultistart4)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_table1();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
