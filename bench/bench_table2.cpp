// Table II — complete-layout comparison: area, dead space and layout
// generation time of the automated pipeline (floorplan + OARSMT routing +
// procedural generation) versus manual design, for a 3-block OTA, the
// 9-block Bias-1 and the 17-block Driver.
//
// Substitution (see DESIGN.md): the engineers' manual layouts are not
// available, so the "manual" reference is synthesized by a long-schedule
// simulated annealing run with generous hand-crafted routing spacing —
// i.e. a carefully optimized floorplan a human would converge to — and
// the manual design times are the constants the paper reports (8 h / 8 h /
// 32 h).  The comparison harness, metrics and printed rows match Table II.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "metaheur/optimizer.hpp"
#include "metaheur/parallel_search.hpp"
#include "rl/agent.hpp"

namespace {

using namespace afp;

struct Table2Circuit {
  std::string name;
  std::string label;
  double manual_hours;            ///< paper-reported manual design time
  double manual_improvement_h;    ///< paper-reported manual touch-up time
};

const std::vector<Table2Circuit> kCircuits = {
    {"ota_small", "OTA", 8.0, 0.17},
    {"bias1", "Bias-1", 8.0, 1.0},
    {"driver", "Driver", 32.0, 20.0},
};

void run_table2() {
  std::printf("=== Table II: complete layouts vs manual reference ===\n");
  const core::TrainedAgent agent = core::train_agent(
      bench::bench_train_options(/*seed=*/3, bench::scaled(400)));

  std::printf("%-8s %-8s %14s %16s %14s %14s %14s\n", "circuit", "method",
              "area(um2)", "dead space(%)", "template(s)", "improve(h)",
              "final(h)");
  for (const auto& c : kCircuits) {
    std::mt19937_64 rng(42);
    const auto nl = bench::make_circuit(c.name);

    // ---- automated pipeline -------------------------------------------------
    // Per-circuit fine-tuning before layout, as the deployed flow would
    // (Table I shows fine-tuned agents; Table II reuses them).
    rl::ActorCritic tuned(agent.policy->config(), rng);
    rl::copy_parameters(*agent.policy, tuned);
    {
      auto gtune = graphir::build_graph(nl, structrec::recognize(nl));
      auto probe = floorplan::make_instance(gtune);
      const double ref = metaheur::estimate_hpwl_min(probe, rng, 1200);
      const auto task = rl::make_task(*agent.encoder, std::move(gtune), ref);
      rl::PPOConfig ft;
      ft.n_envs = 4;
      ft.n_steps = 32;
      ft.minibatch = 64;
      ft.lr = 5e-4f;
      rl::fine_tune(tuned, task, bench::scaled(256), rng, ft);
    }
    core::PipelineConfig pcfg;
    pcfg.rl_attempts = 8;
    core::FloorplanPipeline pipe(pcfg);
    const auto res = pipe.run(nl, tuned, *agent.encoder, rng);
    const double template_s = res.timings.total();
    const double ours_area = res.layout.area();
    const double ours_ds = res.layout.dead_space(res.instance) * 100.0;
    // Manual improvement applies only where DRC/LVS still flag work; we
    // charge the paper's improvement constant when reports are not clean.
    const bool clean = res.drc.clean() && res.lvs.clean();
    const double improve_h = clean ? 0.0 : c.manual_improvement_h;
    const double ours_final_h = template_s / 3600.0 + improve_h;

    // ---- "manual" reference -------------------------------------------------
    auto prep = pipe.prepare(nl, rng);
    char spacing[64];  // full precision: the parsed double must round-trip
    std::snprintf(spacing, sizeof spacing, "%.17g",
                  prep.instance.canvas_w / 32.0);
    const auto manual_sa = metaheur::make_optimizer(
        "sa", {{"iterations", std::to_string(bench::scaled(20000))},
               {"spacing_um", spacing}});
    // Four seeded restarts on the thread pool stand in for the engineer
    // iterating on the floorplan; best-of-restarts is the reference.
    const auto manual = metaheur::run_multistart(
        prep.instance, *manual_sa, {}, {/*restarts=*/4, /*base_seed=*/42});
    const auto mroute =
        route::global_route(prep.instance, manual.rects);
    const auto mlayout = layoutgen::generate_layout(prep.instance,
                                                    manual.rects, mroute);
    const double man_area = mlayout.area();
    const double man_ds = mlayout.dead_space(prep.instance) * 100.0;

    auto pct = [](double ours, double manual_v) {
      return manual_v != 0.0 ? (ours - manual_v) / manual_v * 100.0 : 0.0;
    };
    std::printf("%-8s %-8s %8.1f (%+5.1f%%) %8.2f (%+5.2f%%) %14.2f %14.2f %10.2f (%+5.1f%%)\n",
                c.label.c_str(), "Ours", ours_area, pct(ours_area, man_area),
                ours_ds, ours_ds - man_ds, template_s, improve_h,
                ours_final_h, pct(ours_final_h, c.manual_hours));
    std::printf("%-8s %-8s %14.1f %16.2f %14s %14s %14.1f\n", c.label.c_str(),
                "Manual", man_area, man_ds, "-", "-", c.manual_hours);

    // ---- parallel tempering row --------------------------------------------
    // The strongest classical search at the same spacing budget: multi-start
    // replica exchange, then the same routing + layout generation back half.
    const auto t_pt0 = std::chrono::steady_clock::now();
    const int pt_iters =
        bench::scaled(20000) / metaheur::PTParams{}.replicas - 1;
    const auto pt_opt = metaheur::make_optimizer(
        "pt", {{"iterations", std::to_string(pt_iters)},
               {"spacing_um", spacing}});
    const auto pt = metaheur::run_multistart(
        prep.instance, *pt_opt, {}, {/*restarts=*/4, /*base_seed=*/42});
    const auto ptroute = route::global_route(prep.instance, pt.rects);
    const auto ptlayout = layoutgen::generate_layout(prep.instance, pt.rects,
                                                     ptroute);
    const double pt_template_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t_pt0)
            .count();
    const double pt_area = ptlayout.area();
    const double pt_ds = ptlayout.dead_space(prep.instance) * 100.0;
    std::printf("%-8s %-8s %8.1f (%+5.1f%%) %8.2f (%+5.2f%%) %14.2f %14s %10.2f (%+5.1f%%)\n",
                c.label.c_str(), "PT", pt_area, pct(pt_area, man_area), pt_ds,
                pt_ds - man_ds, pt_template_s, "-", pt_template_s / 3600.0,
                pct(pt_template_s / 3600.0, c.manual_hours));
    std::printf("         Ours: DRC %s (%zu violations), LVS %s (%zu opens, %zu shorts), routed nets %zu/%zu\n\n",
                res.drc.clean() ? "clean" : "dirty", res.drc.violations.size(),
                res.lvs.clean() ? "clean" : "dirty", res.lvs.open_nets.size(),
                res.lvs.shorted.size(), res.route.trees.size(),
                res.instance.nets.size());
  }
  std::printf(
      "paper shape: layout time reduced by ~67%% on average with area within\n"
      "+/-15%% of manual (Bias-1 regresses on area, OTA and Driver improve).\n\n");
}

void BM_FullPipelineOta(benchmark::State& state) {
  std::mt19937_64 rng(1);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  const auto nl = bench::make_circuit("ota_small");
  core::FloorplanPipeline pipe;
  for (auto _ : state) {
    auto res = pipe.run(nl, policy, encoder, rng);
    benchmark::DoNotOptimize(res.layout.area());
  }
}
BENCHMARK(BM_FullPipelineOta)->Unit(benchmark::kMillisecond);

void BM_GlobalRouteDriver(benchmark::State& state) {
  std::mt19937_64 rng(2);
  const auto nl = bench::make_circuit("driver");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  metaheur::SAParams p;
  p.iterations = 800;
  const auto base = metaheur::run_sa(inst, p, rng);
  for (auto _ : state) {
    auto gr = route::global_route(inst, base.rects);
    benchmark::DoNotOptimize(gr.total_wirelength);
  }
}
BENCHMARK(BM_GlobalRouteDriver)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_table2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
