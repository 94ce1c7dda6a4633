// Figure 7 — pipeline stage visualization for the 17-block Driver:
// (a) RL placement + OARSMT global routing, (b) channel definition,
// (c) generated layout.  Each stage is dumped as an SVG next to the
// binary, and stage metrics are printed (the paper's panels (d)/(e) are
// the manually refined and fully manual layouts; the manual reference is
// synthesized as in bench_table2).
#include <benchmark/benchmark.h>

#include <fstream>

#include "bench_common.hpp"
#include "rl/agent.hpp"

namespace {

using namespace afp;

/// SVG of the placement plus global-routing trees (panel a).
void write_placement_svg(const std::string& path,
                         const floorplan::Instance& inst,
                         const std::vector<geom::Rect>& rects,
                         const route::GlobalRoute& gr) {
  const geom::Rect bb = geom::bounding_box(rects).inflated(2.0);
  const double s = 20.0;
  std::ofstream os(path);
  os << "<svg xmlns='http://www.w3.org/2000/svg' width='" << bb.w * s
     << "' height='" << bb.h * s << "'>\n";
  auto Y = [&](double y) { return (bb.top() - y) * s; };
  auto X = [&](double x) { return (x - bb.x) * s; };
  for (std::size_t i = 0; i < rects.size(); ++i) {
    const auto& r = rects[i];
    os << "<rect x='" << X(r.x) << "' y='" << Y(r.top()) << "' width='"
       << r.w * s << "' height='" << r.h * s
       << "' fill='#b8c4ce' stroke='black'/>\n";
    os << "<text x='" << X(r.center().x) << "' y='" << Y(r.center().y)
       << "' font-size='8' text-anchor='middle'>"
       << inst.blocks[i].name.substr(0, 8) << "</text>\n";
  }
  for (const auto& tree : gr.trees) {
    for (const auto& [a, b] : tree.edges) {
      const auto pa = tree.nodes[static_cast<std::size_t>(a)];
      const auto pb = tree.nodes[static_cast<std::size_t>(b)];
      os << "<line x1='" << X(pa.x) << "' y1='" << Y(pa.y) << "' x2='"
         << X(pb.x) << "' y2='" << Y(pb.y)
         << "' stroke='#d97706' stroke-width='1.5'/>\n";
    }
  }
  os << "</svg>\n";
}

void run_fig7() {
  std::printf("=== Figure 7: Driver layout pipeline stages ===\n");
  const core::TrainedAgent agent = core::train_agent(
      bench::bench_train_options(/*seed=*/7, bench::scaled(48)));
  std::mt19937_64 rng(7);
  const auto nl = bench::make_circuit("driver");
  core::PipelineConfig pcfg;
  pcfg.rl_attempts = 8;
  core::FloorplanPipeline pipe(pcfg);
  const auto res = pipe.run(nl, *agent.policy, *agent.encoder, rng);

  write_placement_svg("fig7a_placement_routing.svg", res.instance, res.rects,
                      res.route);
  layoutgen::write_svg("fig7c_layout.svg", res.layout);
  std::printf("wrote fig7a_placement_routing.svg, fig7c_layout.svg\n\n");

  std::printf("stage metrics (Driver, %d blocks, %zu nets):\n",
              res.instance.num_blocks(), res.instance.nets.size());
  std::printf("  (a) floorplan: area %.1f um2, dead space %.1f%%, "
              "HPWL %.1f um, reward %.2f\n",
              res.eval.area, res.eval.dead_space * 100.0, res.eval.hpwl,
              res.eval.reward);
  std::printf("  (a) global routing: %zu trees, wirelength %.1f um, "
              "%d failed nets\n",
              res.route.trees.size(), res.route.total_wirelength,
              res.route.failed_nets);
  std::printf("  (b) channels: %zu routing channels over 2 layers\n",
              res.layout.channels.size());
  std::printf("  (c) layout: outline %.1f um2, dead space %.1f%%, "
              "%zu wires, %zu vias\n",
              res.layout.area(), res.layout.dead_space(res.instance) * 100.0,
              res.layout.wires.size(), res.layout.vias.size());
  std::printf("  verification: DRC %s (%zu), LVS %s (%zu opens, %zu shorts)\n",
              res.drc.clean() ? "clean" : "needs refinement",
              res.drc.violations.size(),
              res.lvs.clean() ? "clean" : "needs refinement",
              res.lvs.open_nets.size(), res.lvs.shorted.size());
  std::printf("  timings: SR %.3fs, HPWL ref %.3fs, floorplan %.3fs, "
              "route %.3fs, layout %.3fs\n\n",
              res.timings.recognition_s, res.timings.hpwl_ref_s,
              res.timings.floorplan_s, res.timings.route_s,
              res.timings.layout_s);
  std::printf("paper shape: the automated flow yields a routed, DRC/LVS-"
              "checkable Driver layout in seconds; complex layouts may "
              "still need manual channel refinement (Section V-C).\n\n");
}

void BM_LayoutGeneration(benchmark::State& state) {
  std::mt19937_64 rng(3);
  const auto nl = bench::make_circuit("driver");
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  metaheur::SAParams p;
  p.iterations = 600;
  const auto base = metaheur::run_sa(inst, p, rng);
  const auto gr = route::global_route(inst, base.rects);
  for (auto _ : state) {
    auto layout = layoutgen::generate_layout(inst, base.rects, gr);
    benchmark::DoNotOptimize(layout.area());
  }
}
BENCHMARK(BM_LayoutGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  run_fig7();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
