// The traced pass: a replica of FloorplanPipeline::run built from each
// module's public functions, with a span around every call.  Spans live in
// memory and are summed per layer; the replica's result is fingerprinted
// and compared with the untraced job's, so a replica that drifts from the
// pipeline shows up as a mismatch instead of silently timing other work.
#include <cmath>

#include "bench.hpp"
#include "metaheur/eval_cache.hpp"
#include "metaheur/optimizer.hpp"

namespace afpbench {

using namespace afp;

namespace {

/// Times `fn` as one span of `layer`.
template <class Fn>
auto span(LayerTotals* totals, const char* layer, Fn&& fn) {
  const auto t0 = Clock::now();
  auto out = fn();
  totals->busy_ms[layer] += ms_since(t0);
  return out;
}

}  // namespace

Outcome run_traced(const Job& job, const Agent* agent, std::uint64_t expected,
                   LayerTotals* t) {
  const core::PipelineConfig& cfg = job.spec.config;
  const netlist::Netlist& nl = job.spec.netlist;
  // run_job seeds attempt 0 with the job seed itself, as does the agent path.
  std::mt19937_64 rng(job.spec.seed);
  core::PipelineResult res;
  const auto t0 = Clock::now();

  // 1-4: FloorplanPipeline::prepare.
  res.recognition =
      span(t, "structrec", [&] { return structrec::recognize(nl); });
  graphir::CircuitGraph graph = span(t, "graphir", [&] {
    graphir::CircuitGraph g = graphir::build_graph(nl, res.recognition);
    if (cfg.constrained) {
      graphir::apply_constraints(g, graphir::default_constraints(g));
    }
    if (!cfg.scenario_constraints.empty()) {
      graphir::ConstraintSpec merged = g.constraints;
      graphir::ConstraintSpec overlay =
          graphir::resolve(cfg.scenario_constraints, g);
      auto append = [](auto& dst, auto& src) {
        dst.insert(dst.end(), std::make_move_iterator(src.begin()),
                   std::make_move_iterator(src.end()));
      };
      append(merged.sym_pairs, overlay.sym_pairs);
      append(merged.self_syms, overlay.self_syms);
      append(merged.align_groups, overlay.align_groups);
      append(merged.match_groups, overlay.match_groups);
      append(merged.keep_outs, overlay.keep_outs);
      append(merged.preplaced, overlay.preplaced);
      graphir::apply_constraints(g, std::move(merged));
    }
    return g;
  });
  res.instance = span(t, "floorplan", [&] {
    floorplan::Instance inst = floorplan::make_instance(graph);
    if (cfg.scenario_constraints.extra_whitespace > 0.0) {
      const double s = std::sqrt(1.0 + cfg.scenario_constraints.extra_whitespace);
      inst.canvas_w *= s;
      inst.canvas_h *= s;
    }
    if (cfg.scenario_constraints.target_aspect) {
      inst.target_aspect = cfg.scenario_constraints.target_aspect;
    }
    return inst;
  });
  res.instance.hpwl_ref = span(t, "metaheur.hpwl_ref", [&] {
    return cfg.hpwl_ref > 0.0 ? cfg.hpwl_ref
                              : metaheur::estimate_hpwl_min(res.instance, rng);
  });

  // 5: the search, or the agent.
  std::vector<geom::Rect> rects;
  double tol = 1e-6;
  if (job.agent) {
    const rl::TaskContext task = span(t, "rgcn.encode", [&] {
      return rl::make_task(*agent->encoder, graph, res.instance.hpwl_ref,
                           res.instance.target_aspect);
    });
    rl::EpisodeResult ep = span(t, "rl.infer", [&] {
      return rl::best_of_episodes(*agent->policy, task, cfg.rl_attempts, rng,
                                  cfg.env);
    });
    rects = std::move(ep.rects);
    tol = res.instance.canvas_w / cfg.env.grid / 2.0 + 1e-9;
    res.evaluations = cfg.rl_attempts;
    t->rl_steps += static_cast<double>(cfg.rl_attempts) *
                   res.instance.num_blocks();
  } else {
    metaheur::TranspositionCache tt;
    metaheur::BaselineResult base = span(t, "metaheur.search", [&] {
      const auto opt = metaheur::make_optimizer(cfg.optimizer, cfg.options);
      metaheur::SearchBudget budget = cfg.search.budget;
      budget.tt = &tt;
      return opt->run(res.instance, budget, rng);
    });
    rects = std::move(base.rects);
    res.evaluations = base.evaluations;
    ++t->search_jobs;
    t->evaluations += static_cast<double>(base.evaluations);
    t->tt_hits += static_cast<double>(tt.hits());
    t->tt_lookups += static_cast<double>(tt.hits() + tt.misses());
  }

  // 6-8: FloorplanPipeline::back_half.
  res.eval = span(t, "floorplan", [&] {
    return floorplan::evaluate_floorplan(res.instance, rects, {}, tol);
  });
  res.rects = std::move(rects);
  std::vector<int> dirs;
  dirs.reserve(graph.nodes.size());
  for (const auto& node : graph.nodes) dirs.push_back(node.routing_direction);
  res.route = span(t, "route", [&] {
    return route::global_route(res.instance, res.rects, dirs);
  });
  res.layout = span(t, "layoutgen.generate", [&] {
    return layoutgen::generate_layout(res.instance, res.rects, res.route,
                                      cfg.layout, dirs);
  });
  res.drc = span(t, "layoutgen.drc",
                 [&] { return layoutgen::run_drc(res.layout, cfg.layout); });
  res.lvs = span(t, "layoutgen.lvs",
                 [&] { return layoutgen::run_lvs(res.layout); });
  const core::JobError err = span(
      t, "core.job", [&] { return core::JobService::validate_result(res); });
  const double job_ms = ms_since(t0);

  ++t->jobs;
  t->job_ms += job_ms;
  t->blocks += static_cast<double>(res.recognition.structures.size());
  for (const auto& rel : graph.edges) t->edges += static_cast<double>(rel.size());
  t->nets += static_cast<double>(res.route.net_names.size());
  t->failed_nets += res.route.failed_nets;
  t->wires += static_cast<double>(res.layout.wires.size());

  Outcome o = summarize(res, job_ms);
  o.ok = o.ok && err.ok() && !res.rects.empty();
  if (o.fingerprint != expected) ++t->mismatches;
  return o;
}

}  // namespace afpbench
