// Search-quality bench: single-chain SA and SA-B*, their best-of-4
// restarts, and parallel tempering over both encodings, at an EQUAL packed-
// and-scored move budget over the Table I circuits plus two 50-block
// constraint scenarios and 10 seeds.  It is the trial that keeps parallel
// tempering: at the same number of cost evaluations and the same four-way
// parallelism, PT must beat best-of-4 SA (SAx4) and PT-B* best-of-4 SA-B*
// (SABx4).  It prints each method's mean best cost and the paired wins
// (same instance, same seed) of both comparisons, next to PT against
// single-chain SA.
//
// Self-timed (no Google Benchmark), always builds; results are printed and
// written to BENCH_search.json.  AFP_BENCH_SCALE scales the move budget.
// A JobService section times an N-circuit batch serially (1 thread) vs on a
// 4-thread pool, asserts the reports are bitwise identical (thread-count
// invariance + repeatability), and records the speedup — ≥2x on a ≥4-core
// box; bounded by the physical core count (a 1-core CI runner records ~1x).
#include <fstream>
#include <map>

#include "bench_common.hpp"
#include "core/job_service.hpp"
#include "ingest/scenario.hpp"
#include "metaheur/eval_cache.hpp"
#include "metaheur/optimizer.hpp"
#include "metaheur/parallel_search.hpp"
#include "metaheur/tempering.hpp"
#include "numeric/parallel.hpp"

namespace afp::bench {

namespace {

constexpr int kSeeds = 10;
constexpr std::uint64_t kFirstSeed = 600;

/// The Table I circuits: the JobService batch runs one job per circuit.
const std::vector<std::string> kCircuits = {"ota1",     "ota2",   "bias1",
                                            "rs_latch", "driver", "bias2"};

/// The comparison's instances: the Table I circuits, then two scenario
/// specs whose constraint overlays are resolved onto their graphs.
const std::vector<std::string> kInstances = {
    "ota1",   "ota2",  "bias1",    "rs_latch",
    "driver", "bias2", "ota:50:1", "latch:50:2"};

struct MethodStats {
  std::vector<double> best_cost;
  std::vector<double> runtime_s;
  long evaluations = 0;

  static double mean(const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  }
  double mean_cost() const { return mean(best_cost); }
  double mean_runtime() const { return mean(runtime_s); }
};

floorplan::Instance instance_of(const std::string& name) {
  if (name.find(':') == std::string::npos) {
    const auto nl = make_circuit(name);
    return floorplan::make_instance(
        graphir::build_graph(nl, structrec::recognize(nl)));
  }
  const auto sc = ingest::make_scenario(ingest::ScenarioSpec::parse(name));
  auto g = graphir::build_graph(sc.netlist, structrec::recognize(sc.netlist));
  graphir::apply_constraints(g, graphir::resolve(sc.constraints, g));
  return floorplan::make_instance(g);
}

/// Paired outcomes of `a` against `b` over the same (instance, seed) runs;
/// lower cost wins.
struct Paired {
  int wins = 0, losses = 0, ties = 0;
};

Paired paired(const std::vector<double>& a, const std::vector<double>& b) {
  Paired p;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] < b[i]) {
      ++p.wins;
    } else if (a[i] > b[i]) {
      ++p.losses;
    } else {
      ++p.ties;
    }
  }
  return p;
}

/// Synthetic large instance for the delta-vs-full packing comparison: the
/// Table I circuits top out around a dozen blocks, far too small to show the
/// asymptotic win of incremental evaluation, so this builds a `blocks`-block
/// instance directly (deterministic areas, seeded random 2-5 pin nets).
floorplan::Instance synthetic_instance(int blocks, std::uint64_t seed) {
  floorplan::Instance inst;
  inst.name = "synthetic" + std::to_string(blocks);
  std::mt19937_64 rng(seed);
  for (int b = 0; b < blocks; ++b) {
    floorplan::Block blk;
    blk.name = "b" + std::to_string(b);
    blk.area_um2 = 20.0 + 3.0 * static_cast<double>(b % 17);
    blk.shapes = floorplan::candidate_shapes(blk.area_um2,
                                             structrec::StructureType::kUnknown);
    inst.blocks.push_back(std::move(blk));
  }
  std::uniform_int_distribution<int> pins(2, 5);
  std::uniform_int_distribution<int> pick(0, blocks - 1);
  for (int n = 0; n < 2 * blocks; ++n) {
    std::vector<int> net;
    const int k = pins(rng);
    while (static_cast<int>(net.size()) < k) {
      const int b = pick(rng);
      if (std::find(net.begin(), net.end(), b) == net.end()) net.push_back(b);
    }
    inst.nets.push_back(std::move(net));
  }
  const double side = geom::canvas_side(inst.total_block_area(), 11.0);
  inst.canvas_w = side;
  inst.canvas_h = side;
  double ref = 0.0;
  for (const auto& net : inst.nets) {
    double a = 0.0;
    for (int b : net) a += inst.blocks[static_cast<std::size_t>(b)].area_um2;
    ref += 2.0 * std::sqrt(a);
  }
  inst.hpwl_ref = std::max(1.0, ref);
  return inst;
}

}  // namespace

}  // namespace afp::bench

int main() {
  using namespace afp;
  using namespace afp::bench;

  // Equal total budget for every method: evaluations = kBudget exactly.
  //   SA, SAB:      1 initial + (kBudget - 1) moves
  //   SAxR, SABxR:  R restarts of 1 + kBudget/R - 1 moves
  //   PT, PT-B*:    K replicas, K + K * iterations evaluations in total
  const int kBudget = scaled(2496);
  const int kRestarts = 4;

  // Everything below goes through the registry: the solver is a name plus
  // an option map, exactly as the pipeline/CLI/JobService consume it.
  const auto iterations = [](int n) {
    return metaheur::Options{{"iterations", std::to_string(n)}};
  };
  const int pt_iterations = kBudget / metaheur::PTParams{}.replicas - 1;
  const auto sa = metaheur::make_optimizer("sa", iterations(kBudget - 1));
  const auto sa_r = metaheur::make_optimizer(
      "sa", iterations(kBudget / kRestarts - 1));
  const auto sab = metaheur::make_optimizer("sab", iterations(kBudget - 1));
  const auto sab_r = metaheur::make_optimizer(
      "sab", iterations(kBudget / kRestarts - 1));
  // Tuned defaults otherwise.
  const auto pt = metaheur::make_optimizer("pt", iterations(pt_iterations));
  const auto ptb =
      metaheur::make_optimizer("pt-bstar", iterations(pt_iterations));
  struct Method {
    std::string name;
    const metaheur::Optimizer* opt;
    int restarts;
  };
  const std::vector<Method> methods = {
      {"SA", sa.get(), 1},   {"SAx4", sa_r.get(), kRestarts},
      {"PT", pt.get(), 1},   {"PT-B*", ptb.get(), 1},
      {"SAB", sab.get(), 1}, {"SABx4", sab_r.get(), kRestarts}};

  std::printf("search bench: %d threads, budget %d evaluations/method, "
              "seeds %llu-%llu\n\n",
              num::num_threads(), kBudget,
              static_cast<unsigned long long>(kFirstSeed),
              static_cast<unsigned long long>(kFirstSeed + kSeeds - 1));
  std::printf("%-12s", "instance");
  for (const auto& m : methods) std::printf(" %10s", m.name.c_str());
  std::printf("   (mean best cost, %d seeds)\n", kSeeds);

  // instances x methods -> stats; `overall` keeps every method's costs in
  // the same (instance, seed) order, so runs pair up by index.
  std::map<std::string, std::map<std::string, MethodStats>> table;
  std::map<std::string, MethodStats> overall;

  for (const auto& name : kInstances) {
    const auto inst = instance_of(name);
    for (int s = 0; s < kSeeds; ++s) {
      const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(s);
      for (const auto& m : methods) {
        metaheur::BaselineResult r;
        if (m.restarts > 1) {
          r = metaheur::run_multistart(inst, *m.opt, {}, {m.restarts, seed});
        } else {
          std::mt19937_64 rng(seed);
          r = m.opt->run(inst, {}, rng);
        }
        auto& cell = table[name][m.name];
        cell.best_cost.push_back(metaheur::sp_cost(inst, r.rects));
        cell.runtime_s.push_back(r.runtime_s);
        cell.evaluations = r.evaluations;
        overall[m.name].best_cost.push_back(cell.best_cost.back());
      }
    }
    std::printf("%-12s", name.c_str());
    for (const auto& m : methods) {
      std::printf(" %10.4f", table[name][m.name].mean_cost());
    }
    std::printf("\n");
  }

  // ---- JobService batch: determinism + parallel throughput ---------------
  // One SA job per circuit through the full pipeline (recognition, search,
  // routing, layout), scheduled by core::JobService.  Runs: serial
  // reference (1 thread), 4-thread pool, 4-thread repeat.  All three must
  // be bitwise identical; the speedup column of BENCH_search.json records
  // serial_s / batch_s.
  std::vector<core::JobSpec> jobs;
  for (const auto& name : kCircuits) {
    core::JobSpec spec;
    spec.name = name;
    spec.netlist = make_circuit(name);
    spec.config.optimizer = "sa";
    // 8x the table budget: a job must be long enough (tens of ms) that the
    // speedup measures scheduling, not parallel_for launch overhead.
    spec.config.options = {{"iterations", std::to_string(8 * kBudget)}};
    jobs.push_back(std::move(spec));
  }
  core::JobServiceOptions jopts;
  jopts.base_seed = 400;
  const int ambient_threads = num::num_threads();
  auto timed_batch = [&](int threads, double* seconds) {
    num::set_num_threads(threads);
    const auto t0 = std::chrono::steady_clock::now();
    auto reports = core::JobService::run_batch(jobs, jopts);
    *seconds = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    return reports;
  };
  double serial_s = 0.0, batch_s = 0.0, repeat_s = 0.0;
  const auto serial_reports = timed_batch(1, &serial_s);
  const auto batch_reports = timed_batch(4, &batch_s);
  const auto repeat_reports = timed_batch(4, &repeat_s);
  num::set_num_threads(0);
  bool deterministic = true;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const auto* other : {&batch_reports[j], &repeat_reports[j]}) {
      deterministic &= serial_reports[j].status == core::JobStatus::kDone &&
                       other->status == core::JobStatus::kDone &&
                       serial_reports[j].result.rects == other->result.rects &&
                       serial_reports[j].result.eval.reward ==
                           other->result.eval.reward;
    }
  }
  const double speedup = batch_s > 0.0 ? serial_s / batch_s : 0.0;
  std::printf("\nJobService batch (%zu jobs, full pipeline): serial %.2fs | "
              "4 threads %.2fs | speedup %.2fx (%d hw threads) | %s\n",
              jobs.size(), serial_s, batch_s, speedup, ambient_threads,
              deterministic ? "deterministic" : "NONDETERMINISTIC");
  if (!deterministic) {
    std::fprintf(stderr,
                 "FATAL: JobService batch results differ across thread "
                 "counts/repeats\n");
    return 1;
  }

  // ---- Incremental evaluation: delta vs full packing throughput ----------
  // One seeded SA run per encoding on a 120-block synthetic instance, timed
  // under AFP_EVAL=full (legacy O(n^2) repack + full HPWL rescan per move)
  // and AFP_EVAL=delta (metaheur/eval_cache).  The best floorplans must be
  // bitwise identical — the engine is a pure speedup — and the recorded
  // steps/s ratio is the headline number for the incremental engine.
  const int kDeltaBlocks = 250;
  const auto big = synthetic_instance(kDeltaBlocks, 2024);
  const int kDeltaIters = scaled(4000);
  const auto ambient_mode = metaheur::eval_mode();
  auto timed_run = [&](metaheur::EvalMode mode, const char* opt_name,
                       metaheur::BaselineResult* out) {
    metaheur::set_eval_mode(mode);
    const auto o = metaheur::make_optimizer(
        opt_name, {{"iterations", std::to_string(kDeltaIters)}});
    std::mt19937_64 rng(4242);
    *out = o->run(big, {}, rng);
    return static_cast<double>(out->evaluations) /
           std::max(1e-9, out->runtime_s);
  };
  struct DeltaRow {
    const char* method;
    double full_sps = 0.0;
    double delta_sps = 0.0;
    double speedup = 0.0;
    bool match = false;
  };
  std::vector<DeltaRow> delta_rows;
  bool delta_match = true;
  std::printf("\nincremental eval, %d-block synthetic, %d moves "
              "(steps/s, AFP_EVAL=full vs delta):\n",
              kDeltaBlocks, kDeltaIters);
  for (const char* m : {"sa", "sab"}) {
    DeltaRow row;
    row.method = m;
    metaheur::BaselineResult full, delta;
    row.full_sps = timed_run(metaheur::EvalMode::kFull, m, &full);
    row.delta_sps = timed_run(metaheur::EvalMode::kDelta, m, &delta);
    row.speedup = row.delta_sps / std::max(1e-9, row.full_sps);
    row.match = full.rects == delta.rects &&
                full.eval.reward == delta.eval.reward;
    delta_match &= row.match;
    std::printf("  %-4s %10.0f -> %10.0f   %5.2fx  %s\n", m, row.full_sps,
                row.delta_sps, row.speedup,
                row.match ? "identical result" : "RESULT MISMATCH");
    delta_rows.push_back(row);
  }
  metaheur::set_eval_mode(ambient_mode);
  if (!delta_match) {
    std::fprintf(stderr,
                 "FATAL: delta evaluation changed a best floorplan\n");
    return 1;
  }

  const double sa_mean = overall["SA"].mean_cost();
  const double pt_mean = overall["PT"].mean_cost();
  std::printf("\noverall mean best cost:");
  for (const auto& m : methods) {
    std::printf(" %s %.4f", m.name.c_str(), overall[m.name].mean_cost());
  }
  std::printf("\n");
  std::printf("PT %s single-chain SA at equal move budget (%.4f vs %.4f)\n",
              pt_mean < sa_mean ? "beats" : "DOES NOT beat", pt_mean, sa_mean);
  // The two comparisons at equal budget and equal four-way parallelism.
  struct Trial {
    const char* a;
    const char* b;
    const char* key;
    Paired p;
  };
  std::vector<Trial> trials = {{"PT", "SAx4", "pt_vs_sax4", {}},
                               {"PT-B*", "SABx4", "ptb_vs_sabx4", {}}};
  for (auto& t : trials) {
    t.p = paired(overall[t.a].best_cost, overall[t.b].best_cost);
    std::printf("%s vs %s: mean %.4f vs %.4f, wins %d of %zu paired runs "
                "(%d losses, %d ties)\n",
                t.a, t.b, overall[t.a].mean_cost(), overall[t.b].mean_cost(),
                t.p.wins, overall[t.a].best_cost.size(), t.p.losses,
                t.p.ties);
  }

  std::ofstream os("BENCH_search.json");
  os << "{\n  \"bench\": \"search\",\n  \"threads\": " << num::num_threads()
     << ",\n  \"budget_evaluations\": " << kBudget
     << ",\n  \"seeds\": " << kSeeds << ",\n  \"first_seed\": " << kFirstSeed
     << ",\n  \"circuits\": [\n";
  for (std::size_t c = 0; c < kInstances.size(); ++c) {
    os << "    {\"circuit\": \"" << kInstances[c] << "\"";
    for (const auto& m : methods) {
      const auto& cell = table[kInstances[c]][m.name];
      os << ", \"" << m.name << "\": {\"mean_cost\": " << cell.mean_cost()
         << ", \"mean_runtime_s\": " << cell.mean_runtime()
         << ", \"evaluations\": " << cell.evaluations << "}";
    }
    os << "}" << (c + 1 < kInstances.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"summary\": {";
  for (const auto& m : methods) {
    os << "\"" << m.name << "_mean_cost\": " << overall[m.name].mean_cost()
       << ", ";
  }
  os << "\"pt_beats_sa\": " << (pt_mean < sa_mean ? "true" : "false");
  for (const auto& t : trials) {
    os << ", \"" << t.key << "\": {\"wins\": " << t.p.wins
       << ", \"losses\": " << t.p.losses << ", \"ties\": " << t.p.ties
       << ", \"pairs\": " << overall[t.a].best_cost.size() << "}";
  }
  os << "},\n  \"job_service\": {\"jobs\": " << jobs.size()
     << ", \"hw_threads\": " << ambient_threads
     << ", \"serial_s\": " << serial_s << ", \"batch_threads\": 4"
     << ", \"batch_s\": " << batch_s << ", \"repeat_s\": " << repeat_s
     << ", \"speedup\": " << speedup
     << ", \"deterministic\": " << (deterministic ? "true" : "false")
     << "},\n  \"delta_eval\": {\"blocks\": " << kDeltaBlocks
     << ", \"moves\": " << kDeltaIters << ", \"methods\": [";
  for (std::size_t i = 0; i < delta_rows.size(); ++i) {
    const auto& r = delta_rows[i];
    os << "{\"method\": \"" << r.method
       << "\", \"full_steps_per_s\": " << r.full_sps
       << ", \"delta_steps_per_s\": " << r.delta_sps
       << ", \"speedup\": " << r.speedup
       << ", \"identical_result\": " << (r.match ? "true" : "false") << "}"
       << (i + 1 < delta_rows.size() ? ", " : "");
  }
  os << "]}\n}\n";
  std::printf("wrote BENCH_search.json\n");
  return 0;
}
