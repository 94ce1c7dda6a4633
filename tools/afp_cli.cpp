// afp — command-line front end for the analog floorplanning library.
//
//   afp list
//       List the built-in circuit registry.
//   afp list-baselines
//       List the registered optimizers: name, encoding, tunable options.
//   afp floorplan <circuit|netlist.sp> | --batch <dir|manifest>
//       [--baseline <name>] [--opt k=v[,k=v...]] [--restarts N] [--iters N]
//       [--time-budget S] [--constrained] [--seed N] [--svg out.svg]
//       [--report out.txt] [--report-json out.json]
//       Run the full pipeline with a registry optimizer — one circuit, or an
//       async batch over a directory of .sp netlists / a manifest file.
//   afp train [--episodes N] [--seed N] [--out prefix]
//       Pre-train the R-GCN and HCL-train the PPO agent; writes
//       <prefix>_policy.bin and <prefix>_encoder.bin.
//   afp eval <circuit|netlist.sp> --agent prefix [--attempts K] [--seed N]
//       [--constrained] [--svg out.svg]
//       Floorplan with a trained agent checkpoint (zero-shot).
//   afp graph <circuit|netlist.sp> [--dot out.dot]
//       Print the heterogeneous circuit graph.
//
// Global options: --threads N (numeric thread-pool size), --tier
// naive|scalar|avx2|auto (kernel tier), --help.  See kUsage below.
//
// Every numeric option is validated; a malformed value (like an unknown
// flag) exits with code 2 and the usage text on stderr.
#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "core/job_service.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "core/training.hpp"
#include "ingest/scenario.hpp"
#include "ingest/spice_parser.hpp"
#include "netlist/library.hpp"
#include "nn/checkpoint.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"

namespace {

using namespace afp;

const char kUsage[] = R"(afp — analog floorplanning pipeline (R-GCN + PPO + metaheuristics)

usage: afp <command> [args] [options]

commands:
  list                              List the built-in circuit registry.
  list-baselines                    List the registered optimizers: name,
                                    encoding and tunable options.
  floorplan <circuit|netlist.sp>    Run the full pipeline with a registry
      [--baseline B] [--opt k=v]    optimizer.  --batch runs an async job
      [--batch dir|manifest]        batch instead of one circuit;
      [--scenario F:S:SEED]         --scenario runs one generated workload
      [--scenario-matrix SPEC]      and --scenario-matrix a whole sweep.
      [--time-budget S]
      [--constrained] [--seed N]
      [--svg out.svg]
      [--report out.txt]
      [--report-json out.json]
  ingest <deck.sp> [--top CELL]     Parse a SPICE deck (.subckt hierarchy,
      [--parse-only]                .param expressions, M/R/C/Q/D/X cards),
      [search options]              elaborate it flat and run the pipeline.
                                    --parse-only stops after elaboration.
                                    Malformed decks exit 2 with file:line.
  train [--episodes N] [--seed N]   Pre-train the R-GCN and HCL-train the
      [--out prefix]                PPO agent; writes <prefix>_policy.bin
                                    and <prefix>_encoder.bin.
  eval <circuit|netlist.sp>         Floorplan with a trained agent
      --agent prefix [--attempts K] checkpoint (zero-shot).
      [--seed N] [--constrained]
      [--svg out.svg]
  graph <circuit|netlist.sp>        Print the heterogeneous circuit graph.
      [--dot out.dot]

search options (floorplan):
  --baseline B  Registry optimizer name (see `afp list-baselines`):
                sa | ga | pso | rlsa | rlsp | sab | pt | pt-bstar
                (default sa).
  --opt k=v     Set an optimizer option (repeatable; commas separate
                several pairs).  `afp list-baselines` shows each
                optimizer's keys and defaults.
  --restarts N  Best-of-N independent searches on the thread pool
                (default 1).  Deterministic for any thread count.
  --iters N     Override the optimizer's primary budget knob (moves,
                generations, sweeps, episodes or per-replica moves).
  --time-budget S  Wall-clock budget in seconds: iteration quanta race the
                deadline (deterministic per completed quantum count).
                Mutually exclusive with --restarts.
  --quanta N    Run exactly N iteration quanta (deterministic fixed-quanta
                mode; no wall clock involved).  Mutually exclusive with
                --restarts.
  --job-timeout S  Hard per-job watchdog deadline in seconds.  A job that
                overruns is terminated at the next quantum/iteration
                boundary with status deadline_exceeded; partial results
                are discarded.
  --max-retries N  Retry a failed job up to N times (retryable error kinds
                only: optimizer_failure, resource_exhausted) with capped
                exponential backoff.  Each attempt draws a fresh
                deterministic seed; default 0.
  --checkpoint F  Persist per-quantum search state to file F (atomic
                write).  Requires --quanta or --time-budget.
  --resume      Resume from --checkpoint F when it exists; the resumed
                run is bitwise identical to an uninterrupted one.
  --batch P     Batch mode: P is a directory (every *.sp file, sorted) or
                a manifest file (one circuit/netlist path per line, #
                comments).  Jobs run concurrently on the thread pool with
                per-job SplitMix64 seeds derived from --seed.  Entries
                that fail to load are skipped (reported as failed with
                kind invalid_config); exit code 3 flags such a partially
                failed batch.
  --report F    Write a machine-checkable text run report (full-precision
                best cost, metrics and rectangles; no timings) to file F.
  --report-json F  Write the JSON run report (single run: one report
                object; batch: batch metadata + per-job reports).  Schema:
                cmake/report_schema.json.
  --scenario F:S:SEED[:ar=..][:ws=..][:plain=1]
                Run one generated workload instead of a circuit: family
                (ota|bias|latch|driver), target block count S (4..5000) and
                generator seed.  Constraint scenarios (symmetry pairs,
                matching groups, keep-outs, pre-placed anchors) are on by
                default; plain=1 suppresses them.  ar= sets a target outline
                aspect, ws= extra canvas whitespace.
  --scenario-matrix FAMS:SIZES:NSEEDS[:key=val...]
                Sweep the cross product: comma-separated families x comma-
                separated sizes x generator seeds 1..NSEEDS, run as a
                deterministic job batch (family-major order; per-job search
                seeds from --seed).  Trailing keys apply to every instance.

global options:
  --threads N   Size of the shared numeric thread pool (kernels, rollouts,
                metaheuristic restarts, batch jobs).  Default:
                AFP_NUM_THREADS or the hardware concurrency.  Results are
                identical for any N.
  --tier T      Kernel tier: naive | scalar | avx2 | auto (default auto;
                also settable via AFP_KERNEL_TIER).
  --help, -h    Show this message.

A <circuit> argument is first looked up in the registry (see `afp list`);
otherwise it is treated as a path to a SPICE deck, read as `afp ingest`
reads it (title line, SPICE suffixes; malformed decks exit 2 with
file:line).
Unknown options and malformed numeric values are rejected with exit code 2.
)";

/// Usage-level error: message + usage text on stderr, exit code 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Options every command accepts.
const std::set<std::string> kGlobalOptions = {"threads", "tier", "help", "h"};

/// Per-command options; anything outside the command's set plus the globals
/// is a usage error (exit code 2) instead of being silently ignored — this
/// also catches options that only exist on a *different* command.
const std::map<std::string, std::set<std::string>> kCommandOptions = {
    {"list", {}},
    {"list-baselines", {}},
    {"floorplan",
     {"baseline", "constrained", "seed", "svg", "report", "report-json",
      "restarts", "iters", "opt", "batch", "time-budget", "quanta",
      "job-timeout", "max-retries", "checkpoint", "resume", "scenario",
      "scenario-matrix"}},
    {"ingest",
     {"top", "parse-only", "baseline", "constrained", "seed", "svg",
      "report", "report-json", "restarts", "iters", "opt", "time-budget",
      "quanta", "job-timeout", "max-retries", "checkpoint", "resume"}},
    {"train", {"episodes", "seed", "out"}},
    {"eval", {"agent", "attempts", "seed", "constrained", "svg"}},
    {"graph", {"dot"}},
};

/// Minimal flag parser: positional args plus --key [value] options.
/// Repeated options accumulate (used by --opt).
struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::vector<std::string>> options;

  static Args parse(int argc, char** argv, int from) {
    Args a;
    for (int i = from; i < argc; ++i) {
      const std::string tok = argv[i];
      if (tok.rfind("--", 0) == 0) {
        const std::string key = tok.substr(2);
        if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
          a.options[key].push_back(argv[++i]);
        } else {
          a.options[key].push_back("1");
        }
      } else {
        a.positional.push_back(tok);
      }
    }
    return a;
  }

  /// First option key `cmd` does not understand, or empty when all are
  /// known (globals are accepted everywhere).
  std::string first_unknown(const std::string& cmd) const {
    const auto it = kCommandOptions.find(cmd);
    for (const auto& [key, values] : options) {
      if (kGlobalOptions.count(key)) continue;
      if (it != kCommandOptions.end() && it->second.count(key)) continue;
      return key;
    }
    return {};
  }

  std::string get(const std::string& key, const std::string& dflt) const {
    const auto it = options.find(key);
    return it == options.end() ? dflt : it->second.back();
  }
  std::vector<std::string> get_all(const std::string& key) const {
    const auto it = options.find(key);
    return it == options.end() ? std::vector<std::string>{} : it->second;
  }
  bool has(const std::string& key) const { return options.count(key) > 0; }
};

// ----------------------------------------------- validated numeric parsing
//
// std::stoul/stoi would throw std::invalid_argument on junk like
// `--seed abc` and surface as a generic exit-1 error; numeric options are a
// usage problem and must exit 2 with the usage text, like unknown flags.

long long parse_int_or_die(const Args& args, const std::string& key,
                           long long dflt, long long min_value) {
  const std::string s = args.get(key, std::to_string(dflt));
  long long v = 0;
  if (!metaheur::parse_strict_int(s, &v)) {
    throw UsageError("option '--" + key + "' expects an integer, got '" + s +
                     "'");
  }
  if (v < min_value) {
    throw UsageError("option '--" + key + "' must be >= " +
                     std::to_string(min_value) + ", got '" + s + "'");
  }
  return v;
}

std::uint64_t parse_u64_or_die(const Args& args, const std::string& key,
                               std::uint64_t dflt) {
  const std::string s = args.get(key, std::to_string(dflt));
  std::uint64_t v = 0;
  if (!metaheur::parse_strict_uint(s, &v)) {
    throw UsageError("option '--" + key +
                     "' expects an unsigned integer, got '" + s + "'");
  }
  return v;
}

double parse_double_or_die(const Args& args, const std::string& key,
                           double dflt) {
  std::ostringstream d;
  d << dflt;
  const std::string s = args.get(key, d.str());
  double v = 0.0;
  if (!metaheur::parse_strict_double(s, &v)) {
    throw UsageError("option '--" + key + "' expects a finite number, got '" +
                     s + "'");
  }
  return v;
}

/// A registry circuit by name, else a SPICE deck read as `afp ingest` reads
/// it (a missing file or a malformed deck throws ingest::ParseError).
netlist::Netlist load_circuit(const std::string& spec) {
  for (const auto& e : netlist::circuit_registry()) {
    if (e.name == spec) return e.make();
  }
  return ingest::parse_file(spec);
}

void print_result(const core::PipelineResult& res) {
  std::printf("blocks: %zu\n", res.recognition.structures.size());
  for (const auto& s : res.recognition.structures) {
    std::printf("  %-26s %-18s %8.1f um2\n", s.name.c_str(),
                structrec::to_string(s.type).c_str(), s.area_um2);
  }
  std::printf("floorplan: area %.1f um2 | dead space %.1f%% | HPWL %.1f um | "
              "reward %.2f | constraints %s\n",
              res.eval.area, res.eval.dead_space * 100.0, res.eval.hpwl,
              res.eval.reward, res.eval.constraints_ok ? "ok" : "VIOLATED");
  std::printf("routing: %zu/%zu nets | %.1f um | %d failed | %llu vertices | "
              "%llu heap pops\n",
              res.route.trees.size(), res.instance.nets.size(),
              res.route.total_wirelength, res.route.failed_nets,
              static_cast<unsigned long long>(res.route.vertices),
              static_cast<unsigned long long>(res.route.expanded));
  std::printf("layout: %zu wires | %zu vias | DRC %s (%zu) | LVS %s "
              "(%zu opens, %zu shorts)\n",
              res.layout.wires.size(), res.layout.vias.size(),
              res.drc.clean() ? "clean" : "dirty", res.drc.violations.size(),
              res.lvs.clean() ? "clean" : "dirty", res.lvs.open_nets.size(),
              res.lvs.shorted.size());
  std::printf("timing: SR %.3fs | HPWL ref %.3fs | floorplan %.3fs | "
              "route %.3fs | layout %.3fs\n",
              res.timings.recognition_s, res.timings.hpwl_ref_s,
              res.timings.floorplan_s, res.timings.route_s,
              res.timings.layout_s);
  if (res.quanta > 1) {
    std::printf("search: %ld evaluations over %ld wall-clock quanta\n",
                res.evaluations, res.quanta);
  }
}

int cmd_list() {
  std::printf("%-16s %8s %10s %10s\n", "circuit", "devices", "blocks",
              "training");
  for (const auto& e : netlist::circuit_registry()) {
    const auto nl = e.make();
    std::printf("%-16s %8d %10d %10s\n", e.name.c_str(), nl.num_devices(),
                e.expected_blocks, e.in_training_set ? "yes" : "no");
  }
  return 0;
}

int cmd_list_baselines() {
  for (const auto& name : metaheur::optimizer_names()) {
    auto opt = metaheur::make_optimizer(name);
    std::printf("%-10s encoding %s\n", name.c_str(), opt->encoding());
    for (const auto& spec : opt->describe()) {
      std::printf("    %-18s default %-10s %s\n", spec.key.c_str(),
                  spec.value.c_str(), spec.help.c_str());
    }
  }
  return 0;
}

/// Deterministic run report: everything a reproducibility check needs
/// (method, best cost, metrics, rectangles, routed length) at full
/// precision, and nothing timing-dependent.  Compared bitwise by the e2e
/// determinism test across thread counts, kernel tiers and repeats.
void write_report(const std::string& path, const std::string& baseline,
                  const core::PipelineResult& res) {
  std::ofstream os(path);
  os.precision(17);
  os << "baseline " << baseline << "\n";
  os << "blocks " << res.rects.size() << "\n";
  os << "cost " << metaheur::sp_cost(res.instance, res.rects) << "\n";
  os << "area " << res.eval.area << "\n";
  os << "dead_space " << res.eval.dead_space << "\n";
  os << "hpwl " << res.eval.hpwl << "\n";
  os << "reward " << res.eval.reward << "\n";
  os << "constraints_ok " << (res.eval.constraints_ok ? 1 : 0) << "\n";
  os << "route_wirelength " << res.route.total_wirelength << "\n";
  os << "layout_wires " << res.layout.wires.size() << " vias "
     << res.layout.vias.size() << "\n";
  for (const auto& r : res.rects) {
    os << "rect " << r.x << " " << r.y << " " << r.w << " " << r.h << "\n";
  }
  if (!os) {
    throw std::runtime_error("failed to write report '" + path + "'");
  }
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream os(path);
  os << content << "\n";
  if (!os) {
    throw std::runtime_error("failed to write '" + path + "'");
  }
}

/// Resolves --baseline to a registry name.
std::string baseline_name(const Args& args) {
  const std::string name = args.get("baseline", "sa");
  if (!metaheur::OptimizerRegistry::global().contains(name)) {
    std::string known;
    for (const auto& n : metaheur::optimizer_names()) {
      known += (known.empty() ? "" : ", ") + n;
    }
    throw UsageError("unknown baseline '" + name + "' (registered: " + known +
                     "); see `afp list-baselines`");
  }
  return name;
}

/// Collects --opt k=v[,k=v...] pairs into one option map.
metaheur::Options gather_options(const Args& args) {
  metaheur::Options opts;
  for (const auto& arg : args.get_all("opt")) {
    std::stringstream ss(arg);
    std::string pair;
    while (std::getline(ss, pair, ',')) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos || eq == 0) {
        throw UsageError("option '--opt' expects k=v, got '" + pair + "'");
      }
      opts[pair.substr(0, eq)] = pair.substr(eq + 1);
    }
  }
  return opts;
}

/// Batch inputs: every *.sp file of a directory (sorted), or the non-empty
/// non-comment lines of a manifest file (registry names or netlist paths).
std::vector<std::string> batch_inputs(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> inputs;
  if (fs::is_directory(path)) {
    for (const auto& entry : fs::directory_iterator(path)) {
      if (entry.is_regular_file() && entry.path().extension() == ".sp") {
        inputs.push_back(entry.path().string());
      }
    }
    std::sort(inputs.begin(), inputs.end());
  } else {
    std::ifstream is(path);
    if (!is) {
      throw std::runtime_error("cannot open batch manifest '" + path + "'");
    }
    std::string line;
    while (std::getline(is, line)) {
      const auto from = line.find_first_not_of(" \t\r");
      if (from == std::string::npos || line[from] == '#') continue;
      const auto to = line.find_last_not_of(" \t\r");
      inputs.push_back(line.substr(from, to - from + 1));
    }
  }
  if (inputs.empty()) {
    throw std::runtime_error("batch '" + path +
                             "' contains no netlists (*.sp or manifest "
                             "lines)");
  }
  return inputs;
}

/// The shared tail of --batch and --scenario-matrix.  `reports` holds one
/// slot per batch entry, with entries that could not be built already
/// filled in as failed; `jobs` run under their entry positions `ids`, from
/// which report ids, per-job seeds and .job<i> checkpoint paths derive, so
/// fixing a broken entry never reshuffles its siblings.  Prints one job
/// table and the `<label>: N/M done` line, writes --report-json and maps
/// the done count to the exit code: 0 when every job is done, 1 when none
/// is, 3 for a partial failure (2 stays usage-only).
int run_batch_jobs(const Args& args, const core::PipelineConfig& cfg,
                   std::uint64_t seed, const char* label,
                   std::vector<core::JobSpec> jobs,
                   const std::vector<std::size_t>& ids,
                   std::vector<core::JobReport> reports) {
  if (!cfg.search.checkpoint_path.empty()) {
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      jobs[k].config.search.checkpoint_path =
          cfg.search.checkpoint_path + ".job" + std::to_string(ids[k]);
    }
  }
  std::mutex io_mu;
  core::JobServiceOptions sopts;
  sopts.base_seed = seed;
  sopts.on_progress = [&](const core::JobProgress& p) {
    std::lock_guard<std::mutex> lock(io_mu);
    std::printf("  [%zu] %-24s %s (%.2fs)%s\n", p.id, p.name.c_str(),
                core::to_string(p.status), p.runtime_s,
                p.attempt > 0 ? " [retry]" : "");
  };
  for (auto& r : core::JobService::run_batch(std::move(jobs), sopts, ids)) {
    reports[r.id] = std::move(r);
  }

  std::printf("\n%-24s %-10s %12s %12s %11s %8s %9s %8s\n", "job", "status",
              "cost", "HPWL(um)", "constraints", "blocks", "runtime",
              "quanta");
  std::size_t done = 0, satisfied = 0, constrained = 0;
  for (const auto& r : reports) {
    if (r.status != core::JobStatus::kDone) {
      std::printf("%-24s %-10s %12s %12s %11s %8s %8.2fs %8s  [%s] %s\n",
                  r.name.c_str(), core::to_string(r.status), "-", "-", "-",
                  "-", r.runtime_s, "-", core::to_string(r.error.kind),
                  r.error.message.c_str());
      continue;
    }
    ++done;
    const floorplan::Evaluation& ev = r.result.eval;
    // Constrained jobs show the violated/total item breakdown, so a
    // near-miss reads differently from an unconstrained run.
    char cons[24] = "none";
    if (!r.result.instance.constraints.empty()) {
      ++constrained;
      if (ev.constraints_ok) {
        ++satisfied;
        std::snprintf(cons, sizeof cons, "ok");
      } else {
        std::snprintf(cons, sizeof cons, "%d/%d", ev.constraint_violations,
                      ev.constraint_items);
      }
    }
    std::printf("%-24s %-10s %12.4f %12.1f %11s %8zu %8.2fs %8ld\n",
                r.name.c_str(), core::to_string(r.status),
                metaheur::sp_cost(r.result.instance, r.result.rects), ev.hpwl,
                cons, r.result.rects.size(), r.runtime_s, r.result.quanta);
  }
  std::printf("\n%s: %zu/%zu done | constraints satisfied %zu/%zu\n", label,
              done, reports.size(), satisfied, constrained);
  if (args.has("report-json")) {
    const std::string path = args.get("report-json", "");
    write_file(path,
               core::batch_report_json(reports, seed,
                                       cfg.search.budget.wall_clock_s,
                                       num::num_threads()));
    std::printf("wrote %s\n", path.c_str());
  }
  if (done == reports.size()) return 0;
  return done == 0 ? 1 : 3;
}

int cmd_floorplan_batch(const Args& args, const core::PipelineConfig& cfg,
                        const std::string& name, std::uint64_t seed) {
  const auto inputs = batch_inputs(args.get("batch", ""));
  // A manifest entry that fails to load (unreadable file, unparsable
  // netlist) must not abort the batch: it is skipped here and reported as a
  // failed job with kind invalid_config.
  std::vector<core::JobSpec> jobs;
  std::vector<std::size_t> ids;
  std::vector<core::JobReport> reports(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    core::JobSpec spec;
    spec.name = std::filesystem::path(inputs[i]).stem().string();
    spec.config = cfg;
    try {
      spec.netlist = load_circuit(inputs[i]);
    } catch (const std::exception& e) {
      core::JobReport& r = reports[i];
      r.id = i;
      r.name = spec.name;
      r.optimizer = cfg.optimizer;
      r.search = spec.config.search;
      r.seed = core::JobService::job_seed(seed, i);
      r.status = core::JobStatus::kFailed;
      r.error = {core::JobErrorKind::kInvalidConfig, e.what(), i, -1};
      std::fprintf(stderr, "batch: skipping '%s': %s\n", inputs[i].c_str(),
                   e.what());
      continue;
    }
    ids.push_back(i);
    jobs.push_back(std::move(spec));
  }

  std::printf("batch: %zu jobs (%zu skipped) | optimizer %s | %d threads | "
              "seed %llu%s\n",
              inputs.size(), inputs.size() - jobs.size(), name.c_str(),
              num::num_threads(), static_cast<unsigned long long>(seed),
              cfg.search.budget.wall_clock_s > 0.0 ? " | time-budgeted" : "");
  return run_batch_jobs(args, cfg, seed, "batch", std::move(jobs), ids,
                        std::move(reports));
}

/// The fully validated search configuration shared by the floorplan,
/// ingest and scenario paths: pipeline config, resolved optimizer options
/// and the base seed.
struct SearchSetup {
  core::PipelineConfig cfg;
  std::string baseline;
  metaheur::Options resolved;
  std::uint64_t seed = 1;
};

SearchSetup build_search(const Args& args) {
  const std::string name = baseline_name(args);

  core::PipelineConfig cfg;
  cfg.constrained = args.has("constrained");
  cfg.optimizer = name;
  cfg.options = gather_options(args);
  cfg.search.restarts =
      static_cast<int>(parse_int_or_die(args, "restarts", 1, 1));
  if (args.has("iters")) {
    cfg.search.budget.iterations =
        static_cast<int>(parse_int_or_die(args, "iters", 0, 1));
  }
  if (args.has("time-budget")) {
    if (args.has("restarts")) {
      throw UsageError(
          "--restarts and --time-budget are mutually exclusive: the "
          "time-budgeted mode races iteration quanta instead of a fixed "
          "fan-out");
    }
    const double budget = parse_double_or_die(args, "time-budget", 0.0);
    if (budget <= 0.0) {
      throw UsageError("option '--time-budget' must be > 0 seconds");
    }
    cfg.search.budget.wall_clock_s = budget;
  }
  if (args.has("quanta")) {
    if (args.has("restarts")) {
      throw UsageError(
          "--restarts and --quanta are mutually exclusive: the fixed-quanta "
          "mode runs sequential iteration quanta instead of a fan-out");
    }
    cfg.search.budget.quanta =
        static_cast<int>(parse_int_or_die(args, "quanta", 0, 1));
  }
  if (args.has("job-timeout")) {
    const double deadline = parse_double_or_die(args, "job-timeout", 0.0);
    if (deadline <= 0.0) {
      throw UsageError("option '--job-timeout' must be > 0 seconds");
    }
    cfg.search.budget.deadline_s = deadline;
  }
  cfg.search.retry.max_retries =
      static_cast<int>(parse_int_or_die(args, "max-retries", 0, 0));
  if (args.has("checkpoint")) {
    if (cfg.search.budget.quanta <= 0 &&
        cfg.search.budget.wall_clock_s <= 0.0) {
      throw UsageError(
          "--checkpoint requires a quantum-granular search "
          "(--quanta or --time-budget)");
    }
    cfg.search.checkpoint_path = args.get("checkpoint", "");
    if (cfg.search.checkpoint_path.empty()) {
      throw UsageError("option '--checkpoint' expects a file path");
    }
  }
  if (args.has("resume")) {
    if (cfg.search.checkpoint_path.empty()) {
      throw UsageError("--resume requires --checkpoint <file>");
    }
    cfg.search.resume = true;
  }
  // Validate the optimizer + option map up front: a bad --opt key/value is
  // a usage error (exit 2), not a runtime failure.
  SearchSetup setup;
  try {
    setup.resolved = metaheur::make_optimizer(name, cfg.options)->options();
  } catch (const std::invalid_argument& e) {
    throw UsageError(e.what());
  }
  setup.cfg = std::move(cfg);
  setup.baseline = name;
  setup.seed = parse_u64_or_die(args, "seed", 1);
  return setup;
}

/// Runs one circuit through the fault-tolerant job path (watchdog,
/// exception firewall, retry/backoff) and honors --svg/--report/
/// --report-json.  Attempt 0 seeds mt19937_64(seed) exactly as the
/// historic direct pipe.run() call did, so existing goldens stay bitwise
/// identical.
int run_single(const Args& args, const SearchSetup& setup,
               const std::string& name, netlist::Netlist nl) {
  core::JobSpec spec;
  spec.name = name;
  spec.netlist = std::move(nl);
  spec.config = setup.cfg;
  const core::JobReport job =
      core::JobService::run_job(spec, 0, setup.seed, nullptr, nullptr);
  if (job.status != core::JobStatus::kDone) {
    // Out-of-range option values were already rejected as usage errors by
    // the make_optimizer validation above, so any terminal failure here is
    // a genuine runtime failure: exit 1 with the classified error.
    std::fprintf(stderr, "error: job %s after %d attempt%s [%s] %s\n",
                 core::to_string(job.status), job.attempts,
                 job.attempts == 1 ? "" : "s",
                 core::to_string(job.error.kind), job.error.message.c_str());
    return 1;
  }
  if (job.attempts > 1) {
    std::printf("search: succeeded on attempt %d\n", job.attempts);
  }
  const core::PipelineResult& res = job.result;
  print_result(res);
  if (args.has("svg")) {
    layoutgen::write_svg(args.get("svg", "layout.svg"), res.layout);
    std::printf("wrote %s\n", args.get("svg", "layout.svg").c_str());
  }
  if (args.has("report")) {
    write_report(args.get("report", "report.txt"), setup.baseline, res);
    std::printf("wrote %s\n", args.get("report", "report.txt").c_str());
  }
  if (args.has("report-json")) {
    const std::string path = args.get("report-json", "report.json");
    write_file(path, core::report_json(res, name, setup.baseline,
                                       setup.resolved, setup.cfg.search,
                                       setup.seed));
    std::printf("wrote %s\n", path.c_str());
  }
  return 0;
}

/// --scenario-matrix FAMS:SIZES:NSEEDS[:key=val...] — the cross product of
/// generated workloads as one deterministic job batch.
int cmd_scenario_matrix(const Args& args, const SearchSetup& setup) {
  const std::string text = args.get("scenario-matrix", "");
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t at = text.find(':', start);
    parts.push_back(text.substr(start, at - start));
    if (at == std::string::npos) break;
    start = at + 1;
  }
  if (parts.size() < 3) {
    throw UsageError(
        "option '--scenario-matrix' expects FAMS:SIZES:NSEEDS[:key=val...], "
        "got '" + text + "'");
  }
  auto split_commas = [](const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string tok;
    while (std::getline(ss, tok, ',')) out.push_back(tok);
    return out;
  };
  std::string suffix;
  for (std::size_t i = 3; i < parts.size(); ++i) suffix += ":" + parts[i];
  long long nseeds = 0;
  if (!metaheur::parse_strict_int(parts[2], &nseeds) || nseeds < 1) {
    throw UsageError("option '--scenario-matrix' NSEEDS must be a positive "
                     "integer, got '" + parts[2] + "'");
  }

  // Family-major, then size, then seed: the instance list (and with it the
  // per-job search seeds) is a pure function of the matrix spec.
  std::vector<core::JobSpec> jobs;
  std::vector<std::size_t> ids;
  for (const auto& fam : split_commas(parts[0])) {
    for (const auto& size : split_commas(parts[1])) {
      for (long long s = 1; s <= nseeds; ++s) {
        ingest::ScenarioSpec spec;
        try {
          spec = ingest::ScenarioSpec::parse(fam + ":" + size + ":" +
                                             std::to_string(s) + suffix);
        } catch (const std::invalid_argument& e) {
          throw UsageError(e.what());
        }
        auto sc = ingest::make_scenario(spec);
        core::JobSpec job;
        job.name = spec.to_string();
        job.netlist = std::move(sc.netlist);
        job.config = setup.cfg;
        job.config.scenario_constraints = std::move(sc.constraints);
        ids.push_back(jobs.size());
        jobs.push_back(std::move(job));
      }
    }
  }

  std::printf("scenario matrix: %zu instances | optimizer %s | %d threads | "
              "seed %llu\n",
              jobs.size(), setup.baseline.c_str(), num::num_threads(),
              static_cast<unsigned long long>(setup.seed));
  std::vector<core::JobReport> reports(jobs.size());
  return run_batch_jobs(args, setup.cfg, setup.seed, "matrix",
                        std::move(jobs), ids, std::move(reports));
}

int cmd_floorplan(const Args& args) {
  const bool batch = args.has("batch");
  const bool scenario = args.has("scenario");
  const bool matrix = args.has("scenario-matrix");
  const int sources = static_cast<int>(!args.positional.empty()) +
                      static_cast<int>(batch) + static_cast<int>(scenario) +
                      static_cast<int>(matrix);
  if (sources == 0) {
    std::fprintf(stderr, "usage: afp floorplan <circuit> [--baseline sa]\n");
    return 2;
  }
  if (sources > 1) {
    throw UsageError("<circuit>, --batch, --scenario and --scenario-matrix "
                     "are mutually exclusive workload sources");
  }
  if ((batch || matrix) && (args.has("svg") || args.has("report"))) {
    throw UsageError(
        "--svg/--report apply to single-circuit runs; batches emit "
        "--report-json");
  }
  const SearchSetup setup = build_search(args);
  if (batch) {
    return cmd_floorplan_batch(args, setup.cfg, setup.baseline, setup.seed);
  }
  if (matrix) return cmd_scenario_matrix(args, setup);
  if (scenario) {
    ingest::ScenarioSpec spec;
    try {
      spec = ingest::ScenarioSpec::parse(args.get("scenario", ""));
    } catch (const std::invalid_argument& e) {
      throw UsageError(e.what());
    }
    auto sc = ingest::make_scenario(spec);
    SearchSetup with_overlay = setup;
    with_overlay.cfg.scenario_constraints = std::move(sc.constraints);
    return run_single(args, with_overlay, spec.to_string(),
                      std::move(sc.netlist));
  }
  return run_single(args, setup, args.positional[0],
                    load_circuit(args.positional[0]));
}

/// `afp ingest <deck.sp>`: SPICE-deck front end.  Parse + elaborate, then
/// either stop (--parse-only) or run the full pipeline like floorplan.
int cmd_ingest(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp ingest <deck.sp> [--top CELL] "
                         "[--parse-only]\n");
    return 2;
  }
  ingest::ParseOptions popts;
  popts.top = args.get("top", "");
  netlist::Netlist nl = ingest::parse_file(args.positional[0], popts);
  if (args.has("parse-only")) {
    std::printf("deck: %s\n", args.positional[0].c_str());
    std::printf("top: %s\n", nl.name().c_str());
    std::printf("devices: %d\n", nl.num_devices());
    std::printf("nets: %zu\n", nl.nets().size());
    return 0;
  }
  return run_single(args, build_search(args), nl.name(), std::move(nl));
}

int cmd_train(const Args& args) {
  core::TrainOptions opt = core::TrainOptions::fast(
      static_cast<unsigned>(parse_u64_or_die(args, "seed", 1)));
  opt.num_threads = static_cast<int>(parse_int_or_die(args, "threads", 0, 0));
  opt.hcl.circuits = {"ota_small", "bias_small", "ota1", "ota2", "bias1"};
  opt.hcl.episodes_per_circuit =
      static_cast<int>(parse_int_or_die(args, "episodes", 64, 1));
  opt.ppo.n_envs = 4;
  opt.ppo.n_steps = 32;
  opt.ppo.minibatch = 64;
  opt.ppo.lr = 1e-3f;
  std::printf("training: %zu circuits x %d episodes...\n",
              opt.hcl.circuits.size(), opt.hcl.episodes_per_circuit);
  const auto agent = core::train_agent(opt);
  std::printf("done: %zu PPO iterations, final mean episode reward %.2f\n",
              agent.rl_history.size(),
              agent.rl_history.empty()
                  ? 0.0
                  : agent.rl_history.back().mean_episode_reward);
  const std::string prefix = args.get("out", "afp_agent");
  nn::save_module(*agent.policy, prefix + "_policy.bin");
  nn::save_module(*agent.encoder, prefix + "_encoder.bin");
  std::printf("wrote %s_policy.bin and %s_encoder.bin\n", prefix.c_str(),
              prefix.c_str());
  return 0;
}

int cmd_eval(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp eval <circuit> --agent prefix\n");
    return 2;
  }
  const std::string prefix = args.get("agent", "afp_agent");
  // Validate every numeric option before any heavy work or file I/O.
  const std::uint64_t seed = parse_u64_or_die(args, "seed", 1);
  const int attempts = static_cast<int>(parse_int_or_die(args, "attempts", 8, 1));
  std::mt19937_64 rng(seed);
  rgcn::RewardModel encoder(rng);
  rl::ActorCritic policy(rl::PolicyConfig::fast(), rng);
  nn::load_module(encoder, prefix + "_encoder.bin");
  nn::load_module(policy, prefix + "_policy.bin");

  const auto nl = load_circuit(args.positional[0]);
  core::PipelineConfig cfg;
  cfg.constrained = args.has("constrained");
  cfg.rl_attempts = attempts;
  core::FloorplanPipeline pipe(cfg);
  const auto res = pipe.run(nl, policy, encoder, rng);
  print_result(res);
  if (args.has("svg")) {
    layoutgen::write_svg(args.get("svg", "layout.svg"), res.layout);
    std::printf("wrote %s\n", args.get("svg", "layout.svg").c_str());
  }
  return 0;
}

int cmd_graph(const Args& args) {
  if (args.positional.empty()) {
    std::fprintf(stderr, "usage: afp graph <circuit> [--dot out.dot]\n");
    return 2;
  }
  const auto nl = load_circuit(args.positional[0]);
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  graphir::apply_constraints(g, graphir::default_constraints(g));
  std::printf("graph '%s': %d nodes\n", g.name.c_str(), g.num_nodes());
  static const char* kRel[] = {"connectivity", "h-align", "v-align", "h-sym",
                               "v-sym"};
  for (int r = 0; r < graphir::kNumRelations; ++r) {
    std::printf("  %-12s %zu edges\n", kRel[r],
                g.edges[static_cast<std::size_t>(r)].size());
  }
  if (args.has("dot")) {
    std::ofstream os(args.get("dot", "graph.dot"));
    os << "graph g {\n";
    for (int i = 0; i < g.num_nodes(); ++i) {
      os << "  n" << i << " [label=\""
         << g.nodes[static_cast<std::size_t>(i)].name << "\"];\n";
    }
    for (int r = 0; r < graphir::kNumRelations; ++r) {
      for (const auto& [u, v] : g.edges[static_cast<std::size_t>(r)]) {
        os << "  n" << u << " -- n" << v << ";\n";
      }
    }
    os << "}\n";
    std::printf("wrote %s\n", args.get("dot", "graph.dot").c_str());
  }
  return 0;
}

/// Exit path for every command: flush stdout and turn a write failure
/// (EPIPE from `afp ... | head -1`, a full disk, ...) into a clean nonzero
/// exit with a stderr note instead of a SIGPIPE kill or silent truncation.
int finish(int rc) {
  if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
    std::fprintf(stderr, "error: writing to stdout failed: %s\n",
                 std::strerror(errno));
    return rc == 0 ? 1 : rc;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // A closed downstream pipe must surface as an EPIPE write error (caught
  // in finish()), not kill the process with SIGPIPE — report files named by
  // --report/--report-json are still written either way.
  std::signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  const Args args = Args::parse(argc, argv, 2);
  if (args.has("help") || args.has("h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (!kCommandOptions.count(cmd)) {
    std::fprintf(stderr, "error: unknown command '%s'\n\n", cmd.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (const std::string unknown = args.first_unknown(cmd); !unknown.empty()) {
    std::fprintf(stderr, "error: unknown option '--%s' for '%s'\n\n",
                 unknown.c_str(), cmd.c_str());
    std::fputs(kUsage, stderr);
    return 2;
  }
  try {
    // Global knobs, honored by every command: pool size and kernel tier.
    if (args.has("threads")) {
      num::set_num_threads(
          static_cast<int>(parse_int_or_die(args, "threads", 0, 0)));
    }
    if (args.has("tier")) {
      num::KernelTier tier;
      if (!num::parse_kernel_tier(args.get("tier", "auto").c_str(), &tier)) {
        std::fprintf(stderr, "unknown kernel tier '%s'\n",
                     args.get("tier", "").c_str());
        return 2;
      }
      num::set_kernel_tier(tier);
    }
    if (cmd == "list") return finish(cmd_list());
    if (cmd == "list-baselines") return finish(cmd_list_baselines());
    if (cmd == "floorplan") return finish(cmd_floorplan(args));
    if (cmd == "ingest") return finish(cmd_ingest(args));
    if (cmd == "train") return finish(cmd_train(args));
    if (cmd == "eval") return finish(cmd_eval(args));
    if (cmd == "graph") return finish(cmd_graph(args));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "error: %s\n\n", e.what());
    std::fputs(kUsage, stderr);
    return 2;
  } catch (const ingest::ParseError& e) {
    // A malformed deck is an input problem like a bad flag: a structured
    // file:line diagnostic and exit 2, never a crash (no usage dump — the
    // flags were fine).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  // Unreachable: cmd was validated against kCommandOptions above and every
  // listed command is dispatched in the try block.
  return 2;
}
