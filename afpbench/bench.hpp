// Shared types of the afp benchmark: the job model, untraced execution,
// the traced replica and the metric sink every workload reports through.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/job_service.hpp"
#include "core/training.hpp"
#include "metaheur/parallel_search.hpp"

namespace afpbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool quick = false;  ///< tiny inputs for the self-check
  std::string afpd;    ///< daemon binary (afpd workload)
};

/// The trained agent a `table1` agent job floorplans with.
struct Agent {
  std::shared_ptr<afp::rgcn::RewardModel> encoder;
  std::shared_ptr<afp::rl::ActorCritic> policy;
};

/// One job of a workload.  `spec` carries the netlist, the pipeline
/// configuration and the explicit rng seed; `cls` is its latency class.
struct Job {
  std::string cls;
  afp::core::JobSpec spec;
  bool agent = false;    ///< R-GCN + PPO agent path, not a registry optimizer
  std::string scenario;  ///< generated-workload spec text (scale, afpd)
};

/// What one finished job produced, reduced to the numbers the benchmark
/// reports and a fingerprint of every deterministic output.
struct Outcome {
  bool ok = false;
  std::string error;
  double latency_ms = 0.0;
  int attempts = 1;
  double dead_space = 0.0;
  double hpwl = 0.0;
  int violations = 0;
  int items = 0;
  std::size_t drc = 0;
  std::size_t lvs = 0;  ///< open nets + shorted pairs
  std::uint64_t fingerprint = 0;
};

/// What a measured phase produced, whatever the workload.  Times are at
/// the reference speed (see SpeedProbe): the wall time a job took, scaled
/// by how fast the CPU it ran on was while it ran.
struct Measurement {
  std::vector<double> setup_s;  ///< per timed set-up unit, per set-up
  std::vector<std::vector<double>> latencies;  ///< per job, every sample
  long attempted = 0;
  long finished = 0;
  long failed = 0;
  double wall_s = 0.0;      ///< measured phase, raw wall clock
  double wall_scale = 1.0;  ///< speed scale over the measured phase
  std::vector<std::string> errors;  ///< failed output checks
};

/// Hash of a result's deterministic outputs: rectangles, evaluation,
/// routing, layout, DRC/LVS and the search's evaluation count.  Timings and
/// transposition-cache counters are excluded.
std::uint64_t fingerprint(const afp::core::PipelineResult& r);

/// Reduces a finished result (checking that every metric is finite).
Outcome summarize(const afp::core::PipelineResult& r, double latency_ms);

/// Runs a job the way users do: JobService::run_job for registry
/// optimizers, FloorplanPipeline::run with the agent otherwise.  `report`
/// (optional) receives run_job's report; the agent path leaves it alone.
Outcome run_untraced(const Job& job, const Agent* agent,
                     afp::core::JobReport* report = nullptr);

/// Trains the table1 agent with a fixed seed on one thread.
Agent train_agent(bool quick);

// -------------------------------------------------------------- job lists ---
// Every list is a pure function of the workload seed.

/// Job seeds per circuit x method class on table1.  The result metrics are
/// means over distinct jobs, so this sets their seed-to-seed spread.
constexpr int kTable1SeedsPerClass = 24;
/// Scenario specs in the afpd size continuum.
constexpr int kAfpdSpecs = 128;

/// The six Table I circuits x (agent + every registry optimizer at its
/// default budget), default positional constraints on.
std::vector<Job> table1_jobs(std::uint64_t seed, bool quick);
/// Constraint scenarios of all four families at 200 and 500 blocks, `sa`
/// with spacing_um=0.
std::vector<Job> scale_jobs(std::uint64_t seed, bool quick);
/// The afpd spec list: sizes stratified over 8..80 blocks, families
/// cycling, submission order shuffled.
std::vector<Job> afpd_jobs(std::uint64_t seed, bool quick);

/// Per-layer time and work of the traced replica, summed over jobs.
struct LayerTotals {
  /// Span time per layer name, in ms, summed over replica jobs.
  std::map<std::string, double> busy_ms;
  double job_ms = 0.0;  ///< replica wall time, summed over jobs
  long jobs = 0;
  long search_jobs = 0;  ///< jobs that ran a registry optimizer
  double evaluations = 0.0;
  double tt_hits = 0.0;
  double tt_lookups = 0.0;
  double rl_steps = 0.0;
  double blocks = 0.0;
  double edges = 0.0;
  double nets = 0.0;
  double failed_nets = 0.0;
  double wires = 0.0;
  long mismatches = 0;
};

/// Replays a job through the public per-module calls in the order
/// FloorplanPipeline::run makes them, with the rng stream it uses, timing
/// each call.  Returns the replica's outcome (latency = replica wall time);
/// a fingerprint differing from `expected` counts as a mismatch.
Outcome run_traced(const Job& job, const Agent* agent, std::uint64_t expected,
                   LayerTotals* totals);

// ------------------------------------------------------------- statistics ---

double median(std::vector<double> v);
/// Linear-interpolation quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q);
double geomean(const std::vector<double>& v);
double mean(const std::vector<double>& v);

// ---------------------------------------------------------------- metrics ---

/// Collects metrics in print order: a human table with sample counts, then
/// the JSON result line.
class MetricSink {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples, const std::string& note = "");
  void print_table() const;
  /// `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
  std::string json(bool correct, long attempted, long failed) const;
  bool all_finite() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
    std::string note;
  };
  std::vector<Row> rows_;
};

// ---------------------------------------------------------------- helpers ---

/// Every derived seed is a pure function of the workload seed and the
/// job's position: SplitMix64 over the pair.
inline std::uint64_t mix(std::uint64_t a, std::uint64_t b = 0) {
  return afp::metaheur::splitmix64(a + 0x9e3779b97f4a7c15ull * b);
}

/// The Table I circuit netlist for a registry name.
afp::netlist::Netlist registry_circuit(const std::string& name);

}  // namespace afpbench
