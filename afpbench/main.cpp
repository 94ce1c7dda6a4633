// afpbench — the afp benchmark driver.  One process runs one workload:
//
//   afpbench --workload table1|scale|afpd --seed N --seconds S --trace 0|1
//            --afpd path/to/afpd [--quick]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// spends half the window on the same untraced jobs (the reference outputs
// and the overhead baseline) and half on the traced replica, and reports
// the per-layer metrics.  Either way the output checks run, a table of
// metrics with units and sample counts is printed, and the last line is
// the JSON result.  The exit code is 0 only when every check passed.
//
// See README.md beside this file for the workloads and the metrics.
#include <signal.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <numeric>

#include "afpd_workload.hpp"
#include "bench.hpp"
#include "core/report.hpp"
#include "numeric/parallel.hpp"
#include "numeric/simd.hpp"
#include "probe.hpp"

extern char** environ;

namespace afpbench {
namespace {

using namespace afp;

/// Timed set-up units per run; setup_s reports their median.  Only
/// table1's set-up (agent training) takes long; afpd's takes about 15 ms,
/// so it repeats often enough for the median to get past the first, cold
/// pass.  Scale's scenario generation takes about 3 ms, within reach of
/// allocator and timer effects, so each of its units times
/// kScaleSetupsPerUnit set-ups in a row and reports their mean.
int setup_units(const std::string& workload) {
  return workload == "table1" ? 3 : workload == "scale" ? 9 : 15;
}
constexpr int kScaleSetupsPerUnit = 16;

int usage() {
  std::fprintf(stderr,
               "usage: afpbench --workload table1|scale|afpd --seed N "
               "--seconds S --trace 0|1 --afpd PATH [--quick]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      a->quick = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0' || v.empty() || v[0] == '-') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0.0) || a->seconds > 3600.0) {
        return false;
      }
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") return false;
      a->trace = v == "1";
    } else if (arg == "--afpd") {
      a->afpd = v;
    } else {
      return false;
    }
  }
  return a->workload == "table1" || a->workload == "scale" ||
         (a->workload == "afpd" && !a->afpd.empty());
}

/// Every AFP_* / AFPD_* knob changes what the library does; a run only
/// counts when none is set (run.py clears them).
std::vector<std::string> afp_env() {
  std::vector<std::string> set;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("AFP_", 0) == 0 || kv.rfind("AFPD_", 0) == 0) {
      set.push_back(kv.substr(0, kv.find('=')));
    }
  }
  return set;
}

std::uint64_t parameter_hash(const Agent& agent) {
  std::uint64_t h = 0;
  for (const nn::Module* m :
       {static_cast<const nn::Module*>(agent.policy.get()),
        static_cast<const nn::Module*>(agent.encoder.get())}) {
    for (const auto& p : m->parameters()) {
      for (std::int64_t i = 0; i < p.size(); ++i) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, p.data() + i, sizeof bits);
        h = mix(h, bits);
      }
    }
  }
  return h;
}

/// Everything one run measured, whatever the workload; the service rows
/// stay empty on the in-process workloads.
struct RunData : ServiceRun {
  std::vector<Job> jobs;
  Agent agent;
  std::vector<Outcome> outcomes;  ///< per job: first untraced result
  std::vector<double> untraced_ms;  ///< raw in-process job times (overhead base)
  long retries = 0;
  double peak_rss_mb = 0.0;

  const Agent* agent_ptr() const { return agent.policy ? &agent : nullptr; }
};

void set_up_in_process(const Args& a, const SpeedProbe& speed, RunData* d) {
  const int per_unit = a.workload == "scale" ? kScaleSetupsPerUnit : 1;
  std::uint64_t first_agent = 0;
  for (int k = 0; k < setup_units(a.workload); ++k) {
    // Every unit starts from the same heap: the previous unit's outputs are
    // freed before the clock starts, not while the next one allocates.
    d->jobs = {};
    d->agent = {};
    const auto t0 = Clock::now();
    for (int rep = 0; rep < per_unit; ++rep) {
      if (rep > 0) d->jobs = {};
      if (a.workload == "table1") {
        d->agent = train_agent(a.quick);
        d->jobs = table1_jobs(a.seed, a.quick);
      } else {
        d->jobs = scale_jobs(a.seed, a.quick);
      }
    }
    d->setup_s.push_back(ms_since(t0) / 1e3 / per_unit *
                         speed.scale(t0, Clock::now()));
    if (d->agent.policy) {
      const std::uint64_t h = parameter_hash(d->agent);
      if (k == 0) first_agent = h;
      if (h != first_agent) d->errors.push_back("agent training is not deterministic");
    }
  }
}

/// Whole rounds of the job list until `seconds` have passed (at least one).
/// Round 0 provides the reference outputs; later rounds must repeat them.
void measure_in_process(double seconds, const SpeedProbe& speed, RunData* d) {
  d->latencies.assign(d->jobs.size(), {});
  d->outcomes.assign(d->jobs.size(), {});
  const auto t0 = Clock::now();
  for (int round = 0;; ++round) {
    for (std::size_t i = 0; i < d->jobs.size(); ++i) {
      const auto j0 = Clock::now();
      const Outcome o = run_untraced(d->jobs[i], d->agent_ptr());
      const double scale = speed.scale(j0, Clock::now());
      ++d->attempted;
      d->retries += o.attempts - 1;
      if (!o.ok) {
        ++d->failed;
        d->errors.push_back(d->jobs[i].cls + ": " + o.error);
        continue;
      }
      ++d->finished;
      d->latencies[i].push_back(o.latency_ms * scale);
      d->untraced_ms.push_back(o.latency_ms);
      if (round == 0) {
        d->outcomes[i] = o;
      } else if (o.fingerprint != d->outcomes[i].fingerprint) {
        d->errors.push_back(d->jobs[i].cls + ": repeated job changed output");
      }
    }
    if (ms_since(t0) >= seconds * 1e3) break;
  }
  d->wall_s = ms_since(t0) / 1e3;
  d->wall_scale = speed.scale(t0, Clock::now());
  d->peak_rss_mb = peak_rss_mb();
}

/// The afpd workload: served phase, then every spec once in-process for
/// the result metrics and the byte-identity check of the served reports.
/// Peak RSS is the daemon's: it is the process that serves the jobs.
void measure_afpd(const Args& a, double seconds,
                  const std::vector<int>& daemon_cpus, const SpeedProbe& speed,
                  RunData* d) {
  d->jobs = afpd_jobs(a.seed, a.quick);
  static_cast<ServiceRun&>(*d) = run_service(
      a, d->jobs, seconds, setup_units(a.workload), daemon_cpus, speed);
  const ServiceRun& s = *d;
  d->peak_rss_mb = d->daemon_rss_mb;
  for (std::size_t i = 0; i < d->jobs.size(); ++i) {
    core::JobReport rep;
    const Outcome o = run_untraced(d->jobs[i], nullptr, &rep);
    d->outcomes.push_back(o);
    d->untraced_ms.push_back(o.latency_ms);
    d->retries += o.attempts - 1;
    if (!o.ok) {
      d->errors.push_back(d->jobs[i].cls + ": in-process run failed: " + o.error);
      continue;
    }
    const std::string local = core::report_json(
        rep.result, rep.name, rep.optimizer, rep.options, rep.search, rep.seed);
    if (normalize_report(local) != normalize_report(s.reports[i])) {
      d->errors.push_back(d->jobs[i].cls +
                          ": served report differs from core::report_json");
    }
  }
}

LayerTotals trace_pass(double seconds, RunData* d) {
  LayerTotals t;
  const auto t0 = Clock::now();
  do {
    for (std::size_t i = 0; i < d->jobs.size(); ++i) {
      const Outcome o = run_traced(d->jobs[i], d->agent_ptr(),
                                   d->outcomes[i].fingerprint, &t);
      ++d->attempted;
      if (!o.ok) {
        ++d->failed;
        d->errors.push_back(d->jobs[i].cls + ": traced replica failed");
      }
    }
  } while (ms_since(t0) < seconds * 1e3);
  return t;
}

/// Every time is at the reference speed.  `served` (afpd): throughput is
/// finished jobs over the time of the closed loop and latency quantiles are
/// over every client sample, since concurrent sessions overlap.  In-process
/// workloads repeat one job list, so each distinct job's latency is its
/// median over the repetitions, which filters a stall that hit one
/// repetition; throughput is the distinct jobs over the sum of those
/// medians (one round's time without the stall).
void end_to_end_metrics(const RunData& d, bool served, MetricSink* m) {
  std::map<std::string, std::vector<double>> by_class;
  std::vector<double> samples;
  std::vector<double> job_medians;
  for (std::size_t i = 0; i < d.jobs.size(); ++i) {
    const auto& v = d.latencies[i];
    auto& cls = by_class[d.jobs[i].cls];
    cls.insert(cls.end(), v.begin(), v.end());
    samples.insert(samples.end(), v.begin(), v.end());
    if (!v.empty()) job_medians.push_back(median(v));
  }
  std::vector<double> class_medians;
  for (const auto& [cls, v] : by_class) {
    if (!v.empty()) class_medians.push_back(median(v));
  }
  const std::vector<double>& all = served ? samples : job_medians;
  const double round_s =
      std::accumulate(job_medians.begin(), job_medians.end(), 0.0) / 1e3;
  const double raw_jobs_per_s = d.finished / d.wall_s;
  const double jobs_per_s =
      served ? raw_jobs_per_s / d.wall_scale
             : static_cast<double>(job_medians.size()) / round_s;
  std::vector<double> dead, hpwl, drc, lvs;
  double violated = 0.0;
  double items = 0.0;
  for (const auto& o : d.outcomes) {
    dead.push_back(100.0 * o.dead_space);
    // A small scenario can place every net inside one block; its zero
    // HPWL would zero the geomean, so it is left out and counted.
    if (o.hpwl > 0.0) hpwl.push_back(o.hpwl);
    drc.push_back(static_cast<double>(o.drc));
    lvs.push_back(static_cast<double>(o.lvs));
    violated += o.violations;
    items += o.items;
  }
  const std::size_t n = all.size();
  const std::size_t u = d.outcomes.size();
  const std::string over = served ? "client samples" : "job medians";
  const auto beyond = [n](double q) {
    return std::to_string(n - static_cast<std::size_t>(std::ceil(q * n))) +
           " beyond";
  };
  char note[128];
  std::snprintf(note, sizeof note,
                "raw: %ld finished in %.3f s = %.5g/s, speed scale %.3f%s",
                d.finished, d.wall_s, raw_jobs_per_s, d.wall_scale,
                served ? "" : "; reported: distinct / sum of job medians");
  m->add("jobs_per_s", jobs_per_s, "1/s", static_cast<std::size_t>(d.finished),
         note);
  m->add("latency_geomean_ms", geomean(class_medians), "ms", samples.size(),
         std::to_string(class_medians.size()) + " class medians");
  m->add("latency_p50_ms", median(all), "ms", n, over);
  m->add("latency_p95_ms", quantile(all, 0.95), "ms", n,
         over + ", " + beyond(0.95));
  m->add("setup_s", median(d.setup_s), "s", d.setup_s.size(),
         "median of timed set-up units");
  m->add("peak_rss_mb", d.peak_rss_mb, "MB", 1,
         served ? "afpd VmHWM" : "this process");
  m->add("success_pct",
         d.attempted ? 100.0 * d.finished / d.attempted : 0.0, "%",
         static_cast<std::size_t>(d.attempted));
  m->add("dead_space_pct", mean(dead), "%", u, "distinct jobs");
  m->add("hpwl_geomean_um", geomean(hpwl), "um", hpwl.size(),
         "distinct jobs; " + std::to_string(u - hpwl.size()) +
             " with zero HPWL left out");
  m->add("constraint_violated_pct", items > 0 ? 100.0 * violated / items : 0.0,
         "%", u, "violated / constraint items");
  m->add("drc_violations_per_job", mean(drc), "count/job", u);
  m->add("lvs_errors_per_job", mean(lvs), "count/job", u, "opens + shorts");
}

void per_layer_metrics(const RunData& d, const LayerTotals& t, double cpu_s,
                       double steal, MetricSink* m) {
  const auto jobs = static_cast<std::size_t>(t.jobs);
  const double per = t.jobs ? 1.0 / static_cast<double>(t.jobs) : 0.0;
  auto layer_ms = [&](const char* layer) {
    const auto it = t.busy_ms.find(layer);
    return it == t.busy_ms.end() ? 0.0 : it->second;
  };
  auto busy = [&](const char* metric, const char* layer) {
    const double total = layer_ms(layer);
    char note[64];
    std::snprintf(note, sizeof note, "%.1f%% of job time",
                  t.job_ms > 0.0 ? 100.0 * total / t.job_ms : 0.0);
    m->add(metric, total * per, "ms", jobs, note);
  };
  const double search_s = layer_ms("metaheur.search") / 1e3;
  busy("metaheur.search.busy_ms", "metaheur.search");
  m->add("metaheur.search.evaluations", t.evaluations * per, "count/job", jobs);
  m->add("metaheur.search.evals_per_s",
         search_s > 0.0 ? t.evaluations / search_s : 0.0, "1/s",
         static_cast<std::size_t>(t.search_jobs));
  m->add("metaheur.tt.hit_pct",
         t.tt_lookups > 0.0 ? 100.0 * t.tt_hits / t.tt_lookups : 0.0, "%",
         static_cast<std::size_t>(t.tt_lookups), "of cache lookups");
  busy("rgcn.encode.busy_ms", "rgcn.encode");
  busy("rl.infer.busy_ms", "rl.infer");
  m->add("rl.infer.steps", t.rl_steps * per, "count/job", jobs,
         "episodes x blocks");
  busy("metaheur.hpwl_ref.busy_ms", "metaheur.hpwl_ref");
  busy("route.busy_ms", "route");
  m->add("route.nets", t.nets * per, "count/job", jobs);
  m->add("route.failed_nets", t.failed_nets * per, "count/job", jobs);
  busy("layoutgen.generate.busy_ms", "layoutgen.generate");
  m->add("layoutgen.wires", t.wires * per, "count/job", jobs);
  busy("layoutgen.drc.busy_ms", "layoutgen.drc");
  busy("layoutgen.lvs.busy_ms", "layoutgen.lvs");

  const ServiceRun& s = d;
  const auto served = s.queue_wait_ms.size();
  const std::size_t daemons = s.reports.empty() ? 0 : 1;
  m->add("service.queue_wait_p50_ms", median(s.queue_wait_ms), "ms", served,
         "client latency - server runtime");
  m->add("service.queue_wait_p95_ms", quantile(s.queue_wait_ms, 0.95), "ms",
         served);
  m->add("service.admit_ms", mean(s.admit_ms), "ms", s.admit_ms.size(),
         "submit -> accepted");
  m->add("service.run_ms", mean(s.run_ms), "ms", s.run_ms.size(),
         "server runtime per job");
  m->add("service.rejected", static_cast<double>(s.rejected), "count",
         static_cast<std::size_t>(s.attempted));
  m->add("service.dropped_progress", s.dropped_progress, "count", daemons,
         "stats request");
  m->add("service.daemon_rss_mb", s.daemon_rss_mb, "MB", daemons,
         "afpd VmHWM");
  m->add("service.daemon_cpu_s", s.daemon_cpu_s, "s", daemons,
         "afpd user+sys");

  busy("structrec.busy_ms", "structrec");
  m->add("structrec.blocks", t.blocks * per, "count/job", jobs);
  busy("graphir.busy_ms", "graphir");
  m->add("graphir.edges", t.edges * per, "count/job", jobs);
  busy("floorplan.busy_ms", "floorplan");
  busy("core.job.busy_ms", "core.job");
  m->add("core.retries", static_cast<double>(d.retries), "count",
         d.untraced_ms.size());

  double covered = 0.0;
  for (const auto& [layer, ms] : t.busy_ms) covered += ms;
  const double untraced = mean(d.untraced_ms);
  m->add("trace.coverage_pct", t.job_ms > 0.0 ? 100.0 * covered / t.job_ms : 0.0,
         "%", jobs, "span time / replica job time");
  m->add("trace.overhead_pct",
         untraced > 0.0 ? 100.0 * (t.job_ms * per / untraced - 1.0) : 0.0, "%",
         jobs, "replica vs untraced mean job time");
  m->add("trace.replica_mismatches", static_cast<double>(t.mismatches), "count",
         jobs);
  m->add("process.cpu_s", cpu_s, "s", 1, "user+sys");
  m->add("host.steal_pct", steal, "%", 1, "/proc/stat, of busy time");
}

int run(const Args& a) {
  num::set_num_threads(1);
  const double load1 = load_average_1m();
  const HostTicks ticks0 = read_host_ticks();
  std::printf("afpbench: workload %s | seed %llu | %.3g s | trace %d%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.quick ? " | quick" : "");
  std::printf("afpbench: pool %d thread(s)%s | kernel tier %s | "
              "AFP_*/AFPD_* unset\n",
              num::num_threads(), a.workload == "afpd" ? " (afpd: 2)" : "",
              num::kernel_tier_name(num::kernel_tier()));

  // The work and the speed probe share pinned CPUs: the in-process
  // workloads run on the last allowed CPU, afpd's daemon on the last two
  // and its client on the others.
  const std::vector<int> cpus = allowed_cpus();
  const bool served = a.workload == "afpd";
  const auto k = static_cast<std::ptrdiff_t>(
      served ? std::min<std::size_t>(2, cpus.size()) : 1);
  const std::vector<int> work(cpus.end() - k, cpus.end());
  std::vector<int> client(cpus.begin(), cpus.end() - k);
  if (client.empty()) client = cpus;
  pin_thread(served ? client : work);
  std::string work_list;
  for (const int c : work) work_list += (work_list.empty() ? "" : ",") + std::to_string(c);
  std::printf("afpbench: %s and speed probe on cpu %s\n",
              served ? "afpd" : "jobs", work_list.c_str());
  std::fflush(stdout);
  const SpeedProbe speed(work);

  const double phase_s = a.trace ? a.seconds / 2.0 : a.seconds;
  RunData d;
  if (served) {
    measure_afpd(a, phase_s, work, speed, &d);
  } else {
    set_up_in_process(a, speed, &d);
    measure_in_process(phase_s, speed, &d);
  }
  LayerTotals totals;
  if (a.trace) totals = trace_pass(phase_s, &d);
  if (const std::string e = speed.error(); !e.empty()) d.errors.push_back(e);

  MetricSink m;
  const double cpu_s = cpu_seconds();
  const double steal = steal_pct(ticks0, read_host_ticks());
  if (a.trace) {
    per_layer_metrics(d, totals, cpu_s, steal, &m);
  } else {
    end_to_end_metrics(d, served, &m);
  }
  std::printf("afpbench: %zu distinct jobs | %ld attempted | %ld failed\n",
              d.jobs.size(), d.attempted, d.failed);
  std::printf("afpbench: noise: load1 at start %.2f | steal %.2f%% of busy "
              "| process cpu %.2f s | speed kernel %.4f ms median of %zu "
              "(reference %.2f ms)\n",
              load1, steal, cpu_s, speed.median_kernel_ms(), speed.samples(),
              SpeedProbe::kReferenceKernelMs);
  m.print_table();
  if (!m.all_finite()) d.errors.push_back("a metric is not finite");
  const std::size_t shown = std::min<std::size_t>(d.errors.size(), 10);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("afpbench: CHECK FAILED: %s\n", d.errors[i].c_str());
  }
  if (d.errors.size() > shown) {
    std::printf("afpbench: ... %zu more failed checks\n",
                d.errors.size() - shown);
  }
  const bool correct = d.errors.empty() && d.failed == 0;
  std::printf("%s\n", m.json(correct, d.attempted, d.failed).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace afpbench

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  afpbench::Args a;
  if (!afpbench::parse_args(argc, argv, &a)) return afpbench::usage();
  const auto set = afpbench::afp_env();
  if (!set.empty()) {
    std::fprintf(stderr, "afpbench: %s is set; run through run.py, which "
                 "clears every AFP_* and AFPD_* variable\n", set[0].c_str());
    return 2;
  }
  try {
    return afpbench::run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afpbench: fatal: %s\n", e.what());
    return 1;
  }
}
