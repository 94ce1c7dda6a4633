// JobService tests: batch determinism across thread counts and repeats,
// future/cancellation/progress semantics, per-job seed derivation, the
// wall-clock-budgeted quantum mode's replay property, and the fault
// tolerance policy (error taxonomy, watchdog deadline, retry/backoff,
// checkpoint-resume).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/fault.hpp"
#include "core/job_service.hpp"
#include "core/report.hpp"
#include "metaheur/baselines.hpp"
#include "metaheur/parallel_search.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp::core {
namespace {

/// Resets the process-global fault injector even when a test fails early.
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    FaultInjector::global().configure(spec);
  }
  ~FaultGuard() { FaultInjector::global().configure(""); }
};

PipelineConfig quick_config(int iterations = 250) {
  PipelineConfig cfg;
  cfg.optimizer = "sa";
  cfg.options = {{"iterations", std::to_string(iterations)}};
  return cfg;
}

std::vector<JobSpec> three_jobs() {
  std::vector<JobSpec> jobs;
  for (const auto* name : {"ota_small", "ota1", "bias_small"}) {
    JobSpec spec;
    spec.name = name;
    for (const auto& e : netlist::circuit_registry()) {
      if (e.name == name) spec.netlist = e.make();
    }
    spec.config = quick_config();
    jobs.push_back(std::move(spec));
  }
  return jobs;
}

void expect_identical(const JobReport& a, const JobReport& b,
                      const std::string& what) {
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.seed, b.seed) << what;
  EXPECT_EQ(a.result.evaluations, b.result.evaluations) << what;
  EXPECT_EQ(a.result.eval.reward, b.result.eval.reward) << what;
  ASSERT_EQ(a.result.rects.size(), b.result.rects.size()) << what;
  for (std::size_t i = 0; i < a.result.rects.size(); ++i) {
    EXPECT_EQ(a.result.rects[i], b.result.rects[i]) << what << " rect " << i;
  }
}

TEST(JobSeed, StreamsAreStableDistinctAndSeparated) {
  EXPECT_EQ(JobService::job_seed(1, 0), JobService::job_seed(1, 0));
  EXPECT_NE(JobService::job_seed(1, 0), JobService::job_seed(1, 1));
  EXPECT_NE(JobService::job_seed(1, 0), JobService::job_seed(2, 0));
  // Domain separation from the restart streams used inside a job.
  auto restart = metaheur::restart_rng(1, 0);
  EXPECT_NE(JobService::job_seed(1, 0), restart());
}

TEST(JobService, BatchIsThreadCountInvariantAndRepeatable) {
  const auto jobs = three_jobs();
  JobServiceOptions opts;
  opts.base_seed = 77;
  num::set_num_threads(1);
  const auto serial = JobService::run_batch(jobs, opts);
  num::set_num_threads(4);
  const auto pooled = JobService::run_batch(jobs, opts);
  const auto repeat = JobService::run_batch(jobs, opts);
  num::set_num_threads(0);
  ASSERT_EQ(serial.size(), 3u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].status, JobStatus::kDone) << serial[i].error.message;
    expect_identical(serial[i], pooled[i], "1-vs-4 threads job " + serial[i].name);
    expect_identical(pooled[i], repeat[i], "repeat job " + serial[i].name);
  }
}

TEST(JobService, SubmitFuturesMatchRunBatch) {
  const auto jobs = three_jobs();
  JobServiceOptions opts;
  opts.base_seed = 77;
  const auto direct = JobService::run_batch(jobs, opts);

  std::atomic<int> done{0};
  JobServiceOptions sopts;
  sopts.base_seed = 77;
  sopts.on_progress = [&](const JobProgress& p) {
    if (p.status == JobStatus::kDone) done.fetch_add(1);
  };
  JobService service(sopts);
  std::vector<JobService::Handle> handles;
  for (const auto& job : jobs) handles.push_back(service.submit(job));
  service.wait_all();
  EXPECT_EQ(done.load(), 3);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const JobReport report = handles[i].report.get();
    EXPECT_EQ(report.id, i);
    expect_identical(report, direct[i], "submit-vs-batch job " + report.name);
  }
}

TEST(JobService, TerminalProgressCarriesTheReport) {
  // The terminal event hands out the finished report (afpd writes its
  // result frame from it); every kRunning event carries null.  A job
  // submitted under an explicit id runs as that job.
  JobSpec spec;
  spec.name = "terminal";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config();
  std::mutex mu;
  int running = 0, running_with_report = 0, terminal = 0;
  std::string terminal_json;
  JobServiceOptions opts;
  opts.base_seed = 77;
  opts.on_progress = [&](const JobProgress& p) {
    std::lock_guard<std::mutex> lock(mu);
    if (p.status == JobStatus::kRunning) {
      ++running;
      if (p.report != nullptr) ++running_with_report;
      return;
    }
    ++terminal;
    if (p.report != nullptr) terminal_json = job_report_json(*p.report);
  };
  JobReport served;
  {
    JobService service(opts);
    served = service.submit(spec, 7).report.get();
  }
  ASSERT_EQ(served.status, JobStatus::kDone) << served.error.message;
  EXPECT_EQ(running, 1);
  EXPECT_EQ(running_with_report, 0);
  EXPECT_EQ(terminal, 1);
  EXPECT_EQ(terminal_json, job_report_json(served));
  EXPECT_EQ(served.id, 7u);
  EXPECT_EQ(served.seed, JobService::job_seed(77, 7));
  expect_identical(
      JobService::run_job(spec, 7, JobService::job_seed(77, 7), nullptr, {}),
      served, "id 7");
}

TEST(JobService, PreCancelledJobReportsCancelled) {
  JobSpec spec;
  spec.name = "cancelled";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config();
  CancelToken cancel;
  cancel.cancel();
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), &cancel, {});
  EXPECT_EQ(report.status, JobStatus::kCancelled);
  EXPECT_TRUE(report.result.rects.empty());
}

TEST(JobService, FailedJobCarriesTheError) {
  JobSpec spec;
  spec.name = "broken";
  spec.netlist = netlist::make_ota_small();
  spec.config.optimizer = "no-such-optimizer";
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), nullptr, {});
  EXPECT_EQ(report.status, JobStatus::kFailed);
  EXPECT_EQ(report.error.kind, JobErrorKind::kInvalidConfig);
  EXPECT_NE(report.error.message.find("no-such-optimizer"),
            std::string::npos);
  EXPECT_EQ(report.attempts, 1);  // invalid_config is not retryable
}

TEST(JobService, TimeBudgetedJobIsReplayableFromQuantumCount) {
  // The wall-clock mode's determinism contract: given the observed number
  // of quanta Q, the result equals the best of quanta 0..Q-1 rerun offline.
  JobSpec spec;
  spec.name = "timed";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(120);
  spec.config.search.base_seed = 21;
  spec.config.search.budget.wall_clock_s = 0.2;
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(5, 0), nullptr, {});
  ASSERT_EQ(report.status, JobStatus::kDone) << report.error.message;
  ASSERT_GE(report.result.quanta, 1);

  auto g = graphir::build_graph(spec.netlist,
                                structrec::recognize(spec.netlist));
  auto inst = floorplan::make_instance(g);
  inst.hpwl_ref = report.result.instance.hpwl_ref;
  auto opt = metaheur::make_optimizer("sa", {{"iterations", "120"}});
  double best = 0.0;
  bool first = true;
  for (long q = 0; q < report.result.quanta; ++q) {
    auto rng = metaheur::restart_rng(21, static_cast<int>(q));
    const auto r = opt->run(inst, {}, rng);
    const double cost = metaheur::sp_cost(inst, r.rects);
    if (first || cost < best) {
      best = cost;
      first = false;
    }
  }
  EXPECT_DOUBLE_EQ(metaheur::sp_cost(report.result.instance,
                                     report.result.rects),
                   best);
}

TEST(RetrySchedule, SeedsAndBackoffAreDeterministic) {
  EXPECT_EQ(JobService::retry_seed(7, 0), 7u);  // attempt 0 = historic seed
  EXPECT_NE(JobService::retry_seed(7, 1), 7u);
  EXPECT_NE(JobService::retry_seed(7, 1), JobService::retry_seed(7, 2));
  EXPECT_EQ(JobService::retry_seed(7, 3), JobService::retry_seed(7, 3));
  RetryPolicy policy;
  policy.backoff_s = 0.01;
  policy.backoff_cap_s = 0.05;
  EXPECT_EQ(JobService::retry_backoff_s(7, 0, policy), 0.0);
  for (int k = 1; k <= 8; ++k) {
    const double b = JobService::retry_backoff_s(7, k, policy);
    EXPECT_EQ(b, JobService::retry_backoff_s(7, k, policy)) << k;
    EXPECT_GT(b, 0.0) << k;
    EXPECT_LE(b, policy.backoff_cap_s) << k;  // capped-exponential
  }
}

TEST(Cancellation, LatencyIsBoundedByOneIteration) {
  // A cancel that lands mid-search must be honored at the next iteration,
  // not the next restart: a pre-cancelled token stops SA after exactly the
  // initial evaluation despite a 4000-move budget.
  const auto nl = netlist::make_ota_small();
  auto g = graphir::build_graph(nl, structrec::recognize(nl));
  const auto inst = floorplan::make_instance(g);
  metaheur::CancelToken token;
  token.cancel();
  metaheur::SAParams p;
  p.iterations = 4000;
  p.stop = &token;
  std::mt19937_64 rng(1);
  const auto r = metaheur::run_sa(inst, p, rng);
  EXPECT_EQ(r.evaluations, 1);
}

TEST(StopPoll, DeadlineArmedAfterConstructionFiresWithinOneStride) {
  // Regression: StopPoll used to cache token->has_deadline() at
  // construction, so a deadline armed after an optimizer's poller was
  // built — a daemon client attaching a timeout to an already-running
  // job — was never checked and the loop ran to its full budget.
  metaheur::CancelToken token;
  metaheur::StopPoll poll(&token);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(poll()) << "un-armed token must never stop the loop";
  }
  token.set_deadline_after(1e-9);  // effectively already expired
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  bool stopped = false;
  // One full clock stride (32) plus one call must be enough to observe it.
  for (int i = 0; i < 33 && !stopped; ++i) stopped = poll();
  EXPECT_TRUE(stopped)
      << "a deadline armed mid-run was not honored within one stride";
}

TEST(StopPoll, ChildTokenObservesParentStopsButArmsPrivately) {
  metaheur::CancelToken parent;
  metaheur::CancelToken job = parent.child();
  metaheur::CancelToken attempt = job.child();
  EXPECT_FALSE(attempt.stop_requested());
  // A private deadline on the attempt token must not leak to the parent.
  attempt.set_deadline_after(1e-9);
  EXPECT_TRUE(attempt.has_deadline());
  EXPECT_FALSE(parent.has_deadline());
  EXPECT_FALSE(job.has_deadline());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(attempt.expired());
  EXPECT_FALSE(parent.expired());
  // Cancel and deadlines propagate down the whole chain.
  parent.set_deadline_after(1e-9);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_TRUE(job.expired());
  parent.cancel();
  EXPECT_TRUE(job.cancelled());
  EXPECT_TRUE(attempt.cancelled());
  EXPECT_FALSE(metaheur::CancelToken{}.cancelled());
}

TEST(Watchdog, DeadlineArmedOnRunningJobTerminatesIt) {
  // The daemon path: a client attaches a timeout to a job that is already
  // running.  The handle token is armed mid-run; the optimizer's StopPoll
  // (built before the deadline existed) must still observe it, and the job
  // must end as deadline_exceeded rather than running out its budget.
  JobSpec spec;
  spec.name = "late-deadline";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(50000000);  // minutes of budget if unstopped
  std::atomic<bool> running{false};
  JobServiceOptions opts;
  opts.on_progress = [&](const JobProgress& p) {
    if (p.status == JobStatus::kRunning) running.store(true);
  };
  JobService service(opts);
  auto handle = service.submit(spec);
  // Arm only once the job reported kRunning and had time to enter the
  // optimizer inner loop, so the StopPoll instance predates the deadline.
  while (!running.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  handle.cancel.set_deadline_after(1e-6);
  const JobReport report = handle.report.get();
  EXPECT_EQ(report.status, JobStatus::kDeadlineExceeded)
      << "mid-run deadline was ignored: " << report.error.message;
  EXPECT_EQ(report.error.kind, JobErrorKind::kDeadlineExceeded);
}

TEST(RunBatch, WatchdogFiresForBatchEntries) {
  // Regression: run_batch used to pass a null CancelToken to run_job, so
  // batch entries ran without any stop signalling surface.  A batch of
  // jobs whose config arms the watchdog must time out like single jobs do.
  std::vector<JobSpec> jobs(2);
  for (auto& spec : jobs) {
    spec.name = "batch-overrun";
    spec.netlist = netlist::make_ota_small();
    spec.config = quick_config(50000000);
    spec.config.search.budget.deadline_s = 0.05;
  }
  const auto reports = JobService::run_batch(jobs, {});
  ASSERT_EQ(reports.size(), 2u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.status, JobStatus::kDeadlineExceeded) << r.error.message;
    EXPECT_TRUE(r.result.rects.empty());
  }
}

TEST(RunBatch, BatchWideCancelStopsEveryEntry) {
  // Each batch entry now holds a real token child of opts.cancel, so one
  // cancel() stops the whole batch; before the fix there was no
  // cancellation path into run_batch at all.
  std::vector<JobSpec> jobs(3);
  for (auto& spec : jobs) {
    spec.name = "batch-cancelled";
    spec.netlist = netlist::make_ota_small();
    spec.config = quick_config(50000000);
  }
  CancelToken cancel;
  cancel.cancel();
  JobServiceOptions opts;
  opts.cancel = &cancel;
  const auto reports = JobService::run_batch(jobs, opts);
  ASSERT_EQ(reports.size(), 3u);
  for (const auto& r : reports) {
    EXPECT_EQ(r.status, JobStatus::kCancelled);
    EXPECT_TRUE(r.result.rects.empty());
  }
}

TEST(JobSpecSeed, ExplicitSeedOverridesDerivation) {
  // The daemon threads the client's seed through JobSpec::seed so a served
  // job is bitwise identical to `afp_cli floorplan --seed N`.
  JobSpec spec;
  spec.name = "seeded";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(120);
  const auto direct = JobService::run_job(spec, 0, 1234, nullptr, {});
  spec.seed = 1234;
  const auto batch = JobService::run_batch({spec}, {});
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].seed, 1234u);
  expect_identical(direct, batch[0], "explicit-seed batch vs direct run");
  JobService service{JobServiceOptions{}};
  const auto submitted = service.submit(spec).report.get();
  EXPECT_EQ(submitted.seed, 1234u);
  expect_identical(direct, submitted, "explicit-seed submit vs direct run");
}

TEST(Watchdog, DeadlineOverrunIsTerminalAndDiscardsPartials) {
  JobSpec spec;
  spec.name = "overrun";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(50000000);  // far beyond a 50 ms deadline
  spec.config.search.budget.deadline_s = 0.05;
  spec.config.search.retry.max_retries = 3;  // must NOT be consumed
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), nullptr, {});
  EXPECT_EQ(report.status, JobStatus::kDeadlineExceeded);
  EXPECT_EQ(report.error.kind, JobErrorKind::kDeadlineExceeded);
  EXPECT_EQ(report.attempts, 1);  // deadline_exceeded is not retryable
  EXPECT_TRUE(report.result.rects.empty());  // partial result discarded
}

TEST(Retry, RecoversFromInjectedFaultDeterministically) {
  FaultGuard guard("throw@0:0");  // job 0, quantum 0, first attempt only
  JobSpec spec;
  spec.name = "flaky";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(150);
  spec.config.search.retry.max_retries = 2;
  spec.config.search.retry.backoff_s = 0.0;  // keep the test fast
  const auto seed = JobService::job_seed(1, 0);
  const auto first = JobService::run_job(spec, 0, seed, nullptr, {});
  EXPECT_EQ(first.status, JobStatus::kDone) << first.error.message;
  EXPECT_EQ(first.attempts, 2);  // attempt 0 faulted, attempt 1 recovered
  const auto again = JobService::run_job(spec, 0, seed, nullptr, {});
  EXPECT_EQ(again.attempts, first.attempts);
  expect_identical(first, again, "retried job repeat");
}

TEST(Retry, ExhaustedRetriesClassifyAsOptimizerFailure) {
  FaultGuard guard("throw@0:0");
  JobSpec spec;
  spec.name = "faulted";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(150);  // max_retries = 0: the fault is final
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), nullptr, {});
  EXPECT_EQ(report.status, JobStatus::kFailed);
  EXPECT_EQ(report.error.kind, JobErrorKind::kOptimizerFailure);
  EXPECT_EQ(report.error.quantum, 0);
  EXPECT_NE(report.error.message.find("injected fault"), std::string::npos);
  EXPECT_EQ(report.attempts, 1);
}

TEST(Retry, OutOfRangeOptionIsInvalidConfigAndNotRetried) {
  // An annealing schedule the optimizer cannot run is a configuration
  // error, caught when the optimizer is configured: never retried.
  JobSpec spec;
  spec.name = "bad-ladder";
  spec.netlist = netlist::make_ota_small();
  spec.config.optimizer = "pt";
  spec.config.options = {{"t_end", "-1"}};
  spec.config.search.retry.max_retries = 2;
  spec.config.search.retry.backoff_s = 0.0;
  const auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), nullptr, {});
  EXPECT_EQ(report.status, JobStatus::kFailed);
  EXPECT_EQ(report.error.kind, JobErrorKind::kInvalidConfig);
  EXPECT_EQ(report.attempts, 1);
}

TEST(Checkpoint, ResumeIsBitwiseIdenticalAcrossThreadCounts) {
  auto make_spec = [](int quanta, const std::string& ckpt, bool resume) {
    JobSpec spec;
    spec.name = "ckpt";
    spec.netlist = netlist::make_ota_small();
    spec.config = quick_config(80);
    spec.config.search.base_seed = 21;
    spec.config.search.budget.quanta = quanta;
    spec.config.search.checkpoint_path = ckpt;
    spec.config.search.resume = resume;
    return spec;
  };
  const auto seed = JobService::job_seed(9, 0);
  std::vector<JobReport> resumed_by_threads;
  for (const int threads : {1, 4}) {
    num::set_num_threads(threads);
    const std::string path =
        "ckpt_resume_t" + std::to_string(threads) + ".bin";
    std::remove(path.c_str());
    // Oracle: 6 quanta in one uninterrupted run, no checkpointing.
    const auto full =
        JobService::run_job(make_spec(6, "", false), 0, seed, nullptr, {});
    ASSERT_EQ(full.status, JobStatus::kDone) << full.error.message;
    EXPECT_EQ(full.result.quanta, 6);
    // Interrupted run: stop after 3 quanta, leaving a checkpoint behind.
    const auto half =
        JobService::run_job(make_spec(3, path, false), 0, seed, nullptr, {});
    ASSERT_EQ(half.status, JobStatus::kDone) << half.error.message;
    // Resume to the full budget; must replay quanta 3..5 exactly.
    const auto resumed =
        JobService::run_job(make_spec(6, path, true), 0, seed, nullptr, {});
    ASSERT_EQ(resumed.status, JobStatus::kDone) << resumed.error.message;
    EXPECT_EQ(resumed.result.quanta, 6);
    expect_identical(full, resumed,
                     "resume vs uninterrupted, " + std::to_string(threads) +
                         " threads");
    resumed_by_threads.push_back(resumed);
    std::remove(path.c_str());
  }
  num::set_num_threads(0);
  expect_identical(resumed_by_threads[0], resumed_by_threads[1],
                   "resumed run 1-vs-4 threads");
}

TEST(Checkpoint, MismatchedConfigurationRefusesToResume) {
  const std::string path = "ckpt_mismatch.bin";
  std::remove(path.c_str());
  JobSpec spec;
  spec.name = "ckpt";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(80);
  spec.config.search.base_seed = 21;
  spec.config.search.budget.quanta = 2;
  spec.config.search.checkpoint_path = path;
  const auto seed = JobService::job_seed(9, 0);
  ASSERT_EQ(JobService::run_job(spec, 0, seed, nullptr, {}).status,
            JobStatus::kDone);
  // Same checkpoint, different iteration budget: the identity hash differs,
  // so resuming must fail as invalid_config instead of mixing streams.
  spec.config = quick_config(81);
  spec.config.search.base_seed = 21;
  spec.config.search.budget.quanta = 4;
  spec.config.search.checkpoint_path = path;
  spec.config.search.resume = true;
  const auto report = JobService::run_job(spec, 0, seed, nullptr, {});
  EXPECT_EQ(report.status, JobStatus::kFailed);
  EXPECT_EQ(report.error.kind, JobErrorKind::kInvalidConfig);
  EXPECT_NE(report.error.message.find("different search configuration"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(ReportJson, NonFiniteMetricsBecomeNullAndInternalError) {
  JobSpec spec;
  spec.name = "ota_small";
  spec.netlist = netlist::make_ota_small();
  spec.config = quick_config(60);
  auto report =
      JobService::run_job(spec, 0, JobService::job_seed(1, 0), nullptr, {});
  ASSERT_EQ(report.status, JobStatus::kDone) << report.error.message;
  // A degenerate instance that produced non-finite metrics must be flagged
  // by validate_result and serialized as JSON null, never a bare token.
  report.result.eval.hpwl = std::nan("");
  report.result.eval.area = std::numeric_limits<double>::infinity();
  const JobError err = JobService::validate_result(report.result);
  EXPECT_EQ(err.kind, JobErrorKind::kInternal);
  const std::string js =
      report_json(report.result, report.name, report.optimizer,
                  report.options, report.search, report.seed);
  EXPECT_NE(js.find("\"hpwl\": null"), std::string::npos);
  EXPECT_NE(js.find("\"area\": null"), std::string::npos);
  EXPECT_EQ(js.find("nan"), std::string::npos);
  EXPECT_EQ(js.find("inf"), std::string::npos);
}

TEST(ReportJson, EscapesAndShapes) {
  EXPECT_EQ(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  const auto jobs = three_jobs();
  JobServiceOptions opts;
  opts.base_seed = 3;
  auto reports = JobService::run_batch({jobs[0]}, opts);
  ASSERT_EQ(reports.size(), 1u);
  const std::string single =
      report_json(reports[0].result, reports[0].name, reports[0].optimizer,
                  reports[0].options, reports[0].search, reports[0].seed);
  EXPECT_NE(single.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(single.find("\"search\": {\"restarts\": 1"), std::string::npos);
  EXPECT_NE(single.find("\"optimizer\": \"sa\""), std::string::npos);
  EXPECT_NE(single.find("\"rects\": ["), std::string::npos);
  const std::string batch = batch_report_json(reports, 3, 0.0, 1);
  EXPECT_NE(batch.find("\"batch\": {\"jobs\": 1"), std::string::npos);
  EXPECT_NE(batch.find("\"status\": \"done\""), std::string::npos);
}

TEST(RunBatch, ExplicitIdsPickReportIdsAndSeeds) {
  // afp --batch passes manifest positions as ids: a batch over ids {1, 3}
  // must run exactly what run_job runs as those jobs at their seeds.
  auto jobs = three_jobs();
  jobs.pop_back();
  JobServiceOptions opts;
  opts.base_seed = 77;
  const std::vector<std::size_t> ids = {1, 3};
  const auto reports = JobService::run_batch(jobs, opts, ids);
  ASSERT_EQ(reports.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint64_t seed = JobService::job_seed(77, ids[i]);
    EXPECT_EQ(reports[i].id, ids[i]);
    EXPECT_EQ(reports[i].seed, seed);
    const auto direct = JobService::run_job(jobs[i], ids[i], seed, nullptr, {});
    expect_identical(direct, reports[i], "id " + std::to_string(ids[i]));
  }
  EXPECT_THROW(JobService::run_batch(jobs, opts, {1}), std::invalid_argument);
}

TEST(JobService, ShortJobOvertakesARunningLongJob) {
  // Head-of-line regression: with two workers, a job submitted while a
  // long one runs starts on the free worker instead of queueing behind it.
  num::set_num_threads(2);
  std::atomic<bool> long_running{false};
  JobServiceOptions opts;
  opts.on_progress = [&](const JobProgress& p) {
    if (p.id == 0 && p.status == JobStatus::kRunning) long_running.store(true);
  };
  {
    JobService service(opts);
    JobSpec long_job;
    long_job.name = "long";
    long_job.netlist = netlist::make_ota_small();
    long_job.config = quick_config(1000000000);  // minutes if not cancelled
    auto slow = service.submit(long_job);
    while (!long_running.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JobSpec short_job;
    short_job.name = "short";
    short_job.netlist = netlist::make_ota_small();
    short_job.config = quick_config();
    auto quick = service.submit(short_job);
    const bool overtook = quick.report.wait_for(std::chrono::seconds(60)) ==
                          std::future_status::ready;
    const bool long_still_running =
        slow.report.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready;
    slow.cancel.cancel();
    EXPECT_TRUE(overtook) << "the short job waited for the running long one";
    EXPECT_TRUE(long_still_running);
    EXPECT_EQ(quick.report.get().status, JobStatus::kDone);
    slow.report.wait();
  }
  num::set_num_threads(0);
}

TEST(JobService, NestedParallelJobsSideBySideMatchRunJob) {
  // PT replicas, a GA population and SA restarts fan out on the shared
  // pool from three concurrently running jobs; each result must still
  // equal the same job run alone.
  num::set_num_threads(4);
  std::vector<JobSpec> jobs(3);
  jobs[0].netlist = netlist::make_ota_small();
  jobs[0].config.optimizer = "pt";
  jobs[0].config.options = {{"iterations", "200"}};
  jobs[1].netlist = netlist::make_ota_small();
  jobs[1].config.optimizer = "ga";
  jobs[1].config.options = {{"population", "12"}, {"generations", "8"}};
  jobs[2].netlist = netlist::make_ota_small();
  jobs[2].config = quick_config();
  jobs[2].config.search.restarts = 3;
  JobServiceOptions opts;
  opts.base_seed = 31;
  std::vector<JobService::Handle> handles;
  {
    JobService service(opts);
    for (const auto& job : jobs) handles.push_back(service.submit(job));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobReport served = handles[i].report.get();
    ASSERT_EQ(served.status, JobStatus::kDone) << served.error.message;
    const auto direct = JobService::run_job(
        jobs[i], i, JobService::job_seed(31, i), nullptr, {});
    expect_identical(direct, served, jobs[i].config.optimizer);
  }
  num::set_num_threads(0);
}

TEST(JobService, RestartsEqualTheSameNumberOfQuanta) {
  // search.restarts = N runs quanta 0..N-1 of the quantum loop as one
  // wave, so it must produce exactly the bits of budget.quanta = N; only
  // the reported quantum count differs.
  for (const char* optimizer : {"sa", "pt"}) {
    for (const int threads : {1, 4}) {
      num::set_num_threads(threads);
      JobSpec restarts;
      restarts.name = "restarts";
      restarts.netlist = netlist::make_ota2();
      restarts.config.optimizer = optimizer;
      restarts.config.options = {{"iterations", "150"}};
      restarts.config.search.restarts = 3;
      JobSpec quanta = restarts;
      quanta.config.search.restarts = 1;
      quanta.config.search.budget.quanta = 3;
      const auto seed = JobService::job_seed(5, 0);
      const auto a = JobService::run_job(restarts, 0, seed, nullptr, {});
      const auto b = JobService::run_job(quanta, 0, seed, nullptr, {});
      ASSERT_EQ(a.status, JobStatus::kDone) << a.error.message;
      ASSERT_EQ(b.status, JobStatus::kDone) << b.error.message;
      const std::string what =
          std::string(optimizer) + " @" + std::to_string(threads);
      expect_identical(a, b, what);
      EXPECT_EQ(a.result.quanta, 1) << what;
      EXPECT_EQ(b.result.quanta, 3) << what;
    }
  }
  num::set_num_threads(0);
}

}  // namespace
}  // namespace afp::core
