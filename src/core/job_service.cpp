#include "core/job_service.hpp"

#include <cmath>
#include <thread>

#include "core/fault.hpp"
#include "metaheur/parallel_search.hpp"
#include "numeric/parallel.hpp"

namespace afp::core {

namespace {

using Clock = std::chrono::steady_clock;

/// Sleeps `seconds` in short slices, returning early (false) when the
/// token is cancelled — backoff must not delay a cancellation.
bool sleep_unless_cancelled(double seconds, const CancelToken* cancel) {
  const auto until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (Clock::now() < until) {
    if (cancel && cancel->stop_requested()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

}  // namespace

const char* to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";
    case JobStatus::kRunning: return "running";
    case JobStatus::kDone: return "done";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kFailed: return "failed";
    case JobStatus::kDeadlineExceeded: return "deadline_exceeded";
  }
  return "?";
}

const char* to_string(JobErrorKind k) {
  switch (k) {
    case JobErrorKind::kNone: return "none";
    case JobErrorKind::kInvalidConfig: return "invalid_config";
    case JobErrorKind::kOptimizerFailure: return "optimizer_failure";
    case JobErrorKind::kDeadlineExceeded: return "deadline_exceeded";
    case JobErrorKind::kCancelled: return "cancelled";
    case JobErrorKind::kResourceExhausted: return "resource_exhausted";
    case JobErrorKind::kInternal: return "internal";
  }
  return "?";
}

bool is_retryable(JobErrorKind k) {
  return k == JobErrorKind::kOptimizerFailure ||
         k == JobErrorKind::kResourceExhausted;
}

std::uint64_t JobService::job_seed(std::uint64_t base_seed,
                                   std::size_t job_id) {
  // Distinct mixing domain from restart_rng (0x7f4a7c15) and replica_rng so
  // a job's internal restart/replica streams never alias its own seed.
  return metaheur::splitmix64(metaheur::splitmix64(base_seed ^
                                                   0x6a09e667f3bcc909ull) +
                              static_cast<std::uint64_t>(job_id));
}

std::uint64_t JobService::spec_identity(const JobSpec& spec) {
  // The block count of the eventual floorplan instance equals the number of
  // recognized structures, which we cannot know without running the front
  // end; the device count is the stable, cheap proxy that still pins the
  // instance.
  return checkpoint_identity(spec.config.optimizer, spec.config.options,
                             spec.netlist.num_devices(),
                             spec.config.search.budget.iterations);
}

std::uint64_t JobService::retry_seed(std::uint64_t seed, int attempt) {
  if (attempt <= 0) return seed;
  // Own mixing domain, distinct from job_seed/restart_rng/replica_rng.
  return metaheur::splitmix64(
      metaheur::splitmix64(seed ^ 0x452821e638d01377ull) +
      static_cast<std::uint64_t>(attempt));
}

double JobService::retry_backoff_s(std::uint64_t seed, int attempt,
                                   const RetryPolicy& policy) {
  if (attempt <= 0 || policy.backoff_s <= 0.0) return 0.0;
  double base = policy.backoff_s *
                std::ldexp(1.0, std::min(attempt - 1, 30));
  base = std::min(base, std::max(0.0, policy.backoff_cap_s));
  const std::uint64_t h = metaheur::splitmix64(
      metaheur::splitmix64(seed ^ 0x9216d5d98979fb1bull) +
      static_cast<std::uint64_t>(attempt));
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return base * (0.5 + 0.5 * u);
}

JobError JobService::validate_result(const PipelineResult& result) {
  auto bad = [](double v) { return !std::isfinite(v); };
  bool broken = bad(result.eval.area) || bad(result.eval.dead_space) ||
                bad(result.eval.hpwl) || bad(result.eval.reward);
  for (const auto& r : result.rects) {
    broken = broken || bad(r.x) || bad(r.y) || bad(r.w) || bad(r.h);
  }
  JobError err;
  if (broken) {
    err.kind = JobErrorKind::kInternal;
    err.message = "non-finite result metrics (degenerate instance?)";
  }
  return err;
}

JobReport JobService::run_job(const JobSpec& spec, std::size_t id,
                              std::uint64_t seed, const CancelToken* cancel,
                              const ProgressFn& progress) {
  JobReport report;
  report.id = id;
  report.name = spec.name.empty() ? spec.netlist.name() : spec.name;
  report.seed = seed;
  const auto t0 = Clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto notify = [&](JobStatus status, int attempt) {
    if (progress) {
      progress({report.id, report.name, status, elapsed(), attempt});
    }
  };
  report.optimizer = spec.config.optimizer;
  report.search = spec.config.search;
  const RetryPolicy& retry = spec.config.search.retry;
  const int max_attempts = 1 + std::max(0, retry.max_retries);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      report.error = JobError{};
      report.result = PipelineResult{};
      if (!sleep_unless_cancelled(retry_backoff_s(seed, attempt, retry),
                                  cancel)) {
        break;  // cancelled during backoff: the previous failure stands
      }
    }
    report.attempts = attempt + 1;
    notify(JobStatus::kRunning, attempt);
    // The watchdog rides a *child* of the job's cancel token: one deadline
    // per attempt, measured on the monotonic clock from the attempt's
    // start, armed on private state so it never clobbers a deadline the
    // caller armed on the shared token (a daemon client attaching a
    // timeout to a running job).  The caller's cancel()/deadline still
    // land — children observe the whole ancestor chain.
    CancelToken token = cancel ? cancel->child() : CancelToken{};
    if (spec.config.search.budget.deadline_s > 0.0) {
      token.set_deadline_after(spec.config.search.budget.deadline_s);
    }
    // Ambient fault-injection context for this attempt (inert unless the
    // injector is configured).
    FaultScope fault_scope(id, attempt);
    try {
      // Resolve the full option map (defaults + overrides) up front so even
      // failed jobs report the configuration they ran under.
      report.options =
          metaheur::make_optimizer(spec.config.optimizer, spec.config.options)
              ->options();
      FloorplanPipeline pipe(spec.config);
      std::mt19937_64 rng(retry_seed(seed, attempt));
      report.result = pipe.run(spec.netlist, rng, &token);
      JobError verr = validate_result(report.result);
      if (verr.ok()) {
        report.status = JobStatus::kDone;
        report.error = JobError{};
      } else {
        verr.job_id = id;
        report.status = JobStatus::kFailed;
        report.error = verr;
      }
    } catch (const CancelledError& e) {
      report.status = JobStatus::kCancelled;
      report.error = {JobErrorKind::kCancelled, e.what(), id, -1};
    } catch (const DeadlineExceededError& e) {
      // Hard deadline: partial results are discarded, the state is
      // terminal and non-retryable (a retry would get the same budget).
      report.status = JobStatus::kDeadlineExceeded;
      report.error = {JobErrorKind::kDeadlineExceeded, e.what(), id,
                      e.quantum};
      report.result = PipelineResult{};
    } catch (const OptimizerError& e) {
      report.status = JobStatus::kFailed;
      report.error = {JobErrorKind::kOptimizerFailure, e.what(), id,
                      e.quantum};
    } catch (const std::bad_alloc&) {
      report.status = JobStatus::kFailed;
      report.error = {JobErrorKind::kResourceExhausted,
                      "allocation failure", id, -1};
    } catch (const std::invalid_argument& e) {
      report.status = JobStatus::kFailed;
      report.error = {JobErrorKind::kInvalidConfig, e.what(), id, -1};
    } catch (const std::exception& e) {
      report.status = JobStatus::kFailed;
      report.error = {JobErrorKind::kInternal, e.what(), id, -1};
    }
    if (report.status == JobStatus::kDone ||
        !is_retryable(report.error.kind)) {
      break;
    }
  }
  report.runtime_s = elapsed();
  notify(report.status, report.attempts - 1);
  return report;
}

JobService::JobService(JobServiceOptions opts) : opts_(std::move(opts)) {
  workers_.resize(static_cast<std::size_t>(num::num_threads()));
  try {
    for (auto& w : workers_) w = std::thread([this] { worker_loop(); });
  } catch (...) {
    stop_workers();  // never leave a started worker unjoined
    throw;
  }
}

JobService::~JobService() { stop_workers(); }

void JobService::stop_workers() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

JobService::Handle JobService::submit(JobSpec spec) {
  return enqueue(std::move(spec), std::nullopt);
}

JobService::Handle JobService::enqueue(JobSpec spec,
                                       std::optional<std::size_t> id) {
  Handle handle;
  {
    std::unique_lock<std::mutex> lock(mu_);
    Pending p;
    p.spec = std::move(spec);
    p.id = id ? *id : next_id_++;
    if (opts_.cancel) p.cancel = opts_.cancel->child();
    handle.id = p.id;
    handle.cancel = p.cancel;
    handle.report = p.promise.get_future().share();
    queue_.push_back(std::move(p));
  }
  work_cv_.notify_one();
  return handle;
}

void JobService::wait_all() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void JobService::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and the queue is drained
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    // The seed depends only on the job id, never on worker or timing.
    const std::uint64_t seed =
        p.spec.seed ? p.spec.seed : job_seed(opts_.base_seed, p.id);
    p.promise.set_value(
        run_job(p.spec, p.id, seed, &p.cancel, opts_.on_progress));
    lock.lock();
    --in_flight_;
    idle_cv_.notify_all();
  }
}

std::vector<JobReport> JobService::run_batch(
    std::vector<JobSpec> jobs, const JobServiceOptions& opts,
    const std::vector<std::size_t>& ids) {
  if (!ids.empty() && ids.size() != jobs.size()) {
    throw std::invalid_argument("run_batch: one id per job expected");
  }
  JobService service(opts);
  std::vector<Handle> handles;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    handles.push_back(
        service.enqueue(std::move(jobs[i]), ids.empty() ? i : ids[i]));
  }
  std::vector<JobReport> reports;
  for (const Handle& h : handles) reports.push_back(h.report.get());
  return reports;
}

}  // namespace afp::core
