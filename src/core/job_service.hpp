// Async batch front end for the floorplanning pipeline.
//
// A JobService accepts N (netlist, PipelineConfig) jobs and runs them on
// num::num_threads() workers (counted at construction), each pulling one
// queued job at a time; a job's own loops (restarts, PT replicas, GA/PSO
// populations) use the shared numeric pool when it is free and run inline
// otherwise — results do not depend on thread count.  It exposes:
//
//   * futures        — submit() returns a Handle with a shared_future
//                      resolving to the job's JobReport,
//   * cancellation   — every Handle carries a CancelToken, polled before
//                      the search and at quantum/restart boundaries (a
//                      plain single search, once started, completes),
//   * deadlines      — a per-job wall-clock budget via
//                      PipelineConfig::search.budget.wall_clock_s (the
//                      ROADMAP's budgeted mode: quanta race the clock,
//                      deterministically per completed quantum count),
//   * progress       — an optional callback fired from worker threads on
//                      every job state change (must be thread-safe); the
//                      terminal event carries the finished report.
//
// Reproducibility: job k (its id: the submission order, or the id the
// caller passed) always runs under the rng seed job_seed(base_seed, k) — a
// SplitMix64 stream independent of thread count, worker assignment and
// submission timing — so a batch's reports are bitwise identical across
// runs and pool sizes.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "netlist/netlist.hpp"

namespace afp::core {

enum class JobStatus {
  kQueued,
  kRunning,
  kDone,
  kCancelled,
  kFailed,
  kDeadlineExceeded,
};

const char* to_string(JobStatus s);

/// Error taxonomy: what went wrong with a job, machine-readably.  Retry
/// policy and the daemon's admission decisions key off `kind`, never off
/// message text.
enum class JobErrorKind {
  kNone,               ///< no error (status kDone)
  kInvalidConfig,      ///< bad optimizer/options/netlist/checkpoint — not
                       ///< retryable, the job can never succeed as specified
  kOptimizerFailure,   ///< an exception escaped a search quantum (retryable)
  kDeadlineExceeded,   ///< the watchdog deadline expired (not retryable:
                       ///< a retry would get the same budget)
  kCancelled,          ///< cancelled before any result existed
  kResourceExhausted,  ///< allocation failure (retryable)
  kInternal,           ///< invariant violation (e.g. non-finite cost)
};

const char* to_string(JobErrorKind k);

/// True for the kinds a retry can plausibly fix (transient failures).
bool is_retryable(JobErrorKind k);

/// Structured error carried by JobReport and the JSON report schema.
struct JobError {
  JobErrorKind kind = JobErrorKind::kNone;
  std::string message;
  std::size_t job_id = 0;
  /// Search quantum the failure is attributed to; -1 = outside any quantum
  /// (setup, pre-search deadline, result validation).
  long quantum = -1;

  bool ok() const { return kind == JobErrorKind::kNone; }
};

/// One unit of batch work: a netlist plus a full pipeline configuration.
struct JobSpec {
  std::string name;  ///< label; defaults to the netlist name when empty
  netlist::Netlist netlist;
  PipelineConfig config;
  /// Explicit per-job rng seed; 0 = derive job_seed(base_seed, id).  The
  /// daemon uses this so a served job is bitwise identical to the same
  /// `afp_cli floorplan --seed N` run.
  std::uint64_t seed = 0;
};

/// Terminal record of a job.  `result` is meaningful only when status is
/// kDone; `error.kind` is kNone exactly when the job succeeded.
struct JobReport {
  std::size_t id = 0;
  std::string name;
  JobStatus status = JobStatus::kQueued;
  std::uint64_t seed = 0;  ///< derived per-job rng seed (reproducibility)
  double runtime_s = 0.0;
  int attempts = 1;  ///< 1 + retries actually performed
  JobError error;
  /// Resolved search configuration (registry key, full option map with
  /// defaults filled in, restarts/budget) — config provenance for the JSON
  /// reports.
  std::string optimizer;
  metaheur::Options options;
  SearchConfig search;
  PipelineResult result;
};

/// Progress event; fired on kRunning (once per attempt) and once on the
/// terminal state.
struct JobProgress {
  std::size_t id = 0;
  std::string name;
  JobStatus status = JobStatus::kQueued;
  double runtime_s = 0.0;
  int attempt = 0;  ///< 0-based; > 0 on retries
  /// The finished report on the terminal event, null on every other one.
  /// Valid only during the callback: copy what must outlive it.
  const JobReport* report = nullptr;
};

using ProgressFn = std::function<void(const JobProgress&)>;

struct JobServiceOptions {
  std::uint64_t base_seed = 1;
  /// Invoked from worker threads; must be thread-safe.  May be empty.
  ProgressFn on_progress;
  /// Optional service/batch-wide stop signal: every job's token is created
  /// as a child of this one, so cancel() (or an armed deadline) on it stops
  /// all jobs at iteration latency — the daemon's drain path.  Null = none.
  const CancelToken* cancel = nullptr;
};

class JobService {
 public:
  struct Handle {
    std::size_t id = 0;
    CancelToken cancel;
    std::shared_future<JobReport> report;
  };

  explicit JobService(JobServiceOptions opts = {});
  /// Drains the queue (blocks until every submitted job reached a terminal
  /// state) and joins the workers.
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  /// Enqueues a job as the next id; the first free worker runs it.
  Handle submit(JobSpec spec);
  /// Enqueues a job as job `id` (report id, seed job_seed(base_seed, id),
  /// fault site); afpd passes its own, distinct job ids.
  Handle submit(JobSpec spec, std::size_t id);

  /// Blocks until every job submitted so far reached a terminal state.
  void wait_all();

  /// Per-job rng seed: a SplitMix64 stream over (base_seed, job id) in a
  /// domain distinct from the restart/replica streams.
  static std::uint64_t job_seed(std::uint64_t base_seed, std::size_t job_id);

  /// Identity hash of a spec's search configuration (the PR 6 checkpoint
  /// identity over optimizer/options/instance size/iteration budget).  The
  /// afpd crash-recovery journal records it per accepted job so an orphan
  /// report names exactly which configured run was lost.
  static std::uint64_t spec_identity(const JobSpec& spec);

  /// Runs one job to a terminal report (no service needed), applying the
  /// full fault-tolerance policy:
  ///
  ///   * watchdog — search.budget.deadline_s arms the job's CancelToken;
  ///     an overrun ends as kDeadlineExceeded (partial results discarded),
  ///   * firewall — any exception ends as a terminal classified JobError,
  ///     never escapes (so one bad job cannot poison a pool fan-out),
  ///   * retry — retryable kinds re-run up to search.retry.max_retries
  ///     times; attempt k > 0 uses retry_seed(seed, k) and sleeps
  ///     retry_backoff_s(seed, k) first, both pure functions of the seed,
  ///   * cancellation — polled inside optimizer loops (one-iteration
  ///     latency); a cancel before any result exists yields kCancelled,
  ///     later ones return the best-so-far as kDone.
  static JobReport run_job(const JobSpec& spec, std::size_t id,
                           std::uint64_t seed, const CancelToken* cancel,
                           const ProgressFn& progress);

  /// RNG seed for retry attempt k (k = 0 returns `seed` unchanged); a
  /// SplitMix64 stream in its own domain, so retries explore fresh search
  /// trajectories deterministically.
  static std::uint64_t retry_seed(std::uint64_t seed, int attempt);

  /// Deterministic capped-exponential backoff before retry attempt k >= 1:
  /// min(cap, base * 2^(k-1)) scaled by a jitter in [0.5, 1) drawn from the
  /// job's SplitMix64 stream.  Pure function of (seed, k, policy).
  static double retry_backoff_s(std::uint64_t seed, int attempt,
                                const RetryPolicy& policy);

  /// Validates a finished pipeline result (finite cost/metrics); a
  /// violation is reported as a kInternal JobError instead of emitting
  /// NaN/Inf into reports.
  static JobError validate_result(const PipelineResult& result);

  /// Convenience: submits a batch to a fresh service and returns the
  /// reports in batch order.  Entry i runs as job ids[i] (report id, seed
  /// job_seed(base_seed, ids[i]), fault site), or as job i when `ids` is
  /// empty; `afp --batch` passes manifest positions.
  static std::vector<JobReport> run_batch(
      std::vector<JobSpec> jobs, const JobServiceOptions& opts = {},
      const std::vector<std::size_t>& ids = {});

 private:
  struct Pending {
    JobSpec spec;
    std::size_t id = 0;
    CancelToken cancel;
    std::promise<JobReport> promise;
  };

  /// Queues `spec` as job `id`, or as the next submission-order id.
  Handle enqueue(JobSpec spec, std::optional<std::size_t> id);
  void worker_loop();
  /// Lets the workers drain the queue, then joins them.
  void stop_workers();

  JobServiceOptions opts_;
  std::mutex mu_;
  std::condition_variable work_cv_;   ///< queue became non-empty / stopping
  std::condition_variable idle_cv_;   ///< a job finished
  std::deque<Pending> queue_;
  std::size_t next_id_ = 0;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace afp::core
