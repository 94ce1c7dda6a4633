#include "numeric/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace afp::num {

namespace {

thread_local bool g_in_worker = false;

int default_thread_count() {
  if (const char* s = std::getenv("AFP_NUM_THREADS")) {
    const int v = std::atoi(s);
    if (v >= 1) return v;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

/// One parallel_for invocation.  Immutable except for the chunk cursor and
/// completion counter; workers hold the job via shared_ptr, so a worker
/// that wakes late (or is descheduled mid-claim) can never observe the
/// fields of a *newer* job through stale pointers — its fetch_add on the
/// exhausted cursor simply fails and it goes back to sleep.
struct Job {
  const ParallelBody* body = nullptr;
  std::int64_t total = 0, step = 0, chunks = 0;
  std::atomic<std::int64_t> next{0};
  std::atomic<std::int64_t> remaining{0};  ///< chunks not yet completed
  std::exception_ptr error;                ///< guarded by the pool mutex
};

/// Fixed pool of n-1 workers; the caller runs chunks too.  One job is
/// active at a time (parallel_for holds job_mutex_).
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  int size() const { return threads_; }

  void resize(int n) {
    std::lock_guard<std::mutex> job_lock(job_mutex_);
    stop_workers();
    threads_ = std::max(1, n);
    start_workers();
  }

  void run(std::int64_t n, std::int64_t grain, const ParallelBody& body) {
    // A caller that finds the pool busy with another caller's loop runs its
    // own loop inline instead of waiting, so concurrent callers (JobService
    // workers running nested-parallel jobs) never stall on each other.
    std::unique_lock<std::mutex> job_lock(job_mutex_, std::try_to_lock);
    if (!job_lock.owns_lock()) {
      body(0, n);
      return;
    }
    const std::int64_t max_chunks =
        std::max<std::int64_t>(1, (n + grain - 1) / grain);
    const std::int64_t chunks = std::min<std::int64_t>(max_chunks, threads_);
    if (chunks <= 1) {
      body(0, n);
      return;
    }
    auto job = std::make_shared<Job>();
    job->body = &body;
    job->total = n;
    job->step = (n + chunks - 1) / chunks;  // chunk c: [c*step, min(n, ..))
    job->chunks = chunks;
    job->remaining.store(chunks, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lk(mutex_);
      job_ = job;
      ++generation_;
    }
    cv_work_.notify_all();
    drain(*job);
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_done_.wait(lk, [&] {
        return job->remaining.load(std::memory_order_acquire) == 0;
      });
      job_.reset();
      if (job->error) {
        auto err = job->error;
        lk.unlock();
        std::rethrow_exception(err);
      }
    }
  }

 private:
  ThreadPool() : threads_(default_thread_count()) { start_workers(); }

  ~ThreadPool() {
    std::lock_guard<std::mutex> job_lock(job_mutex_);
    stop_workers();
  }

  void start_workers() {
    for (int i = 1; i < threads_; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  void stop_workers() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (auto& w : workers_) w.join();
    workers_.clear();
    stop_ = false;
  }

  void worker_loop() {
    g_in_worker = true;
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_work_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;  // may already be null if the job finished
      }
      if (job) drain(*job);
    }
  }

  /// Claims and runs chunks until the job's cursor is exhausted.
  void drain(Job& job) {
    const bool prev = g_in_worker;
    g_in_worker = true;
    std::int64_t done_here = 0;
    for (;;) {
      const std::int64_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) break;
      const std::int64_t begin = c * job.step;
      const std::int64_t end = std::min(job.total, begin + job.step);
      try {
        (*job.body)(begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!job.error) job.error = std::current_exception();
      }
      ++done_here;
    }
    g_in_worker = prev;
    if (done_here > 0 &&
        job.remaining.fetch_sub(done_here, std::memory_order_acq_rel) ==
            done_here) {
      // Last chunk: wake the caller.  Lock pairs with its predicate wait.
      std::lock_guard<std::mutex> lk(mutex_);
      cv_done_.notify_all();
    }
  }

  int threads_;
  std::vector<std::thread> workers_;

  std::mutex job_mutex_;  ///< serializes parallel_for calls + resize

  std::mutex mutex_;
  std::condition_variable cv_work_, cv_done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;
  std::shared_ptr<Job> job_;
};

}  // namespace

int num_threads() { return ThreadPool::instance().size(); }

void set_num_threads(int n) {
  ThreadPool::instance().resize(n > 0 ? n : default_thread_count());
}

void parallel_for(std::int64_t n, std::int64_t grain,
                  const ParallelBody& body) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  if (g_in_worker || num_threads() == 1 || n <= grain) {
    body(0, n);
    return;
  }
  ThreadPool::instance().run(n, grain, body);
}

}  // namespace afp::num
