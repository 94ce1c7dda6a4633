// Process and host probes: the noise diagnostics printed beside every run,
// the resource numbers of the benchmark's own process and of a spawned
// daemon, and the speed probe that takes host speed out of the timings.
#pragma once

#include <sys/types.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace afpbench {

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Pins the calling thread, and the threads it creates afterwards, to
/// `cpus`.
void pin_thread(const std::vector<int>& cpus);

/// Host speed beside the work.  On a shared host one vCPU's speed moves
/// with what other tenants run on its physical core, by up to 1.5x within
/// a minute, and the other vCPUs do not move with it.  One thread per given
/// CPU, pinned there beside the pinned work, times a fixed kernel every few
/// milliseconds.  A duration measured over [t0, t1] times `scale(t0, t1)`
/// is that duration at the reference speed, at which the kernel takes
/// kReferenceKernelMs.
class SpeedProbe {
 public:
  using Clock = std::chrono::steady_clock;
  /// About the kernel's time on a quiet core of the host the benchmark was
  /// defined on, so that times at the reference speed read close to raw
  /// ones there.
  static constexpr double kReferenceKernelMs = 0.23;

  explicit SpeedProbe(const std::vector<int>& cpus);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// kReferenceKernelMs over the median kernel time sampled on the probed
  /// CPUs from `window` before t0 to t1; 1 when no sample fell there.
  double scale(Clock::time_point t0, Clock::time_point t1) const;
  /// Median kernel time over every sample so far, and the sample count.
  double median_kernel_ms() const;
  std::size_t samples() const;
  /// Why a sampling thread stopped early, or empty.
  std::string error() const;

 private:
  static constexpr auto kPeriod = std::chrono::milliseconds(10);
  static constexpr auto kWindow = std::chrono::milliseconds(200);

  /// The kernel's working set, one per probed CPU.
  struct KernelBuffers {
    std::array<float, 32 * 32> a, b, c;
    std::array<double, 4096> walk;
  };

  void sample(std::size_t slot, int cpu);
  /// One kernel, timed in ms.  Two halves of about equal time: a dependent
  /// random walk over 32 KB, bound by latency, and 32x32 float matrix
  /// products, bound by throughput.  A busy neighbour on the core slows the
  /// second more than the jobs and the first less; timed on the jobs' CPU
  /// before each table1 job, their sum moved with the jobs' time one for
  /// one (a 2 MB pointer chase tracked them worse than either half).  Kept
  /// out of line and cache-line aligned, so its loops sit the same way in
  /// every build however the code around it moves.
  [[gnu::noinline, gnu::aligned(64)]] double timed_kernel_ms(std::size_t slot);

  mutable std::mutex mu_;
  /// Per probed CPU: (end of kernel, kernel ms), in time order.
  std::vector<std::vector<std::pair<Clock::time_point, double>>> series_;
  std::string error_;
  std::vector<KernelBuffers> buffers_;  ///< one per thread, unshared
  std::atomic<bool> stop_{false};
  std::atomic<float> sink_{0.0f};  ///< kernel results, so none is dropped
  std::vector<std::thread> threads_;
};

/// Aggregate CPU tick counters from the first line of /proc/stat.
struct HostTicks {
  std::uint64_t busy = 0;   ///< user + nice + system + irq + softirq + steal
  std::uint64_t steal = 0;  ///< time the hypervisor ran someone else
};
HostTicks read_host_ticks();

/// Steal as a share of busy time between two samples, in percent.
double steal_pct(const HostTicks& from, const HostTicks& to);

/// 1-minute load average (first field of /proc/loadavg).
double load_average_1m();

/// Peak resident set (VmHWM) of a process in MB; pid 0 = this process.
double peak_rss_mb(pid_t pid = 0);

/// User + system CPU seconds of a process from /proc/<pid>/stat; pid 0 =
/// this process.
double cpu_seconds(pid_t pid = 0);

}  // namespace afpbench
