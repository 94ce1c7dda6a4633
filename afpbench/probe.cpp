#include "probe.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace afpbench {

namespace {

std::string proc_path(pid_t pid, const char* leaf) {
  return pid == 0 ? std::string("/proc/self/") + leaf
                  : "/proc/" + std::to_string(pid) + "/" + leaf;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

double SpeedProbe::timed_kernel_ms(std::size_t slot) {
  // The buffers are refilled before the clock starts and reached through
  // this object, which other threads see, so the compiler must load every
  // value: it can fold none of the work into constants, and the kernel's
  // cost does not depend on what it can prove about its inputs.
  KernelBuffers& k = buffers_[slot];
  constexpr int n = 32;
  k.a.fill(0.5f);
  k.b.fill(0.25f);
  k.c.fill(0.0f);
  for (std::size_t i = 0; i < k.walk.size(); ++i) {
    k.walk[i] = 0.5 * static_cast<double>(i);
  }

  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  double acc = 0.0;
  for (int i = 0; i < 42000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const double v = k.walk[x & 4095];
    acc += v * 1.0000001 - (acc > 1e9 ? 1e9 : 0.0);
    k.walk[(x >> 12) & 4095] = v + 1e-9;
  }
  for (int rep = 0; rep < 8; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int m = 0; m < n; ++m) {
        const float aim = k.a[i * n + m];
        for (int j = 0; j < n; ++j) k.c[i * n + j] += aim * k.b[m * n + j];
      }
    }
    k.a[rep] += k.c[rep] * 1e-9f;
  }
  const auto t1 = Clock::now();
  sink_.store(k.c[n + 1] + static_cast<float>(acc), std::memory_order_relaxed);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

SpeedProbe::SpeedProbe(const std::vector<int>& cpus)
    : series_(cpus.size()), buffers_(cpus.size()) {
  try {
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      threads_.emplace_back([this, i, cpu = cpus[i]] { sample(i, cpu); });
    }
  } catch (...) {
    stop_ = true;
    for (auto& t : threads_) t.join();
    throw;
  }
}

SpeedProbe::~SpeedProbe() {
  stop_ = true;
  for (auto& t : threads_) t.join();
}

void SpeedProbe::sample(std::size_t slot, int cpu) {
  try {
    pin_thread({cpu});
    while (!stop_) {
      const double ms = timed_kernel_ms(slot);
      const auto end = Clock::now();
      {
        std::lock_guard<std::mutex> lock(mu_);
        series_[slot].emplace_back(end, ms);
      }
      std::this_thread::sleep_for(kPeriod);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    error_ = "speed probe on cpu " + std::to_string(cpu) + ": " + e.what();
  }
}

std::string SpeedProbe::error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return error_;
}

double SpeedProbe::scale(Clock::time_point t0, Clock::time_point t1) const {
  std::vector<double> window;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : series_) {
      auto it = std::lower_bound(
          s.begin(), s.end(), t0 - kWindow,
          [](const auto& smp, Clock::time_point t) { return smp.first < t; });
      for (; it != s.end() && it->first <= t1; ++it) window.push_back(it->second);
    }
  }
  const double ms = median_of(std::move(window));
  return ms > 0.0 ? kReferenceKernelMs / ms : 1.0;
}

double SpeedProbe::median_kernel_ms() const {
  std::vector<double> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : series_) {
    for (const auto& smp : s) all.push_back(smp.second);
  }
  return median_of(std::move(all));
}

std::size_t SpeedProbe::samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& s : series_) n += s.size();
  return n;
}

HostTicks read_host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::vector<std::uint64_t> f(8, 0);
  in >> cpu;
  for (auto& v : f) in >> v;
  // user nice system idle iowait irq softirq steal
  HostTicks t;
  t.steal = f[7];
  t.busy = f[0] + f[1] + f[2] + f[5] + f[6] + f[7];
  return t;
}

double steal_pct(const HostTicks& from, const HostTicks& to) {
  const double busy = static_cast<double>(to.busy - from.busy);
  if (busy <= 0.0) return 0.0;
  return 100.0 * static_cast<double>(to.steal - from.steal) / busy;
}

double load_average_1m() {
  std::ifstream in("/proc/loadavg");
  double v = 0.0;
  in >> v;
  return v;
}

double peak_rss_mb(pid_t pid) {
  std::ifstream in(proc_path(pid, "status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double cpu_seconds(pid_t pid) {
  if (pid == 0) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
  }
  std::ifstream in(proc_path(pid, "stat"));
  std::string stat;
  std::getline(in, stat);
  // The command name (field 2) may hold spaces; fields resume after ')'.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string skip;
  for (int i = 3; i < 14; ++i) fields >> skip;  // state .. cmajflt
  double utime = 0.0;
  double stime = 0.0;
  fields >> utime >> stime;
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

}  // namespace afpbench
