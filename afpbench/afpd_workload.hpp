// The afpd workload: `afpd --threads 2` with default admission, spawned by
// the benchmark and fed by two closed-loop sessions through service::Client.
#pragma once

#include <string>
#include <vector>

#include "bench.hpp"
#include "probe.hpp"

namespace afpbench {

/// What the served phase measured, from the client side: the measured
/// phase every workload has, and the service rows only afpd fills.
struct ServiceRun : Measurement {
  std::vector<std::string> reports;  ///< per job: first served report
  std::vector<double> queue_wait_ms;  ///< latency - server runtime, per sample
  std::vector<double> admit_ms;       ///< submit -> accepted, per sample
  std::vector<double> run_ms;         ///< server runtime, per sample
  long rejected = 0;
  double dropped_progress = 0.0;
  double daemon_rss_mb = 0.0;
  double daemon_cpu_s = 0.0;
};

/// Runs `setups` set-ups (the last one's daemon serves), then the closed
/// loop for `seconds`, then reads the daemon's stats and stops it.  The
/// daemon runs on `daemon_cpus`, where `speed` samples.
ServiceRun run_service(const Args& a, const std::vector<Job>& jobs,
                       double seconds, int setups,
                       const std::vector<int>& daemon_cpus,
                       const SpeedProbe& speed);

/// A served or in-process report with its non-deterministic members
/// ("timings", "tt_cache") blanked.
std::string normalize_report(std::string report);

}  // namespace afpbench
