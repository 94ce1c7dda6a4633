// The afpd workload: a spawned daemon fed by closed-loop client sessions.
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <mutex>
#include <thread>

#include "afpd_workload.hpp"
#include "probe.hpp"
#include "service/client.hpp"

namespace afpbench {

using afp::service::Client;

namespace {

constexpr int kSessions = 2;
constexpr const char* kConfig =
    "{\"optimizer\": \"sa\", \"options\": {\"spacing_um\": \"0\"}}";
/// Warm-up spec, fixed so set-up time does not depend on the workload seed.
constexpr const char* kWarmupSpec = "ota:8:1";

/// A spawned afpd.  The destructor kills and reaps a daemon that was not
/// stopped cleanly, so no exit path leaves it running.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket,
         const std::vector<int>& cpus) {
    // Built before fork: the child of a threaded process may only make
    // async-signal-safe calls until it execs.
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus) CPU_SET(c, &set);
    int out[2];
    if (::pipe(out) != 0) throw std::runtime_error("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive a benchmark that dies without reaching
      // the destructor.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::sched_setaffinity(0, sizeof set, &set);
      ::dup2(out[1], STDOUT_FILENO);
      ::close(out[0]);
      ::close(out[1]);
      ::execl(binary.c_str(), "afpd", "--socket", socket.c_str(), "--threads",
              "2", "--quiet", static_cast<char*>(nullptr));
      std::perror("afpbench: exec afpd");
      _exit(127);
    }
    ::close(out[1]);
    out_ = out[0];
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_ >= 0) ::close(out_);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Blocks until the daemon prints its ready line; false if it exits or
  /// prints something else first.
  bool wait_ready() {
    std::string line;
    char c = 0;
    while (::read(out_, &c, 1) == 1) {
      if (c != '\n') {
        line += c;
        continue;
      }
      return line.rfind("afpd: ready", 0) == 0;
    }
    return false;
  }

  /// SIGTERM (graceful drain) and reap; true when the daemon exited 0
  /// within the grace period.
  bool stop() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto t0 = Clock::now();
    for (;;) {
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_) break;
      if (r < 0) return false;
      if (ms_since(t0) > 10000.0) return false;  // destructor kills it
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pid_ = -1;
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

/// Terminal server-side runtime of `job` from the session's progress
/// events (the `done` frame carries run_job's runtime_s), or -1.
double server_runtime_ms(Client& client, std::uint64_t job) {
  double ms = -1.0;
  for (const auto& p : client.progress()) {
    if (p.job == job && p.status != "running") ms = p.runtime_s * 1e3;
  }
  client.progress().clear();
  return ms;
}

struct Sample {
  std::size_t job = 0;
  double latency_ms = 0.0;  ///< at the reference speed
  double raw_ms = 0.0;
  double admit_ms = 0.0;
  double server_ms = -1.0;
  bool done = false;
};

struct Live {
  std::unique_ptr<Daemon> daemon;
  std::vector<Client> clients;
};

/// One set-up: exec -> ready line, session connects, one warm-up job per
/// session.  Returns its duration in seconds at the reference speed.
double set_up(const Args& a, const std::string& socket,
              const std::vector<int>& cpus, const SpeedProbe& speed,
              Live* live) {
  const auto t0 = Clock::now();
  live->daemon = std::make_unique<Daemon>(a.afpd, socket, cpus);
  if (!live->daemon->wait_ready()) {
    throw std::runtime_error("afpd did not print its ready line");
  }
  for (int s = 0; s < kSessions; ++s) {
    live->clients.push_back(Client::connect_unix(socket));
  }
  for (auto& c : live->clients) {
    const auto acc = c.submit_scenario(kWarmupSpec, 1, 0, kConfig);
    if (c.await_result(acc.job).status != "done") {
      throw std::runtime_error("afpd warm-up job failed");
    }
    c.progress().clear();
  }
  return ms_since(t0) / 1e3 * speed.scale(t0, Clock::now());
}

}  // namespace

ServiceRun run_service(const Args& a, const std::vector<Job>& jobs,
                       double seconds, int setups,
                       const std::vector<int>& daemon_cpus,
                       const SpeedProbe& speed) {
  ServiceRun run;
  const std::string dir = a.afpd.substr(0, a.afpd.rfind('/') + 1);
  const std::string socket =
      dir + "afpbench-" + std::to_string(::getpid()) + ".sock";

  Live live;
  for (int k = 0; k < setups; ++k) {
    if (k > 0) {
      live.clients.clear();
      if (!live.daemon->stop()) run.errors.push_back("afpd did not drain");
    }
    live = Live{};
    run.setup_s.push_back(set_up(a, socket, daemon_cpus, speed, &live));
  }

  // Closed loop: each session submits its share of the spec list in order,
  // awaiting every result before the next submit.  A session always
  // completes one full pass, then stops at the first result past the end
  // of the measured window.
  run.latencies.assign(jobs.size(), {});
  run.reports.assign(jobs.size(), {});
  std::vector<std::vector<Sample>> samples(kSessions);
  std::vector<std::string> session_errors(kSessions);
  std::mutex mu;
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      Client& client = live.clients[static_cast<std::size_t>(s)];
      try {
        for (int pass = 0;; ++pass) {
          for (std::size_t i = static_cast<std::size_t>(s); i < jobs.size();
               i += kSessions) {
            if (pass > 0 && Clock::now() >= deadline) return;
            Sample smp;
            smp.job = i;
            const auto j0 = Clock::now();
            try {
              const auto acc = client.submit_scenario(
                  jobs[i].scenario, jobs[i].spec.seed, 0, kConfig);
              smp.admit_ms = ms_since(j0);
              const Client::Result res = client.await_result(acc.job);
              smp.raw_ms = ms_since(j0);
              smp.latency_ms = smp.raw_ms * speed.scale(j0, Clock::now());
              smp.server_ms = server_runtime_ms(client, acc.job);
              smp.done = res.status == "done";
              std::lock_guard<std::mutex> lock(mu);
              if (run.reports[i].empty()) {
                run.reports[i] = res.report_raw;
              } else if (run.reports[i] != res.report_raw &&
                         normalize_report(run.reports[i]) !=
                             normalize_report(res.report_raw)) {
                run.errors.push_back("afpd served different reports for " +
                                     jobs[i].scenario);
              }
              if (!smp.done) {
                run.errors.push_back(jobs[i].scenario + ": " + res.status +
                                     " " + res.error_message);
              }
            } catch (const afp::service::ServerError& e) {
              std::lock_guard<std::mutex> lock(mu);
              ++run.rejected;
              run.errors.push_back(jobs[i].scenario + ": " + e.what());
            }
            samples[static_cast<std::size_t>(s)].push_back(smp);
          }
        }
      } catch (const std::exception& e) {
        session_errors[static_cast<std::size_t>(s)] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  run.wall_s = ms_since(t0) / 1e3;
  run.wall_scale = speed.scale(t0, Clock::now());
  for (const auto& e : session_errors) {
    if (!e.empty()) run.errors.push_back("session: " + e);
  }

  for (const auto& session : samples) {
    for (const auto& smp : session) {
      ++run.attempted;
      if (!smp.done) {
        ++run.failed;
        continue;
      }
      ++run.finished;
      run.latencies[smp.job].push_back(smp.latency_ms);
      run.admit_ms.push_back(smp.admit_ms);
      if (smp.server_ms >= 0.0) {
        run.run_ms.push_back(smp.server_ms);
        run.queue_wait_ms.push_back(smp.raw_ms - smp.server_ms);
      } else {
        run.errors.push_back("no terminal progress frame for a served job");
      }
    }
  }

  try {
    const afp::service::JsonValue st = live.clients.at(0).stats();
    run.dropped_progress =
        static_cast<double>(st.at("dropped_progress").as_uint("dropped"));
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("stats request: ") + e.what());
  }
  run.daemon_rss_mb = peak_rss_mb(live.daemon->pid());
  run.daemon_cpu_s = cpu_seconds(live.daemon->pid());
  live.clients.clear();
  if (!live.daemon->stop()) run.errors.push_back("afpd did not drain");
  return run;
}

std::string normalize_report(std::string report) {
  // "timings" and "tt_cache" are the report's documented non-deterministic
  // members; blank both before comparing bytes.
  for (const char* member : {"\"timings\": {", "\"tt_cache\": {"}) {
    const std::size_t at = report.find(member);
    if (at == std::string::npos) continue;
    const std::size_t open = report.find('{', at);
    const std::size_t close = report.find('}', open);
    if (close == std::string::npos) continue;
    report.replace(open, close - open + 1, "{}");
  }
  return report;
}

}  // namespace afpbench
