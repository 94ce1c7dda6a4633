// afp_loadgen — concurrent-client load generator and parity checker for
// afpd.
//
//   afp_loadgen --socket PATH [--spawn path/to/afpd] --clients N
//               --seeds 7,8,9 [--circuit ota_small[,driver,...]]
//               [--baseline sa] [--iters N] [--write-reports DIR]
//               [--bench-json FILE]
//
// Every client thread opens its own session and submits one job per seed,
// awaiting each result.  --circuit takes a comma-separated mix: client c
// drives circuit list[c % len], so a 64-client run spreads load across
// heterogeneous job sizes.  Afterwards the reports are checked pairwise:
// for a given (circuit, seed), every client must have received
// BYTE-IDENTICAL report bytes — the served pipeline is deterministic and
// session multiplexing must not leak between jobs.  One canonical copy per
// (circuit, seed) is then written to --write-reports as
// report_seed<seed>.json (single circuit) or
// report_<circuit>_seed<seed>.json (mix), formatted exactly like
// `afp_cli --report-json` output so a driver can bitwise-diff the two
// (modulo the timings line).
//
// --spawn forks/execs afpd on the given socket first, SIGTERMs it when the
// load is done, and propagates a non-zero daemon exit — so one invocation
// exercises startup, concurrent load, graceful drain and shutdown.
//
// --bench-json records throughput (jobs/s) and client-observed p50/p99
// submit->result latency at the configured concurrency.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/client.hpp"

namespace {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string socket_path;
  std::string spawn;
  int clients = 4;
  std::vector<std::uint64_t> seeds = {7, 8, 9};
  std::vector<std::string> circuits = {"ota_small"};
  std::string baseline = "sa";
  int iters = 60;
  std::string write_reports;
  std::string bench_json;
};

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afp_loadgen --socket PATH [--spawn AFPD] "
               "[--clients N] [--seeds a,b,c]\n"
               "                   [--circuit C] [--baseline B] [--iters N]\n"
               "                   [--write-reports DIR] [--bench-json F]\n");
  return rc;
}

struct JobOutcome {
  std::string circuit;
  std::uint64_t seed = 0;
  double latency_ms = 0.0;
  std::string status;
  std::string report;  ///< raw report bytes, sliced from the result frame
};

// "timings" is the report's one documented non-deterministic member (wall
// clocks); blank it before byte-comparing two runs of the same job.
std::string normalize_timings(std::string report) {
  const std::size_t at = report.find("\"timings\": {");
  if (at == std::string::npos) return report;
  const std::size_t open = report.find('{', at);
  const std::size_t close = report.find('}', open);
  if (close != std::string::npos) report.replace(open, close - open + 1, "{}");
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "afp_loadgen: %s expects a value\n", arg.c_str());
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--socket") {
      args.socket_path = value();
    } else if (arg == "--spawn") {
      args.spawn = value();
    } else if (arg == "--clients") {
      args.clients = std::atoi(value().c_str());
    } else if (arg == "--seeds") {
      args.seeds.clear();
      std::string list = value();
      for (std::size_t at = 0; at < list.size();) {
        const std::size_t comma = list.find(',', at);
        const std::string tok =
            list.substr(at, comma == std::string::npos ? comma : comma - at);
        args.seeds.push_back(std::strtoull(tok.c_str(), nullptr, 10));
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg == "--circuit") {
      args.circuits.clear();
      std::string list = value();
      for (std::size_t at = 0; at < list.size();) {
        const std::size_t comma = list.find(',', at);
        const std::string tok =
            list.substr(at, comma == std::string::npos ? comma : comma - at);
        if (!tok.empty()) args.circuits.push_back(tok);
        if (comma == std::string::npos) break;
        at = comma + 1;
      }
    } else if (arg == "--baseline") {
      args.baseline = value();
    } else if (arg == "--iters") {
      args.iters = std::atoi(value().c_str());
    } else if (arg == "--write-reports") {
      args.write_reports = value();
    } else if (arg == "--bench-json") {
      args.bench_json = value();
    } else {
      std::fprintf(stderr, "afp_loadgen: unknown option '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  if (args.socket_path.empty() || args.clients < 1 || args.seeds.empty() ||
      args.circuits.empty() || args.iters < 1) {
    return usage(2);
  }

  // Optionally own the daemon for the duration of the run.
  pid_t daemon_pid = -1;
  if (!args.spawn.empty()) {
    ::unlink(args.socket_path.c_str());
    daemon_pid = ::fork();
    if (daemon_pid < 0) {
      std::perror("afp_loadgen: fork");
      return 1;
    }
    if (daemon_pid == 0) {
      ::execl(args.spawn.c_str(), "afpd", "--socket",
              args.socket_path.c_str(), "--quiet", "--max-sessions", "64",
              "--session-quota", "64", static_cast<char*>(nullptr));
      std::perror("afp_loadgen: exec afpd");
      _exit(127);
    }
    // Wait for the listener (the daemon binds before serving).
    bool up = false;
    for (int tries = 0; tries < 200 && !up; ++tries) {
      try {
        afp::service::Client probe =
            afp::service::Client::connect_unix(args.socket_path);
        probe.ping();
        up = true;
      } catch (const std::exception&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    if (!up) {
      std::fprintf(stderr, "afp_loadgen: daemon did not come up\n");
      ::kill(daemon_pid, SIGKILL);
      return 1;
    }
  }

  const std::string config = "{\"optimizer\": \"" + args.baseline +
                             "\", \"search\": {\"iterations\": " +
                             std::to_string(args.iters) + "}}";
  std::vector<std::vector<JobOutcome>> per_client(
      static_cast<std::size_t>(args.clients));
  std::vector<std::string> failures;
  std::mutex fail_mu;

  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      // The circuit mix is assigned round-robin by client index, so a rerun
      // with the same flags reproduces the exact same job set.
      const std::string& circuit =
          args.circuits[static_cast<std::size_t>(c) % args.circuits.size()];
      try {
        afp::service::Client client =
            afp::service::Client::connect_unix(args.socket_path);
        for (const std::uint64_t seed : args.seeds) {
          JobOutcome out;
          out.circuit = circuit;
          out.seed = seed;
          const auto j0 = Clock::now();
          const auto acc = client.submit(circuit, seed, 0, config);
          const auto res = client.await_result(acc.job);
          out.latency_ms =
              std::chrono::duration<double, std::milli>(Clock::now() - j0)
                  .count();
          out.status = res.status;
          out.report = res.report_raw;
          if (res.status != "done") {
            std::lock_guard<std::mutex> lock(fail_mu);
            failures.push_back("client " + std::to_string(c) + " seed " +
                               std::to_string(seed) + ": status " +
                               res.status + " (" + res.error_kind + ": " +
                               res.error_message + ")");
          }
          per_client[static_cast<std::size_t>(c)].push_back(std::move(out));
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(fail_mu);
        failures.push_back("client " + std::to_string(c) + ": " + e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  const double wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();

  // Cross-client parity: for each (circuit, seed), every client's report
  // bytes must be identical (modulo the timings line) — a session must
  // never perturb another session's jobs.
  std::map<std::pair<std::string, std::uint64_t>, std::string> canonical;
  for (int c = 0; c < args.clients; ++c) {
    for (const auto& out : per_client[static_cast<std::size_t>(c)]) {
      if (out.status != "done") continue;
      auto [it, fresh] =
          canonical.emplace(std::make_pair(out.circuit, out.seed), out.report);
      if (!fresh &&
          normalize_timings(it->second) != normalize_timings(out.report)) {
        failures.push_back(out.circuit + " seed " + std::to_string(out.seed) +
                           ": client " + std::to_string(c) +
                           " received different report bytes");
      }
    }
  }

  if (!args.write_reports.empty()) {
    for (const auto& [key, report] : canonical) {
      // Single-circuit runs keep the legacy name the smoke driver diffs.
      const std::string path =
          args.write_reports + "/report_" +
          (args.circuits.size() > 1 ? key.first + "_seed" : "seed") +
          std::to_string(key.second) + ".json";
      std::ofstream os(path);
      os << report << "\n";  // afp_cli's write_file appends one newline too
      if (!os) failures.push_back("cannot write " + path);
    }
  }

  std::vector<double> latencies;
  std::size_t jobs = 0;
  for (const auto& outs : per_client) {
    for (const auto& out : outs) {
      latencies.push_back(out.latency_ms);
      ++jobs;
    }
  }
  std::sort(latencies.begin(), latencies.end());
  auto pct = [&](double p) {
    if (latencies.empty()) return 0.0;
    const auto at = static_cast<std::size_t>(
        p * static_cast<double>(latencies.size() - 1));
    return latencies[at];
  };
  const double jobs_per_s = wall_s > 0.0 ? static_cast<double>(jobs) / wall_s
                                         : 0.0;
  std::printf(
      "loadgen: %d clients x %zu jobs | %.2fs wall | %.1f jobs/s | "
      "p50 %.1f ms | p99 %.1f ms\n",
      args.clients, args.seeds.size(), wall_s, jobs_per_s, pct(0.5),
      pct(0.99));
  if (!args.bench_json.empty()) {
    std::string mix;
    for (const auto& c : args.circuits) {
      if (!mix.empty()) mix += ",";
      mix += c;
    }
    std::ofstream os(args.bench_json);
    os << "{\n"
       << "  \"bench\": \"service\",\n"
       << "  \"clients\": " << args.clients << ",\n"
       << "  \"jobs\": " << jobs << ",\n"
       << "  \"circuit\": \"" << mix << "\",\n"
       << "  \"baseline\": \"" << args.baseline << "\",\n"
       << "  \"iters\": " << args.iters << ",\n"
       << "  \"wall_s\": " << wall_s << ",\n"
       << "  \"jobs_per_s\": " << jobs_per_s << ",\n"
       << "  \"p50_ms\": " << pct(0.5) << ",\n"
       << "  \"p99_ms\": " << pct(0.99) << "\n"
       << "}\n";
  }

  // Graceful shutdown of an owned daemon: SIGTERM must drain and exit 0.
  if (daemon_pid > 0) {
    ::kill(daemon_pid, SIGTERM);
    int status = 0;
    ::waitpid(daemon_pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      failures.push_back(
          "daemon did not drain cleanly (status " + std::to_string(status) +
          ")");
    }
  }

  for (const auto& f : failures) {
    std::fprintf(stderr, "afp_loadgen: FAIL: %s\n", f.c_str());
  }
  return failures.empty() ? 0 : 1;
}
