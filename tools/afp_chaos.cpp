// afp_chaos — deterministic misbehaving-client harness for afpd.
//
//   afp_chaos --socket PATH [--spawn path/to/afpd] [--seed N]
//             [--good N] [--chaos N] [--iters N] [--write-reports DIR]
//   afp_chaos --socket PATH --spawn path/to/afpd --kill-test
//
// The default mode runs two populations against one daemon at once:
//
//   * `--good N` well-behaved sessions submitting real jobs and awaiting
//     every result.  Their report bytes must stay BITWISE IDENTICAL to an
//     in-process JobService::run_job of the same spec (modulo the timings
//     line) — chaos on neighbouring sessions must not perturb them — and
//     every submitted job must get its terminal result frame (results are
//     never droppable).
//   * `--chaos N` adversarial sessions, one seeded actor each (SplitMix64
//     over --seed ^ actor index, so a rerun replays the same abuse):
//     malformed-request floods, raw junk bytes, mid-frame stalls,
//     half-open sockets that never answer keepalives, slow readers, and
//     random disconnects with jobs in flight.  These sessions are allowed
//     (expected!) to be ejected; the harness only asserts the daemon
//     survives them.
//
// With --spawn the daemon is started with aggressive resilience knobs
// (short idle timeout and write deadline, small queue bound, low strike
// limit) so every defence actually fires during the run, and is SIGTERMed
// afterwards — a non-zero daemon exit (unclean drain) fails the harness.
//
// --kill-test exercises crash recovery instead: submit long jobs, SIGKILL
// the daemon mid-run, restart it on the same journal, and require every
// orphaned job to come back from the `orphans` request as a structured
// `internal` error.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
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

#include "core/job_service.hpp"
#include "core/report.hpp"
#include "netlist/library.hpp"
#include "service/client.hpp"
#include "service/json.hpp"

namespace {

using afp::service::Client;
using afp::service::JsonValue;

struct Args {
  std::string socket_path;
  std::string spawn;
  std::uint64_t seed = 1;
  int good = 3;
  int chaos = 6;
  int iters = 60;
  std::string write_reports;
  bool kill_test = false;
};

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afp_chaos --socket PATH [--spawn AFPD] [--seed N]\n"
               "                 [--good N] [--chaos N] [--iters N]\n"
               "                 [--write-reports DIR] [--kill-test]\n");
  return rc;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// "timings" and "tt_cache" are the report's non-deterministic members.
std::string normalize_timings(std::string report) {
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

std::string config_json(int iterations) {
  return "{\"optimizer\": \"sa\", \"search\": {\"iterations\": " +
         std::to_string(iterations) + "}}";
}

// The bytes a served result's "report" member must match: the exact same
// pipeline run in-process (what `afp_cli --report-json` emits too).
std::string reference_report(const std::string& circuit, int iterations,
                             std::uint64_t seed) {
  afp::core::JobSpec spec;
  spec.name = circuit;
  for (const auto& e : afp::netlist::circuit_registry()) {
    if (e.name == circuit) spec.netlist = e.make();
  }
  spec.config.search.budget.iterations = iterations;
  const afp::core::JobReport rep =
      afp::core::JobService::run_job(spec, 0, seed, nullptr, {});
  return afp::core::report_json(rep.result, rep.name, rep.optimizer,
                                rep.options, rep.search, rep.seed);
}

std::vector<std::string> g_failures;
std::mutex g_mu;

void fail(const std::string& what) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_failures.push_back(what);
}

void sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// ----------------------------------------------------------- chaos actors ---
// Every actor is expected to misbehave and be punished; exceptions (EOF,
// ECONNRESET, ejection) are the success path, so they are swallowed.  The
// daemon's health is asserted elsewhere, by the good population and the
// final control probe.

void actor_malformed_flood(const std::string& sock, std::uint64_t rng) {
  static const char* kPayloads[] = {
      "{\"type\": \"teleport\"}",
      "{\"type\": \"submit\"}",
      "{\"type\": \"cancel\"}",
      "[\"not\", \"an\", \"object\"]",
      "{\"type\": \"submit\", \"circuit\": \"no_such_circuit\"}",
  };
  try {
    Client c = Client::connect_unix(sock);
    const int n = 8 + static_cast<int>(splitmix64(rng) % 24);
    for (int i = 0; i < n; ++i) {
      c.send_frame(kPayloads[splitmix64(rng) % 5]);
    }
    for (int i = 0; i < 2 * n; ++i) (void)c.read_frame();  // until EOF throws
  } catch (const std::exception&) {
  }
}

void actor_junk_bytes(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    std::string junk = "GET /chaos HTTP/1.1\r\n\r\n";
    junk.resize(8 + splitmix64(rng) % junk.size());
    c.send_raw(junk);
    for (int i = 0; i < 4; ++i) (void)c.read_frame();
  } catch (const std::exception&) {
  }
}

void actor_midframe_stall(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // A frame claiming 4 KiB, a dribble of bytes, a stall, then either a
    // half-close or a hard drop — never the rest of the frame.
    std::string prefix(4, '\0');
    prefix[2] = '\x10';
    c.send_raw(prefix);
    c.send_raw(std::string(1 + splitmix64(rng) % 32, '{'));
    sleep_ms(50 + splitmix64(rng) % 250);
    if (splitmix64(rng) % 2 == 0) {
      c.shutdown_write();
      for (int i = 0; i < 4; ++i) (void)c.read_frame();
    }
  } catch (const std::exception&) {
  }
}

void actor_half_open(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // Say nothing, answer nothing: the server's keepalive probe goes
    // unacknowledged and the idle reap must disconnect us.
    sleep_ms(1200 + splitmix64(rng) % 600);
    for (int i = 0; i < 4; ++i) (void)c.read_frame();  // keepalive, error, EOF
  } catch (const std::exception&) {
  }
}

// Slow but compliant: stops reading for a while (under the write deadline),
// then catches up.  Progress frames may drop; its RESULTS must all arrive.
void actor_slow_reader(const std::string& sock, std::uint64_t rng, int iters,
                       std::atomic<int>* results_seen) {
  try {
    Client c = Client::connect_unix(sock);
    const auto a = c.submit("ota_small", 1 + splitmix64(rng) % 1000, 0,
                            config_json(iters));
    const auto b = c.submit("ota_small", 1 + splitmix64(rng) % 1000, 0,
                            config_json(iters));
    sleep_ms(300 + splitmix64(rng) % 500);  // stall well under the deadline
    (void)c.await_result(a.job);
    results_seen->fetch_add(1);
    (void)c.await_result(b.job);
    results_seen->fetch_add(1);
  } catch (const std::exception& e) {
    fail(std::string("slow reader lost a result: ") + e.what());
  }
}

void actor_random_disconnect(const std::string& sock, std::uint64_t rng) {
  try {
    Client c = Client::connect_unix(sock);
    // A job that would run for minutes, then vanish without reading a
    // single frame: the disconnect must cancel it server-side.
    c.send_frame("{\"type\": \"submit\", \"circuit\": \"ota_small\", "
                 "\"seed\": " + std::to_string(1 + splitmix64(rng) % 1000) +
                 ", \"config\": " + config_json(1 << 28) + "}");
    sleep_ms(splitmix64(rng) % 200);
  } catch (const std::exception&) {
  }
}

// ---------------------------------------------------------------- spawning ---

pid_t spawn_afpd(const std::string& afpd, const std::string& sock,
                 const std::string& journal) {
  ::unlink(sock.c_str());
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("afp_chaos: fork");
    std::exit(1);
  }
  if (pid == 0) {
    // Aggressive knobs so every resilience path actually fires under the
    // ~2 s of chaos: 1 s idle reap (0.5 s keepalive probe), 2 s write
    // deadline, a small queue bound, a low strike limit.
    if (journal.empty()) {
      ::execl(afpd.c_str(), "afpd", "--socket", sock.c_str(), "--quiet",
              "--max-sessions", "64", "--session-quota", "64",
              "--idle-timeout", "1", "--write-deadline", "2",
              "--queue-frames", "16", "--strike-limit", "8",
              static_cast<char*>(nullptr));
    } else {
      ::execl(afpd.c_str(), "afpd", "--socket", sock.c_str(), "--quiet",
              "--max-sessions", "64", "--session-quota", "64",
              "--idle-timeout", "1", "--write-deadline", "2",
              "--queue-frames", "16", "--strike-limit", "8", "--journal",
              journal.c_str(), static_cast<char*>(nullptr));
    }
    std::perror("afp_chaos: exec afpd");
    _exit(127);
  }
  for (int tries = 0; tries < 200; ++tries) {
    try {
      Client probe = Client::connect_unix(sock);
      probe.ping();
      return pid;
    } catch (const std::exception&) {
      sleep_ms(50);
    }
  }
  std::fprintf(stderr, "afp_chaos: daemon did not come up\n");
  ::kill(pid, SIGKILL);
  std::exit(1);
}

int reap_daemon(pid_t pid, int sig) {
  ::kill(pid, sig);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// ---------------------------------------------------------------- kill test ---

int run_kill_test(const Args& args) {
  const std::string journal = args.socket_path + ".journal";
  ::unlink(journal.c_str());
  pid_t pid = spawn_afpd(args.spawn, args.socket_path, journal);
  std::vector<std::uint64_t> jobs;
  {
    Client client = Client::connect_unix(args.socket_path);
    for (int i = 0; i < 2; ++i) {
      const auto acc =
          client.submit("ota_small", 100 + static_cast<std::uint64_t>(i), 0,
                        config_json(1 << 28));
      jobs.push_back(acc.job);
    }
  }
  // The crash: no drain, no journal cleanup, jobs still running.
  (void)reap_daemon(pid, SIGKILL);

  pid = spawn_afpd(args.spawn, args.socket_path, journal);
  int rc = 0;
  try {
    Client client = Client::connect_unix(args.socket_path);
    const JsonValue orph = client.orphans();
    const auto& arr = orph.at("jobs").as_array();
    if (orph.at("count").as_uint("count") != jobs.size() ||
        arr.size() != jobs.size()) {
      std::fprintf(stderr, "afp_chaos: FAIL: expected %zu orphans, got %zu\n",
                   jobs.size(), arr.size());
      rc = 1;
    }
    for (const std::uint64_t job : jobs) {
      bool found = false;
      for (const auto& j : arr) {
        if (j.at("job").as_uint("job") == job &&
            j.at("error").at("kind").as_string() == "internal") {
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr,
                     "afp_chaos: FAIL: job %llu missing from orphans\n",
                     static_cast<unsigned long long>(job));
        rc = 1;
      }
    }
    // The restarted daemon still serves jobs, and the replayed journal was
    // reset — a finished job leaves no live entries behind.
    const auto acc = client.submit("ota_small", 9, 0, config_json(40));
    if (client.await_result(acc.job).status != "done") {
      std::fprintf(stderr, "afp_chaos: FAIL: post-restart job failed\n");
      rc = 1;
    }
    // The journal entry is removed just AFTER the result frame is queued;
    // give the job's worker a moment before requiring an empty journal.
    bool journal_empty = false;
    for (int tries = 0; tries < 100 && !journal_empty; ++tries) {
      const JsonValue st = client.stats();
      journal_empty = st.at("journal_live").as_uint("journal_live") == 0;
      if (!journal_empty) sleep_ms(10);
    }
    if (!journal_empty) {
      std::fprintf(stderr, "afp_chaos: FAIL: journal_live != 0 after run\n");
      rc = 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afp_chaos: FAIL: kill test: %s\n", e.what());
    rc = 1;
  }
  const int status = reap_daemon(pid, SIGTERM);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "afp_chaos: FAIL: restarted daemon unclean drain\n");
    rc = 1;
  }
  if (rc == 0) {
    std::printf("afp_chaos: kill test PASS: %zu orphaned jobs surfaced as "
                "structured internal errors after restart\n",
                jobs.size());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "afp_chaos: %s expects a value\n", arg.c_str());
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--socket") {
      args.socket_path = value();
    } else if (arg == "--spawn") {
      args.spawn = value();
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--good") {
      args.good = std::atoi(value().c_str());
    } else if (arg == "--chaos") {
      args.chaos = std::atoi(value().c_str());
    } else if (arg == "--iters") {
      args.iters = std::atoi(value().c_str());
    } else if (arg == "--write-reports") {
      args.write_reports = value();
    } else if (arg == "--kill-test") {
      args.kill_test = true;
    } else {
      std::fprintf(stderr, "afp_chaos: unknown option '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  if (args.socket_path.empty() || args.good < 1 || args.chaos < 0 ||
      args.iters < 1) {
    return usage(2);
  }
  if (args.kill_test) {
    if (args.spawn.empty()) {
      std::fprintf(stderr, "afp_chaos: --kill-test requires --spawn\n");
      return usage(2);
    }
    return run_kill_test(args);
  }

  pid_t daemon_pid = -1;
  if (!args.spawn.empty()) {
    daemon_pid = spawn_afpd(args.spawn, args.socket_path, "");
  }

  // Reference bytes, computed in-process before any chaos starts.
  const std::vector<std::uint64_t> seeds = {7, 8};
  std::map<std::uint64_t, std::string> reference;
  for (const std::uint64_t seed : seeds) {
    reference[seed] = reference_report("ota_small", args.iters, seed);
  }

  std::atomic<int> slow_results{0};
  std::atomic<int> good_results{0};
  std::map<std::uint64_t, std::string> served;  // canonical bytes per seed
  std::mutex served_mu;
  std::vector<std::thread> threads;

  // The good population: every job must finish and match the reference.
  for (int c = 0; c < args.good; ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client = Client::connect_unix(args.socket_path);
        for (const std::uint64_t seed : seeds) {
          const auto acc =
              client.submit("ota_small", seed, 0, config_json(args.iters));
          const auto res = client.await_result(acc.job);
          if (res.status != "done") {
            fail("good client " + std::to_string(c) + " seed " +
                 std::to_string(seed) + ": status " + res.status);
            continue;
          }
          good_results.fetch_add(1);
          {
            std::lock_guard<std::mutex> lock(served_mu);
            served.emplace(seed, res.report_raw);
          }
          if (normalize_timings(res.report_raw) !=
              normalize_timings(reference.at(seed))) {
            fail("good client " + std::to_string(c) + " seed " +
                 std::to_string(seed) +
                 ": served bytes differ from the in-process reference");
          }
        }
      } catch (const std::exception& e) {
        fail("good client " + std::to_string(c) + ": " + e.what());
      }
    });
  }

  // The chaos population: actor kind and behaviour derive only from
  // (--seed, actor index), so a failing run replays exactly.
  int slow_readers = 0;
  for (int a = 0; a < args.chaos; ++a) {
    const std::uint64_t rng = args.seed ^ (0x517cc1b727220a95ULL *
                                           static_cast<std::uint64_t>(a + 1));
    switch (a % 6) {
      case 0:
        threads.emplace_back(actor_malformed_flood, args.socket_path, rng);
        break;
      case 1:
        threads.emplace_back(actor_junk_bytes, args.socket_path, rng);
        break;
      case 2:
        threads.emplace_back(actor_midframe_stall, args.socket_path, rng);
        break;
      case 3:
        threads.emplace_back(actor_half_open, args.socket_path, rng);
        break;
      case 4:
        ++slow_readers;
        threads.emplace_back(actor_slow_reader, args.socket_path, rng,
                             args.iters, &slow_results);
        break;
      default:
        threads.emplace_back(actor_random_disconnect, args.socket_path, rng);
        break;
    }
  }
  for (auto& t : threads) t.join();

  if (good_results.load() !=
      args.good * static_cast<int>(seeds.size())) {
    fail("dropped result frames: good population received " +
         std::to_string(good_results.load()) + "/" +
         std::to_string(args.good * seeds.size()));
  }
  if (slow_results.load() != 2 * slow_readers) {
    fail("dropped result frames: slow readers received " +
         std::to_string(slow_results.load()) + "/" +
         std::to_string(2 * slow_readers));
  }

  // Control probe: the daemon must still be serving, and its counters are
  // printed so a soak log shows which defences fired.
  std::string stats_line = "(unavailable)";
  try {
    Client control = Client::connect_unix(args.socket_path);
    const JsonValue st = control.stats();
    stats_line = "dropped_progress=" +
                 std::to_string(st.at("dropped_progress")
                                    .as_uint("dropped_progress")) +
                 " write_timeouts=" +
                 std::to_string(st.at("write_timeouts")
                                    .as_uint("write_timeouts")) +
                 " idle_timeouts=" +
                 std::to_string(st.at("idle_timeouts")
                                    .as_uint("idle_timeouts")) +
                 " keepalives=" +
                 std::to_string(st.at("keepalives_sent")
                                    .as_uint("keepalives_sent")) +
                 " strikes=" + std::to_string(st.at("strikes")
                                                  .as_uint("strikes")) +
                 " ejections=" +
                 std::to_string(st.at("strike_ejections")
                                    .as_uint("strike_ejections"));
    if (control.ping()) fail("daemon reports draining during the run");
  } catch (const std::exception& e) {
    fail(std::string("daemon unreachable after chaos: ") + e.what());
  }

  if (!args.write_reports.empty()) {
    // The SERVED bytes (one canonical copy per seed), for the driver's
    // bitwise diff against `afp_cli --report-json`.
    for (const std::uint64_t seed : seeds) {
      const auto it = served.find(seed);
      if (it == served.end()) {
        fail("no served report for seed " + std::to_string(seed));
        continue;
      }
      const std::string path = args.write_reports + "/report_seed" +
                               std::to_string(seed) + ".json";
      std::ofstream os(path);
      os << it->second << "\n";
      if (!os) fail("cannot write " + path);
    }
  }

  if (daemon_pid > 0) {
    const int status = reap_daemon(daemon_pid, SIGTERM);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      fail("daemon did not drain cleanly (status " + std::to_string(status) +
           ")");
    }
  }

  for (const auto& f : g_failures) {
    std::fprintf(stderr, "afp_chaos: FAIL: %s\n", f.c_str());
  }
  if (g_failures.empty()) {
    std::printf("afp_chaos: PASS: %d good sessions bitwise-clean through %d "
                "chaos actors | %s\n",
                args.good, args.chaos, stats_line.c_str());
  }
  return g_failures.empty() ? 0 : 1;
}
