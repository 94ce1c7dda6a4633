// afpd — the floorplanning daemon: serves the afp pipeline over a
// Unix-domain socket (or loopback TCP) speaking the length-prefixed JSON
// protocol in src/service/protocol.hpp.
//
//   afpd --socket /tmp/afpd.sock [options]
//   afpd --port 0                [options]   (loopback TCP; 0 = pick free)
//
// options:
//   --max-sessions N   concurrent client sessions     (env AFPD_MAX_SESSIONS)
//   --max-inflight N   jobs running at once           (env AFPD_MAX_INFLIGHT)
//   --session-quota N  outstanding jobs per session   (env AFPD_SESSION_QUOTA)
//   --max-parked N     total wait-queue capacity      (env AFPD_MAX_PARKED)
//   --strike-limit N   malformed requests before ejection, 0 = off
//                                                     (env AFPD_STRIKE_LIMIT)
//   --write-deadline S stalled-writer disconnect, 0 = off
//                                                     (env AFPD_WRITE_DEADLINE)
//   --idle-timeout S   idle/half-open session reap, 0 = off; keepalive probe
//                      at S/2                         (env AFPD_IDLE_TIMEOUT)
//   --queue-frames N   outbound queue bound per session (progress frames
//                      beyond it are dropped+counted) (env AFPD_QUEUE_FRAMES)
//   --journal PATH     crash-recovery journal          (env AFPD_JOURNAL)
//   --base-seed N      seed base for seed-less submits (default 1)
//   --drain-grace S    drain: finish window before cancelling (default 5)
//   --threads N        numeric thread-pool size, and how many jobs run at
//                      once (one per JobService worker)
//   --quiet            suppress per-event stderr lines
//
// A malformed AFPD_* value (non-numeric, out of range) is a configuration
// error: afpd exits 2 with a usage message naming the variable — silently
// running with a default the operator did not ask for hides typos until
// the daemon misbehaves under load.
//
// SIGTERM/SIGINT trigger a graceful drain: new sessions and submits are
// rejected, in-flight and queued jobs finish (or are cancelled after the
// grace window), every accepted job still gets its terminal result frame,
// then the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "numeric/parallel.hpp"
#include "service/server.hpp"

namespace {

afp::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afpd (--socket PATH | --port N) [--max-sessions N] "
               "[--max-inflight N]\n"
               "            [--session-quota N] [--max-parked N] "
               "[--strike-limit N]\n"
               "            [--write-deadline S] [--idle-timeout S] "
               "[--queue-frames N]\n"
               "            [--journal PATH] [--base-seed N] "
               "[--drain-grace S] [--threads N]\n"
               "            [--quiet]\n"
               "--threads N sizes the thread pool and runs up to N jobs at "
               "once.\n");
  return rc;
}

/// Strict env integer in [lo, hi]: a malformed or out-of-range value exits
/// 2 with a usage line naming the variable (never a silent default).
int env_int(const char* name, int dflt, long lo, long hi) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const long x = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || x < lo || x > hi) {
    std::fprintf(stderr,
                 "afpd: %s='%s' is not an integer in [%ld, %ld]\n", name, v,
                 lo, hi);
    std::exit(usage(2));
  }
  return static_cast<int>(x);
}

/// Strict env seconds in [0, 1e9]; same exit-2 contract as env_int.
double env_seconds(const char* name, double dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  char* end = nullptr;
  const double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !(x >= 0.0) || x > 1e9) {
    std::fprintf(stderr, "afpd: %s='%s' is not a number in [0, 1e9]\n", name,
                 v);
    std::exit(usage(2));
  }
  return x;
}

}  // namespace

int main(int argc, char** argv) {
  // Client disconnects must surface as EPIPE on the write path (handled,
  // session torn down), never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  afp::service::ServerConfig cfg;
  cfg.log = true;
  cfg.admission.max_sessions = env_int("AFPD_MAX_SESSIONS", 16, 1, 1 << 20);
  cfg.admission.max_inflight = env_int("AFPD_MAX_INFLIGHT", 2, 1, 1 << 20);
  cfg.admission.per_session = env_int("AFPD_SESSION_QUOTA", 8, 1, 1 << 20);
  cfg.admission.max_parked = env_int("AFPD_MAX_PARKED", 256, 1, 1 << 20);
  cfg.admission.strike_limit = env_int("AFPD_STRIKE_LIMIT", 16, 0, 1 << 20);
  cfg.write_deadline_s = env_seconds("AFPD_WRITE_DEADLINE", 10.0);
  cfg.idle_timeout_s = env_seconds("AFPD_IDLE_TIMEOUT", 300.0);
  cfg.queue_frames = static_cast<std::size_t>(
      env_int("AFPD_QUEUE_FRAMES", 256, 1, 1 << 20));
  if (const char* j = std::getenv("AFPD_JOURNAL")) cfg.journal_path = j;
  int threads = 0;

  auto int_arg = [&](int& i, const char* what) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "afpd: %s expects a value\n", what);
      std::exit(usage(2));
    }
    char* end = nullptr;
    const long x = std::strtol(argv[++i], &end, 10);
    if (end == argv[i] || *end != '\0') {
      std::fprintf(stderr, "afpd: %s expects an integer, got '%s'\n", what,
                   argv[i]);
      std::exit(usage(2));
    }
    return x;
  };
  auto seconds_arg = [&](int& i, const char* what) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "afpd: %s expects a value\n", what);
      std::exit(usage(2));
    }
    char* end = nullptr;
    const double x = std::strtod(argv[++i], &end);
    if (end == argv[i] || *end != '\0' || !(x >= 0.0) || x > 1e9) {
      std::fprintf(stderr, "afpd: %s expects seconds in [0, 1e9], got '%s'\n",
                   what, argv[i]);
      std::exit(usage(2));
    }
    return x;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--socket") {
      if (i + 1 >= argc) return usage(2);
      cfg.unix_path = argv[++i];
    } else if (arg == "--port") {
      cfg.tcp_port = static_cast<int>(int_arg(i, "--port"));
    } else if (arg == "--max-sessions") {
      cfg.admission.max_sessions = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--max-inflight") {
      cfg.admission.max_inflight = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--session-quota") {
      cfg.admission.per_session = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--max-parked") {
      cfg.admission.max_parked = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--strike-limit") {
      cfg.admission.strike_limit = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--write-deadline") {
      cfg.write_deadline_s = seconds_arg(i, arg.c_str());
    } else if (arg == "--idle-timeout") {
      cfg.idle_timeout_s = seconds_arg(i, arg.c_str());
    } else if (arg == "--queue-frames") {
      const long q = int_arg(i, arg.c_str());
      if (q < 1) {
        std::fprintf(stderr, "afpd: --queue-frames must be >= 1\n");
        return usage(2);
      }
      cfg.queue_frames = static_cast<std::size_t>(q);
    } else if (arg == "--journal") {
      if (i + 1 >= argc) return usage(2);
      cfg.journal_path = argv[++i];
    } else if (arg == "--base-seed") {
      cfg.base_seed = static_cast<std::uint64_t>(int_arg(i, arg.c_str()));
    } else if (arg == "--drain-grace") {
      if (i + 1 >= argc) return usage(2);
      cfg.drain_grace_s = std::atof(argv[++i]);
    } else if (arg == "--threads") {
      threads = static_cast<int>(int_arg(i, arg.c_str()));
    } else if (arg == "--quiet") {
      cfg.log = false;
    } else {
      std::fprintf(stderr, "afpd: unknown option '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  if (cfg.unix_path.empty() && cfg.tcp_port < 0) return usage(2);
  if (cfg.admission.max_sessions < 1 || cfg.admission.max_inflight < 1 ||
      cfg.admission.per_session < 1 || cfg.admission.max_parked < 1) {
    std::fprintf(stderr, "afpd: admission limits must be >= 1\n");
    return usage(2);
  }
  if (cfg.admission.strike_limit < 0) {
    std::fprintf(stderr, "afpd: --strike-limit must be >= 0\n");
    return usage(2);
  }
  if (threads > 0) afp::num::set_num_threads(threads);

  try {
    afp::service::Server server(std::move(cfg));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    for (const auto& orphan : server.orphans()) {
      std::fprintf(stderr,
                   "afpd: orphaned job %llu ('%s') recovered from journal\n",
                   static_cast<unsigned long long>(orphan.job),
                   orphan.name.c_str());
    }
    // One parseable ready line on stdout, for launchers that wait for it.
    if (server.port() > 0) {
      std::printf("afpd: ready port=%d\n", server.port());
    } else {
      std::printf("afpd: ready\n");
    }
    std::fflush(stdout);
    server.serve();
    g_server = nullptr;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "afpd: fatal: %s\n", e.what());
    return 1;
  }
  return 0;
}
