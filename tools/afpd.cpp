// afpd — the floorplanning daemon: serves the afp pipeline over a
// Unix-domain socket (or loopback TCP) speaking the length-prefixed JSON
// protocol in src/service/protocol.hpp.
//
//   afpd --socket /tmp/afpd.sock [options]
//   afpd --port N                [options]   (loopback TCP; 0 = pick free)
//
// options (flags only; defaults in parentheses):
//   --threads N        run slots (jobs running at once, one per JobService
//                      worker) and numeric pool size (AFP_NUM_THREADS or
//                      hardware)
//   --max-sessions N   concurrent client sessions (16)
//   --session-quota N  outstanding jobs per session (8)
//   --strike-limit N   malformed requests before ejection, 0 = off (16)
//   --write-deadline S stalled-writer disconnect, 0 = off (10)
//   --idle-timeout S   idle/half-open session reap, 0 = off; keepalive
//                      probe at S/2 (300)
//   --queue-frames N   outbound queue bound per session; progress frames
//                      beyond it are dropped+counted (256)
//   --journal PATH     crash-recovery journal (off)
//   --base-seed N      seed base for seed-less submits (1)
//   --drain-grace S    drain: finish window before cancelling (5)
//   --quiet            suppress per-event stderr lines
//
// A malformed or out-of-range value (--port outside 0..65535, --threads
// below 1) exits 2 with the usage text instead of starting the daemon.
//
// SIGTERM/SIGINT trigger a graceful drain: new sessions and submits are
// rejected, in-flight and queued jobs finish (or are cancelled after the
// grace window), every accepted job still gets its terminal result frame,
// then the process exits 0.
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "metaheur/optimizer.hpp"
#include "numeric/parallel.hpp"
#include "service/server.hpp"

namespace {

afp::service::Server* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

int usage(int rc) {
  std::fprintf(rc == 0 ? stdout : stderr,
               "usage: afpd (--socket PATH | --port N) [--threads N] "
               "[--max-sessions N]\n"
               "            [--session-quota N] [--strike-limit N] "
               "[--write-deadline S]\n"
               "            [--idle-timeout S] [--queue-frames N] "
               "[--journal PATH]\n"
               "            [--base-seed N] [--drain-grace S] [--quiet]\n"
               "--threads N runs up to N jobs at once; later submits park.\n");
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // Client disconnects must surface as EPIPE on the write path (handled,
  // session torn down), never as a process-killing SIGPIPE.
  std::signal(SIGPIPE, SIG_IGN);

  afp::service::ServerConfig cfg;
  cfg.log = true;
  int threads = 0;

  auto value = [&](int& i, const char* what) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "afpd: %s expects a value\n", what);
      std::exit(usage(2));
    }
    return argv[++i];
  };
  // Range-checked before the narrowing cast, so no value wraps.
  auto int_arg = [&](int& i, const char* what, int lo, int hi = INT_MAX) {
    const std::string v = value(i, what);
    long long x = 0;
    if (!afp::metaheur::parse_strict_int(v, &x) || x < lo || x > hi) {
      std::fprintf(stderr, "afpd: %s expects an integer in [%d, %d], got "
                   "'%s'\n", what, lo, hi, v.c_str());
      std::exit(usage(2));
    }
    return static_cast<int>(x);
  };
  auto seconds_arg = [&](int& i, const char* what) {
    const std::string v = value(i, what);
    char* end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0' || !(x >= 0.0) || x > 1e9) {
      std::fprintf(stderr, "afpd: %s expects seconds in [0, 1e9], got '%s'\n",
                   what, v.c_str());
      std::exit(usage(2));
    }
    return x;
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* what = argv[i];
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--socket") {
      cfg.unix_path = value(i, what);
    } else if (arg == "--port") {
      cfg.tcp_port = int_arg(i, what, 0, 65535);
    } else if (arg == "--threads") {
      threads = int_arg(i, what, 1);
    } else if (arg == "--max-sessions") {
      cfg.admission.max_sessions = int_arg(i, what, 1);
    } else if (arg == "--session-quota") {
      cfg.admission.per_session = int_arg(i, what, 1);
    } else if (arg == "--strike-limit") {
      cfg.admission.strike_limit = int_arg(i, what, 0);
    } else if (arg == "--write-deadline") {
      cfg.write_deadline_s = seconds_arg(i, what);
    } else if (arg == "--idle-timeout") {
      cfg.idle_timeout_s = seconds_arg(i, what);
    } else if (arg == "--queue-frames") {
      cfg.queue_frames = static_cast<std::size_t>(int_arg(i, what, 1));
    } else if (arg == "--journal") {
      cfg.journal_path = value(i, what);
    } else if (arg == "--base-seed") {
      if (!afp::metaheur::parse_strict_uint(value(i, what), &cfg.base_seed)) {
        std::fprintf(stderr, "afpd: --base-seed expects an unsigned integer, "
                     "got '%s'\n", argv[i]);
        return usage(2);
      }
    } else if (arg == "--drain-grace") {
      cfg.drain_grace_s = seconds_arg(i, what);
    } else if (arg == "--quiet") {
      cfg.log = false;
    } else {
      std::fprintf(stderr, "afpd: unknown option '%s'\n", arg.c_str());
      return usage(2);
    }
  }
  if (cfg.unix_path.empty() && cfg.tcp_port < 0) return usage(2);

  try {
    // Before the Server: its admission takes one run slot per pool thread.
    if (threads > 0) afp::num::set_num_threads(threads);
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
