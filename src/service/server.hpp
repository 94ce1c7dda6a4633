// afpd server: a Unix-socket / loopback-TCP listener speaking the
// length-prefixed JSON protocol (service/protocol.hpp), one session per
// client on top of the shared core::JobService.
//
// Thread model:
//
//   * serve()           — the accept loop (caller's thread); poll()s the
//                         listen socket and a self-pipe so request_drain()
//                         (async-signal-safe) can interrupt it,
//   * one reader thread per session — recv -> FrameReader -> requests;
//                         replies and async events are *enqueued* on the
//                         session's bounded outbound queue under its write
//                         mutex (frames never interleave) and flushed with
//                         non-blocking sends,
//   * one pump thread    — poll()s POLLOUT for sessions with queued output
//                         and runs the resilience timers: the write
//                         deadline (a client that stalls the writer past
//                         cfg.write_deadline_s is disconnected, its jobs
//                         cancelled), the keepalive probe (at half the idle
//                         timeout) and the idle/half-open reap,
//   * JobService workers — one per admission run slot (num::num_threads,
//                         afpd's --threads); the progress callback routes
//                         events to the owning session, and on a job's
//                         terminal event the worker that ran it runs the
//                         hand-off (finish): result frame, slot release,
//                         parked launches.
//
// Backpressure: a session's outbound queue is bounded
// (cfg.queue_frames/queue_bytes).  Progress frames are droppable — at the
// bound they are counted, not queued, and the count is echoed to the client
// as a "dropped_progress" member on the next progress frame that does fit.
// Result/error/ack frames are NEVER dropped: they are queued past the bound
// and the write deadline is the backstop against a client that won't read
// them.  A slow reader therefore loses only progress granularity; a stalled
// one loses its session (and its jobs), never the server.
//
// Crash recovery: with cfg.journal_path set, every accepted job is recorded
// in an atomically-rewritten journal until its terminal frame is queued.  A
// daemon killed mid-job leaves the entries behind; the restarted daemon
// loads them (take_orphans), logs each, serves them via the `orphans`
// request as structured internal errors, and counts them in `stats`.
//
// Job lifecycle: submit -> admission verdict (run / parked / rejected) ->
// JobService::submit under the afpd job id (immediately or when a slot
// frees) -> progress frames -> terminal progress frame, then the `result`
// frame.  Job ids count from 0, and a seed-less job runs under
// job_seed(base_seed, id).  Cancels map onto the job's CancelToken; client
// `deadline` requests arm the token mid-run (the watchdog path).
//
// Drain (SIGTERM or request_drain()): stop accepting sessions, reject new
// submits ("draining"), let in-flight and parked jobs finish for
// drain_grace_s, then cancel whatever is left via the service-wide token;
// every accepted job still gets its terminal `result` frame before the
// sockets close.
//
// Determinism: a job submitted with an explicit seed is executed by the
// same JobService::run_job path as `afp_cli floorplan --seed N` and its
// nested report is emitted by the same core/report code — byte-identical
// output, which afp_loadgen and the smoke tests verify.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/job_service.hpp"
#include "service/admission.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"

namespace afp::service {

struct ServerConfig {
  /// Unix-domain socket path (primary listener; "" disables).
  std::string unix_path;
  /// Loopback TCP port (used when unix_path is empty; 0 picks a free port).
  int tcp_port = -1;
  AdmissionConfig admission{};
  std::uint64_t base_seed = 1;    ///< derives seeds for seed-less submits
  double drain_grace_s = 5.0;     ///< drain: finish window before cancelling
  bool log = false;               ///< one stderr line per lifecycle event
  /// A session whose outbound queue makes no forward progress for this long
  /// is disconnected and its jobs cancelled (<= 0 disables — a stalled
  /// client can then wedge only its own session's memory, bounded by
  /// queue_frames, never a server thread).
  double write_deadline_s = 10.0;
  /// A session with no inbound traffic for this long is reaped as idle /
  /// half-open (<= 0 disables).  A keepalive probe goes out at half this; a
  /// live-but-quiet client answers it (the Client class does so
  /// automatically) and is never reaped.
  double idle_timeout_s = 300.0;
  /// Outbound queue bounds per session.  Progress frames beyond either
  /// bound are dropped and counted; result/error frames always queue.
  std::size_t queue_frames = 256;
  std::size_t queue_bytes = 1u << 20;
  /// Crash-recovery journal path ("" disables).
  std::string journal_path;
};

class Server {
 public:
  /// Admission gets num::num_threads() run slots, the count start()'s
  /// JobService sizes its workers by: set the pool size first.
  explicit Server(ServerConfig cfg);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens (clients may connect as soon as this returns) and
  /// starts the worker threads.  Throws std::runtime_error on bind failure.
  void start();

  /// Accept loop; returns after a requested drain has fully completed
  /// (all jobs terminal, results flushed, sessions closed).
  void serve();

  /// Async-signal-safe: one write() to a self-pipe.  The accept loop picks
  /// it up and runs the drain.  Safe to call more than once.
  void request_drain();

  bool draining() const { return draining_.load(); }
  /// Bound TCP port (after start(); 0 for a unix-socket server).
  int port() const { return bound_port_; }

  /// Snapshot of the resilience counters (what the `stats` request serves).
  ServerStats stats_snapshot();

  /// Jobs a crashed predecessor accepted but never finished (loaded from
  /// the journal at start(); immutable afterwards).
  const std::vector<JournalEntry>& orphans() const { return orphans_; }

  /// Test seam: while paused the pump (and the inline fast path) stops
  /// flushing outbound queues — timers still run.  Deterministically
  /// simulates a kernel socket buffer that accepts nothing, which real
  /// sockets only do after absorbing ~100s of KB.
  void set_writer_paused(bool paused);

 private:
  using Clock = std::chrono::steady_clock;

  struct Session {
    std::uint64_t id = 0;
    int fd = -1;
    std::thread reader;
    std::mutex write_mu;
    std::atomic<bool> closed{false};
    // Outbound queue (guarded by write_mu): encoded frames the pump
    // flushes with non-blocking sends.
    std::deque<std::string> outq;
    std::size_t outq_head = 0;   ///< bytes of outq.front() already sent
    std::size_t outq_bytes = 0;  ///< total bytes across outq
    /// Progress frames dropped since the last delivered progress frame;
    /// echoed (and reset) via the next one's "dropped_progress" member.
    std::uint64_t dropped_progress = 0;
    /// Last time the queue made forward progress (or became non-empty);
    /// the write deadline measures from here.
    Clock::time_point stall_since{};
    // Liveness (reader writes, pump reads).
    std::atomic<std::int64_t> last_recv_ms{0};
    std::atomic<bool> keepalive_pending{false};
    /// When the outstanding probe was sent (Server::now_ms clock): the reap
    /// fires only after the probe has gone unanswered for half the idle
    /// window, so a starved pump cannot reap before the client could ack.
    std::atomic<std::int64_t> keepalive_sent_ms{0};
    std::uint64_t keepalive_seq = 0;  ///< pump thread only
  };

  struct JobRecord {
    std::uint64_t job = 0;
    std::uint64_t session = 0;
    bool running = false;           ///< false: parked, spec not yet submitted
    double pending_deadline_s = 0;  ///< parked-phase deadline request
    core::JobSpec spec;             ///< moved into the service at launch
    core::JobService::Handle handle;  ///< valid when running
  };

  void accept_loop();
  void drain();
  void reader_loop(const std::shared_ptr<Session>& s);
  void session_closed(const std::shared_ptr<Session>& s);
  /// False: the session must close (strike limit reached).
  bool handle_request(const std::shared_ptr<Session>& s,
                      const std::string& payload);
  void handle_submit(const std::shared_ptr<Session>& s, SubmitRequest req);
  /// Submits a record's spec to the JobService as its job id; mu_ must be
  /// held.  A no-op once drain() has taken the service down.
  void launch_locked(JobRecord& rec);
  /// Launches every job admission just released (ids from release()).
  void launch_all(const std::vector<std::uint64_t>& jobs);
  /// Terminal path for a job that never ran (parked cancel, dead session).
  void finish_unrun(std::uint64_t job, JobRecord rec,
                    const std::string& message,
                    const std::shared_ptr<Session>& sess);
  /// Every job's terminal hand-off: queues the result frame, then drops
  /// the journal entry, frees the slot, forgets the record and launches
  /// the parked jobs that frees.
  void finish(std::uint64_t job, const core::JobReport& report,
              const std::shared_ptr<Session>& sess);
  /// Routes a progress frame to the job's session; the terminal event
  /// also runs finish().
  void on_progress(const core::JobProgress& p);
  /// Queues a non-droppable frame (result/error/ack/...) and flushes
  /// opportunistically; never drops, never blocks.
  void write_frame(const std::shared_ptr<Session>& s,
                   const std::string& payload);
  /// Queues a progress frame — droppable: at the queue bound it is counted
  /// instead, and the pending count rides the next frame that fits.
  void write_progress(const std::shared_ptr<Session>& s, std::uint64_t job,
                      const core::JobProgress& p);
  bool queue_full_locked(const Session& s) const;
  void enqueue_locked(Session& s, std::string frame);
  /// Non-blocking sends until the queue empties or the socket would block.
  void flush_locked(Session& s);
  void pump_loop();
  void pump_wake();
  void logf(const char* fmt, ...);

  ServerConfig cfg_;
  int listen_fd_ = -1;
  int bound_port_ = 0;
  int wake_pipe_[2] = {-1, -1};
  int pump_pipe_[2] = {-1, -1};

  metaheur::CancelToken drain_token_;
  AdmissionQueue admission_;
  std::unique_ptr<core::JobService> service_;

  std::mutex mu_;
  std::condition_variable jobs_cv_;  ///< jobs_ shrank (drain waits on empty)
  std::map<std::uint64_t, std::shared_ptr<Session>> sessions_;
  std::vector<std::shared_ptr<Session>> dead_sessions_;
  std::map<std::uint64_t, JobRecord> jobs_;
  std::uint64_t next_session_ = 1;
  std::uint64_t next_job_ = 0;

  std::thread pump_;
  std::atomic<bool> pump_stop_{false};
  std::atomic<bool> writer_paused_{false};

  Journal journal_;
  std::vector<JournalEntry> orphans_;

  std::atomic<std::uint64_t> dropped_progress_total_{0};
  std::atomic<std::uint64_t> write_timeouts_{0};
  std::atomic<std::uint64_t> idle_timeouts_{0};
  std::atomic<std::uint64_t> keepalives_sent_{0};

  std::atomic<bool> draining_{false};
};

}  // namespace afp::service
