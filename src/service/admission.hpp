// Admission control for afpd: who gets a session, which submitted jobs run
// now, which wait, and in what order the waiters launch.
//
// Pure bookkeeping behind one mutex — no threads, no sockets, no job
// execution — so the policy is unit-testable in isolation and the server
// only ever asks three questions:
//
//   * admit(session, job, priority)  -> run now / parked / rejected,
//   * release(job)                   -> which parked jobs launch next,
//   * close_session(session)        -> which parked jobs die with it.
//
// Policy:
//   * at most cfg.max_sessions concurrent sessions (open_session),
//   * at most cfg.per_session outstanding (parked + running) jobs per
//     session — the quota; an over-quota submit is REJECTED
//     (resource_exhausted), not parked, so one greedy client cannot grow
//     the wait queue without bound,
//   * one running job per run slot — the server passes the JobService's
//     worker count, so an admitted job goes straight to a free worker;
//     further admits park here, the only queue a waiting job sits in,
//   * at most kMaxParked parked jobs total (back-pressure cap),
//   * parked jobs launch by (priority desc, arrival seq asc) — strict and
//     deterministic, no aging,
//   * begin_drain(): every later admit is rejected (kResourceExhausted,
//     "draining"); already-parked jobs still launch and finish,
//   * malformed-request strikes: record_strike(session) counts protocol
//     violations per session; hitting cfg.strike_limit says "eject" — the
//     server closes the session, so a client flooding garbage burns its own
//     session slot instead of the daemon's parser time.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace afp::service {

/// Total parked jobs across sessions; a submit past it is rejected.
inline constexpr std::size_t kMaxParked = 256;

struct AdmissionConfig {
  int max_sessions = 16;  ///< concurrent client sessions
  int per_session = 8;    ///< outstanding jobs per session
  /// Malformed requests a session survives before it is ejected; 0
  /// disables the limit.  Framing-level damage (bad length prefix) still
  /// closes the session immediately — strikes only meter violations the
  /// parser can recover from.
  int strike_limit = 16;
};

class AdmissionQueue {
 public:
  /// `slots`: how many admitted jobs run at once.
  AdmissionQueue(AdmissionConfig cfg, std::size_t slots)
      : cfg_(cfg), slots_(slots) {}

  enum class Verdict { kRun, kParked, kRejected };

  /// True when a new session may open (and counts it); false at capacity.
  bool open_session(std::uint64_t session);
  /// Forgets the session; returns the parked jobs that die with it (their
  /// running siblings are the server's problem — it cancels them).
  std::vector<std::uint64_t> close_session(std::uint64_t session);

  /// Decides one submit.  kRun: launch immediately (counted in-flight).
  /// kParked: hold; a later release() returns it.  kRejected: quota or
  /// capacity; `reason` says which.
  Verdict admit(std::uint64_t session, std::uint64_t job, int priority,
                std::string* reason);

  /// Records a terminal job (running or parked — cancellation of a parked
  /// job releases it too) and pops parked jobs, highest (priority, -seq)
  /// first, while a run slot is free.  The returned jobs are now
  /// counted in-flight; the server must launch each one.
  std::vector<std::uint64_t> release(std::uint64_t job);

  /// After this every admit() is rejected with reason "draining".
  void begin_drain();
  bool draining() const;

  /// Outstanding (parked + running) jobs, across all sessions.
  std::size_t outstanding() const;

  /// Counts one malformed request against the session; true = the session
  /// hit the strike limit and must be ejected.  Unknown sessions (already
  /// closed) never eject.
  bool record_strike(std::uint64_t session);

  // Instantaneous gauges / monotonic totals for the `stats` request.
  std::size_t num_sessions() const;
  std::size_t num_inflight() const;
  std::size_t num_parked() const;
  std::uint64_t total_strikes() const;
  std::uint64_t total_strike_ejections() const;

 private:
  struct Parked {
    std::uint64_t job;
    std::uint64_t session;
    int priority;
    std::uint64_t seq;
  };
  struct SessionState {
    int outstanding = 0;
    int strikes = 0;
  };

  AdmissionConfig cfg_;
  std::size_t slots_;
  mutable std::mutex mu_;
  std::map<std::uint64_t, SessionState> sessions_;
  std::vector<Parked> parked_;
  /// job -> owning session, for every admitted (parked or running) job.
  std::map<std::uint64_t, std::uint64_t> owner_;
  std::size_t inflight_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t strikes_total_ = 0;
  std::uint64_t ejections_total_ = 0;
  bool draining_ = false;
};

}  // namespace afp::service
