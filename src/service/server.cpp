#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <limits>

#include "ingest/scenario.hpp"
#include "ingest/spice_parser.hpp"
#include "metaheur/optimizer.hpp"
#include "netlist/library.hpp"
#include "numeric/parallel.hpp"

namespace afp::service {

namespace {

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Blocking full write — the fix for the truncated-rejection bug: a partial
/// send() on a frame leaves the peer mid-frame forever.
bool send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
    if (k < 0 && errno == EINTR) continue;
    if (k <= 0) return false;
    p += k;
    n -= static_cast<std::size_t>(k);
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      admission_(cfg_.admission,
                 static_cast<std::size_t>(num::num_threads())),
      journal_(cfg_.journal_path) {}

Server::~Server() {
  if (service_) drain();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_pipe_[0] >= 0) ::close(wake_pipe_[0]);
  if (wake_pipe_[1] >= 0) ::close(wake_pipe_[1]);
  if (pump_pipe_[0] >= 0) ::close(pump_pipe_[0]);
  if (pump_pipe_[1] >= 0) ::close(pump_pipe_[1]);
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
}

void Server::logf(const char* fmt, ...) {
  if (!cfg_.log) return;
  std::va_list ap;
  va_start(ap, fmt);
  std::fprintf(stderr, "afpd: ");
  std::vfprintf(stderr, fmt, ap);
  std::fprintf(stderr, "\n");
  va_end(ap);
}

void Server::start() {
  if (::pipe(wake_pipe_) != 0) sys_fail("pipe");
  if (::pipe(pump_pipe_) != 0) sys_fail("pipe");
  if (!cfg_.unix_path.empty()) {
    if (cfg_.unix_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("socket path too long: " + cfg_.unix_path);
    }
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket");
    ::unlink(cfg_.unix_path.c_str());  // stale socket from a previous run
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, cfg_.unix_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      sys_fail("bind " + cfg_.unix_path);
    }
  } else if (cfg_.tcp_port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
        0) {
      sys_fail("bind 127.0.0.1:" + std::to_string(cfg_.tcp_port));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    bound_port_ = ntohs(bound.sin_port);
  } else {
    throw std::runtime_error("server needs a unix socket path or a TCP port");
  }
  if (::listen(listen_fd_, 64) != 0) sys_fail("listen");

  // Replay whatever a crashed predecessor left in the journal before any
  // client can connect: orphans_ is immutable once serving starts.
  orphans_ = journal_.take_orphans();
  for (const JournalEntry& e : orphans_) {
    logf("journal: job %llu (%s, seed %llu, identity %016llx) orphaned by a "
         "previous run",
         static_cast<unsigned long long>(e.job), e.name.c_str(),
         static_cast<unsigned long long>(e.seed),
         static_cast<unsigned long long>(e.identity));
  }

  core::JobServiceOptions sopts;
  sopts.base_seed = cfg_.base_seed;
  sopts.cancel = &drain_token_;
  sopts.on_progress = [this](const core::JobProgress& p) { on_progress(p); };
  service_ = std::make_unique<core::JobService>(std::move(sopts));
  pump_ = std::thread([this] { pump_loop(); });
  logf("listening on %s",
       cfg_.unix_path.empty()
           ? ("127.0.0.1:" + std::to_string(bound_port_)).c_str()
           : cfg_.unix_path.c_str());
}

void Server::request_drain() {
  // Async-signal-safe: one byte down the self-pipe; everything else happens
  // on the accept thread.
  const char b = 'd';
  if (wake_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

void Server::serve() {
  accept_loop();
  drain();
}

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // drain requested
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Reap sessions whose readers already finished — keeps the thread and
    // fd footprint bounded over a long daemon lifetime.
    std::vector<std::shared_ptr<Session>> reaped;
    std::uint64_t id = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      reaped.swap(dead_sessions_);
      id = next_session_++;
    }
    for (auto& d : reaped) {
      if (d->reader.joinable()) d->reader.join();
    }
    if (!admission_.open_session(id)) {
      const std::string frame = encode_frame(error_json(
          core::JobErrorKind::kResourceExhausted,
          draining_.load() ? "draining: the server is shutting down"
                           : "session limit reached"));
      (void)send_all(fd, frame.data(), frame.size());
      ::close(fd);
      continue;
    }
    auto s = std::make_shared<Session>();
    s->id = id;
    s->fd = fd;
    s->last_recv_ms.store(now_ms());
    {
      std::lock_guard<std::mutex> lock(mu_);
      sessions_[id] = s;
    }
    logf("session %llu: connected", static_cast<unsigned long long>(id));
    s->reader = std::thread([this, s] { reader_loop(s); });
    pump_wake();  // the pump must start this session's liveness timers
  }
}

void Server::reader_loop(const std::shared_ptr<Session>& s) {
  FrameReader reader;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(s->fd, buf, sizeof buf, 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Any inbound byte is proof of life: reset the idle clock and re-arm
    // the (single) keepalive probe.
    s->last_recv_ms.store(now_ms());
    s->keepalive_pending.store(false);
    bool stop = false;
    try {
      reader.feed(buf, static_cast<std::size_t>(n));
      std::string payload;
      while (reader.next(&payload)) {
        if (!handle_request(s, payload)) {  // strike limit: eject
          stop = true;
          break;
        }
      }
    } catch (const ProtocolError& e) {
      // A bad length prefix: every later byte boundary is garbage, so the
      // session ends — but with a structured parting error, not a hang.
      write_frame(s, error_json(e.kind, e.what()));
      stop = true;
    }
    if (stop) break;
  }
  if (!reader.idle()) {
    logf("session %llu: disconnected mid-frame",
         static_cast<unsigned long long>(s->id));
  }
  session_closed(s);
}

void Server::session_closed(const std::shared_ptr<Session>& s) {
  // Cancel what the departed client still owned: running jobs stop at
  // iteration latency (their results are discarded on write), jobs that
  // never launched are finished as cancelled so their admission slots free
  // up immediately.
  std::vector<std::pair<std::uint64_t, JobRecord>> unrun;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Move sessions_ -> dead_sessions_ atomically: under mu_, every live
    // session is in exactly one of the two, so the joiners (accept-loop
    // reaper, drain) cannot miss one mid-teardown.  Joining a reader that is
    // still finishing this function merely blocks until it returns.
    sessions_.erase(s->id);
    dead_sessions_.push_back(s);
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      if (it->second.session != s->id) {
        ++it;
      } else if (it->second.running) {
        it->second.handle.cancel.cancel();
        ++it;
      } else {
        unrun.emplace_back(it->first, std::move(it->second));
        it = jobs_.erase(it);
      }
    }
  }
  for (auto& [job, rec] : unrun) {
    finish_unrun(job, std::move(rec), "session closed", nullptr);
  }
  admission_.close_session(s->id);
  {
    // Closing under write_mu (with `closed` set first) means a concurrent
    // write_frame either skips or finishes on the live fd — never a
    // send() on a recycled descriptor.
    std::lock_guard<std::mutex> lock(s->write_mu);
    // Best-effort bounded parting flush: the reader may have just queued a
    // final error frame (framing loss, strike ejection) that the client is
    // owed before EOF.  Bounded so a dead peer cannot wedge teardown.
    const auto until = Clock::now() + std::chrono::milliseconds(100);
    while (!writer_paused_.load() && !s->outq.empty() && !s->closed.load() &&
           s->fd >= 0 && Clock::now() < until) {
      flush_locked(*s);
      if (s->outq.empty() || s->closed.load()) break;
      pollfd pfd{s->fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 10);
    }
    s->closed.store(true);
    ::close(s->fd);
    s->fd = -1;
  }
  jobs_cv_.notify_all();
  logf("session %llu: closed", static_cast<unsigned long long>(s->id));
}

bool Server::queue_full_locked(const Session& s) const {
  return s.outq.size() >= cfg_.queue_frames ||
         s.outq_bytes >= cfg_.queue_bytes;
}

void Server::enqueue_locked(Session& s, std::string frame) {
  if (s.outq.empty()) s.stall_since = Clock::now();
  s.outq_bytes += frame.size();
  s.outq.push_back(std::move(frame));
}

void Server::flush_locked(Session& s) {
  if (s.closed.load() || s.fd < 0) return;
  while (!s.outq.empty()) {
    const std::string& f = s.outq.front();
    // MSG_DONTWAIT per call: the fd stays blocking for the reader thread,
    // only the writer refuses to sleep on a full socket buffer.
    const ssize_t n = ::send(s.fd, f.data() + s.outq_head,
                             f.size() - s.outq_head,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (n <= 0) {
      // EPIPE & friends: the client is gone; the reader will notice too.
      s.closed.store(true);
      return;
    }
    s.outq_head += static_cast<std::size_t>(n);
    s.stall_since = Clock::now();  // forward progress re-arms the deadline
    if (s.outq_head == f.size()) {
      s.outq_bytes -= f.size();
      s.outq_head = 0;
      s.outq.pop_front();
    }
  }
}

void Server::write_frame(const std::shared_ptr<Session>& s,
                         const std::string& payload) {
  if (!s) return;
  std::string frame;
  try {
    frame = encode_frame(payload);
  } catch (const std::exception&) {
    return;  // response larger than the cap — drop rather than corrupt
  }
  bool residual = false;
  {
    std::lock_guard<std::mutex> lock(s->write_mu);
    if (s->closed.load() || s->fd < 0) return;
    // Non-droppable frames queue past the bound: the client is owed every
    // result/error, and the write deadline bounds how long an unread queue
    // can grow.
    enqueue_locked(*s, std::move(frame));
    if (!writer_paused_.load()) flush_locked(*s);
    residual = !s->outq.empty() && !s->closed.load();
  }
  if (residual) pump_wake();
}

void Server::write_progress(const std::shared_ptr<Session>& s,
                            std::uint64_t job, const core::JobProgress& p) {
  if (!s) return;
  bool residual = false;
  {
    std::lock_guard<std::mutex> lock(s->write_mu);
    if (s->closed.load() || s->fd < 0) return;
    if (queue_full_locked(*s)) {
      // Backpressure: progress is advisory, so it degrades first — count
      // the drop and move on.  The count reaches the client on the next
      // progress frame that fits, and the stats totals keep the sum.
      ++s->dropped_progress;
      dropped_progress_total_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const std::string payload = progress_json(job, p, s->dropped_progress);
    s->dropped_progress = 0;
    enqueue_locked(*s, encode_frame(payload));
    if (!writer_paused_.load()) flush_locked(*s);
    residual = !s->outq.empty() && !s->closed.load();
  }
  if (residual) pump_wake();
}

void Server::pump_wake() {
  const char b = 'w';
  if (pump_pipe_[1] >= 0) {
    [[maybe_unused]] ssize_t n = ::write(pump_pipe_[1], &b, 1);
  }
}

void Server::set_writer_paused(bool paused) {
  writer_paused_.store(paused);
  if (!paused) pump_wake();  // flush everything that piled up
}

void Server::pump_loop() {
  for (;;) {
    if (pump_stop_.load()) return;
    std::vector<std::shared_ptr<Session>> live;
    {
      std::lock_guard<std::mutex> lock(mu_);
      live.reserve(sessions_.size());
      for (auto& [id, s] : sessions_) live.push_back(s);
    }
    const bool paused = writer_paused_.load();
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Session>> polled;
    fds.push_back({pump_pipe_[0], POLLIN, 0});
    polled.push_back(nullptr);
    // Seconds until the nearest timer (write deadline, keepalive probe,
    // idle reap) across all sessions; infinity = block on the wake pipe.
    double next_s = std::numeric_limits<double>::infinity();
    const auto now = Clock::now();
    const std::int64_t tick_ms = now_ms();
    for (auto& s : live) {
      std::lock_guard<std::mutex> lock(s->write_mu);
      if (s->closed.load() || s->fd < 0) continue;
      if (!s->outq.empty()) {
        if (cfg_.write_deadline_s > 0.0) {
          const double stalled =
              std::chrono::duration<double>(now - s->stall_since).count();
          if (stalled >= cfg_.write_deadline_s) {
            // The client stopped reading: disconnect it.  The reader sees
            // EOF and session_closed cancels the session's jobs through
            // their CancelTokens.
            write_timeouts_.fetch_add(1, std::memory_order_relaxed);
            logf("session %llu: write stalled %.1fs (deadline %.1fs), "
                 "disconnecting",
                 static_cast<unsigned long long>(s->id), stalled,
                 cfg_.write_deadline_s);
            ::shutdown(s->fd, SHUT_RDWR);
            continue;
          }
          next_s = std::min(next_s, cfg_.write_deadline_s - stalled);
        }
        if (!paused) {
          fds.push_back({s->fd, POLLOUT, 0});
          polled.push_back(s);
        }
      }
      if (cfg_.idle_timeout_s > 0.0) {
        const double idle =
            static_cast<double>(tick_ms - s->last_recv_ms.load()) / 1000.0;
        const double half = cfg_.idle_timeout_s * 0.5;
        if (!s->keepalive_pending.load()) {
          const double probe_in = half - idle;
          if (probe_in <= 0.0) {
            s->keepalive_pending.store(true);
            s->keepalive_sent_ms.store(tick_ms);
            keepalives_sent_.fetch_add(1, std::memory_order_relaxed);
            enqueue_locked(*s,
                           encode_frame(keepalive_json(++s->keepalive_seq)));
            if (!paused) flush_locked(*s);
            next_s = std::min(next_s, half);
          } else {
            next_s = std::min(next_s, probe_in);
          }
        } else {
          // Reap only after the probe itself has gone unanswered for half
          // the window: if this thread was starved past the whole timeout
          // before it could probe, the client still gets its answer
          // window instead of being reaped on the first late tick.
          const double waited =
              static_cast<double>(tick_ms - s->keepalive_sent_ms.load()) /
              1000.0;
          const double reap_in =
              std::max(cfg_.idle_timeout_s - idle, half - waited);
          if (reap_in <= 0.0) {
            idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
            logf("session %llu: idle %.1fs (timeout %.1fs), disconnecting",
                 static_cast<unsigned long long>(s->id), idle,
                 cfg_.idle_timeout_s);
            enqueue_locked(
                *s, encode_frame(error_json(
                        core::JobErrorKind::kResourceExhausted,
                        "idle timeout: no request or keepalive_ack within " +
                            std::to_string(cfg_.idle_timeout_s) + "s")));
            flush_locked(*s);
            ::shutdown(s->fd, SHUT_RDWR);
            continue;
          }
          next_s = std::min(next_s, reap_in);
        }
      }
    }
    int timeout_ms = -1;
    if (next_s < std::numeric_limits<double>::infinity()) {
      timeout_ms = static_cast<int>(
          std::min(60000.0, std::max(1.0, next_s * 1000.0 + 1.0)));
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                          timeout_ms);
    if (pump_stop_.load()) return;
    if (rc < 0) continue;  // EINTR
    if (fds[0].revents != 0) {
      char buf[256];
      (void)::read(pump_pipe_[0], buf, sizeof buf);
    }
    if (writer_paused_.load()) continue;
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      // POLLNVAL/POLLERR/POLLHUP included: flush_locked re-checks `closed`
      // and the fd under write_mu, so a session that died (or whose fd
      // number was recycled) between snapshot and here is a no-op.
      std::lock_guard<std::mutex> lock(polled[i]->write_mu);
      flush_locked(*polled[i]);
    }
  }
}

ServerStats Server::stats_snapshot() {
  ServerStats st;
  st.sessions = admission_.num_sessions();
  st.inflight = admission_.num_inflight();
  st.parked = admission_.num_parked();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, s] : sessions_) {
      std::lock_guard<std::mutex> wl(s->write_mu);
      st.queued_frames += s->outq.size();
      st.queued_bytes += s->outq_bytes;
    }
  }
  st.dropped_progress = dropped_progress_total_.load();
  st.write_timeouts = write_timeouts_.load();
  st.idle_timeouts = idle_timeouts_.load();
  st.keepalives_sent = keepalives_sent_.load();
  st.strikes = admission_.total_strikes();
  st.strike_ejections = admission_.total_strike_ejections();
  st.journal_live = journal_.live();
  st.journal_orphans = orphans_.size();
  st.draining = draining_.load();
  return st;
}

bool Server::handle_request(const std::shared_ptr<Session>& s,
                            const std::string& payload) {
  // Malformed requests are recoverable (frame boundaries survive), so the
  // session gets a structured error back — but each one is a strike, and a
  // session that keeps sending garbage is ejected: a malformed flood burns
  // its own session slot, not the daemon's parser time.
  auto strike = [&]() -> bool {
    if (!admission_.record_strike(s->id)) return true;
    logf("session %llu: strike limit reached, ejecting",
         static_cast<unsigned long long>(s->id));
    write_frame(s, error_json(core::JobErrorKind::kResourceExhausted,
                              "strike limit reached: too many malformed "
                              "requests; closing session"));
    return false;
  };
  Request req;
  try {
    req = parse_request(payload);
  } catch (const ProtocolError& e) {
    write_frame(s, error_json(e.kind, e.what()));
    return strike();
  } catch (const JsonError& e) {
    write_frame(s, error_json(core::JobErrorKind::kInvalidConfig, e.what()));
    return strike();
  } catch (const std::exception& e) {
    write_frame(s, error_json(core::JobErrorKind::kInternal, e.what()));
    return true;
  }
  switch (req.kind) {
    case Request::Kind::kPing:
      write_frame(s, pong_json(draining_.load()));
      return true;
    case Request::Kind::kStats:
      write_frame(s, stats_json(stats_snapshot()));
      return true;
    case Request::Kind::kOrphans:
      write_frame(s, orphans_json(orphans_));
      return true;
    case Request::Kind::kKeepaliveAck:
      // The ack itself already reset the idle clock in the reader; no
      // response — reply streams stay clean for the demuxing client.
      return true;
    case Request::Kind::kSubmit:
      handle_submit(s, std::move(req.submit));
      return true;
    case Request::Kind::kCancel: {
      bool found = false;
      bool was_running = false;
      JobRecord removed;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(req.job);
        if (it != jobs_.end() && it->second.session == s->id) {
          found = true;
          if (it->second.running) {
            it->second.handle.cancel.cancel();
            was_running = true;
          } else {
            removed = std::move(it->second);
            jobs_.erase(it);
          }
        }
      }
      if (!found) {
        write_frame(s, error_json(core::JobErrorKind::kInvalidConfig,
                                  "unknown job", req.job));
        return true;
      }
      if (!was_running) {
        finish_unrun(req.job, std::move(removed), "cancelled before launch",
                     s);
      }
      write_frame(s, ok_json(req.job));
      return true;
    }
    case Request::Kind::kDeadline: {
      bool found = false;
      {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = jobs_.find(req.job);
        if (it != jobs_.end() && it->second.session == s->id) {
          found = true;
          if (it->second.running) {
            // Mid-run watchdog arming — the StopPoll re-consultation path:
            // the running optimizer's poller picks this up within one
            // clock stride.
            it->second.handle.cancel.set_deadline_after(req.seconds);
          } else {
            it->second.pending_deadline_s = req.seconds;
          }
        }
      }
      if (!found) {
        write_frame(s, error_json(core::JobErrorKind::kInvalidConfig,
                                  "unknown job", req.job));
        return true;
      }
      write_frame(s, ok_json(req.job));
      return true;
    }
  }
  return true;
}

void Server::handle_submit(const std::shared_ptr<Session>& s,
                           SubmitRequest req) {
  core::JobSpec spec;
  spec.name = req.name;
  spec.config = std::move(req.config);
  spec.seed = req.seed;
  // Validate optimizer + options and load the netlist before admission, so
  // a job that can never run is rejected without holding a slot.
  try {
    metaheur::make_optimizer(spec.config.optimizer, spec.config.options);
  } catch (const std::exception& e) {
    write_frame(s, error_json(core::JobErrorKind::kInvalidConfig, e.what()));
    return;
  }
  try {
    if (!req.circuit.empty()) {
      bool found = false;
      for (const auto& e : netlist::circuit_registry()) {
        if (e.name == req.circuit) {
          spec.netlist = e.make();
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::runtime_error("'" + req.circuit +
                                 "' is not a registry circuit");
      }
    } else if (!req.scenario.empty()) {
      // Generated workload: the spec string is the whole job definition
      // (pure function of family/size/seed), so replay after a crash
      // regenerates the identical netlist and constraint overlay.
      const auto sc =
          ingest::make_scenario(ingest::ScenarioSpec::parse(req.scenario));
      spec.netlist = sc.netlist;
      spec.config.scenario_constraints = sc.constraints;
    } else {
      spec.netlist = ingest::parse_deck(req.spice);
    }
  } catch (const std::exception& e) {
    write_frame(s, error_json(core::JobErrorKind::kInvalidConfig, e.what()));
    return;
  }

  std::uint64_t job = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    job = next_job_++;
  }
  std::string reason;
  const auto verdict = admission_.admit(s->id, job, req.priority, &reason);
  if (verdict == AdmissionQueue::Verdict::kRejected) {
    write_frame(s,
                error_json(core::JobErrorKind::kResourceExhausted, reason));
    return;
  }
  const bool queued = verdict == AdmissionQueue::Verdict::kParked;
  // Journal the job BEFORE the accepted frame goes out: once a client
  // holds an ack, a crash must not be able to forget the job.
  if (journal_.enabled()) {
    journal_.record(JournalEntry{job, spec.seed,
                                 core::JobService::spec_identity(spec),
                                 spec.name});
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    JobRecord rec;
    rec.job = job;
    rec.session = s->id;
    rec.spec = std::move(spec);
    if (!queued) launch_locked(rec);
    jobs_[job] = std::move(rec);
  }
  logf("session %llu: job %llu %s", static_cast<unsigned long long>(s->id),
       static_cast<unsigned long long>(job), queued ? "parked" : "running");
  write_frame(s, accepted_json(job, queued));
}

void Server::launch_locked(JobRecord& rec) {
  if (!service_) return;
  rec.handle = service_->submit(std::move(rec.spec), rec.job);
  rec.running = true;
  if (rec.pending_deadline_s > 0.0) {
    rec.handle.cancel.set_deadline_after(rec.pending_deadline_s);
  }
}

void Server::launch_all(const std::vector<std::uint64_t>& jobs) {
  for (const std::uint64_t job : jobs) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = jobs_.find(job);
    // The record can be gone when its session died between the admission
    // pop and here; the slot was re-released by that path.
    if (it != jobs_.end() && !it->second.running) launch_locked(it->second);
  }
}

void Server::finish_unrun(std::uint64_t job, JobRecord rec,
                          const std::string& message,
                          const std::shared_ptr<Session>& sess) {
  core::JobReport rep;
  rep.id = job;
  rep.name = rec.spec.name;
  rep.seed = rec.spec.seed;
  rep.status = core::JobStatus::kCancelled;
  rep.error = {core::JobErrorKind::kCancelled, message, job, -1};
  rep.optimizer = rec.spec.config.optimizer;
  rep.search = rec.spec.config.search;
  finish(job, rep, sess);
}

void Server::finish(std::uint64_t job, const core::JobReport& report,
                    const std::shared_ptr<Session>& sess) {
  // The result frame goes out BEFORE the job leaves jobs_: drain waits on
  // jobs_ becoming empty and then closes the session sockets, so writing
  // after the erase would race the shutdown and could lose the report.
  write_frame(sess, result_json(job, report));
  // The terminal frame is queued (a crash now loses at most the frame,
  // which the client detects as EOF) — the journal's job is done.
  journal_.remove(job);
  const auto launched = admission_.release(job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(job);
  }
  jobs_cv_.notify_all();
  launch_all(launched);
}

void Server::on_progress(const core::JobProgress& p) {
  const std::uint64_t job = p.id;
  std::shared_ptr<Session> sess;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto jt = jobs_.find(job);
    if (jt == jobs_.end()) return;
    auto st = sessions_.find(jt->second.session);
    if (st != sessions_.end()) sess = st->second;
  }
  // Streamed per session; the queue serializes on the session's write
  // mutex, so progress frames never interleave with results — and under
  // backpressure they are the frames that give way.
  write_progress(sess, job, p);
  if (p.report == nullptr) return;
  // Terminal: the worker that ran the job hands it off.
  finish(job, *p.report, sess);
  logf("job %llu: %s", static_cast<unsigned long long>(job),
       core::to_string(p.status));
}

void Server::drain() {
  if (!service_) return;
  draining_.store(true);
  admission_.begin_drain();
  logf("draining: %zu jobs outstanding", admission_.outstanding());
  // Phase 1: let in-flight and parked jobs finish on their own.
  {
    std::unique_lock<std::mutex> lock(mu_);
    jobs_cv_.wait_for(
        lock, std::chrono::duration<double>(std::max(0.0, cfg_.drain_grace_s)),
        [this] { return jobs_.empty(); });
  }
  // Phase 2: cancel stragglers through the service-wide token (every job
  // token is its child) and wait for the terminal reports to flush.
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!jobs_.empty()) {
      drain_token_.cancel();
      logf("drain grace expired: cancelling %zu jobs", jobs_.size());
      jobs_cv_.wait_for(lock, std::chrono::seconds(60),
                        [this] { return jobs_.empty(); });
    }
  }
  // Phase 2.5: "result written" now means "enqueued" — give the pump a
  // bounded window to flush the outbound queues before sockets shut down,
  // so every accepted job's terminal frame still reaches a reading client.
  {
    const auto until = Clock::now() + std::chrono::seconds(5);
    for (;;) {
      bool empty = true;
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto& [id, s] : sessions_) {
          std::lock_guard<std::mutex> wl(s->write_mu);
          empty = empty && (s->outq.empty() || s->closed.load());
        }
      }
      if (empty || writer_paused_.load() || Clock::now() >= until) break;
      pump_wake();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  // Phase 3: close the sessions (results are already flushed) and join
  // their readers, then stop the pump and the service.
  std::vector<std::shared_ptr<Session>> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [id, s] : sessions_) open.push_back(s);
  }
  // A session snapshotted above may close itself concurrently (reader hits
  // EOF, session_closed closes the fd and recycles it to -1).  Taking
  // write_mu and re-checking `closed` keeps the shutdown on the live
  // descriptor — never on a closed or reused fd number.
  for (auto& s : open) {
    std::lock_guard<std::mutex> lock(s->write_mu);
    if (!s->closed.load() && s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
  }
  for (auto& s : open) {
    if (s->reader.joinable()) s->reader.join();
  }
  std::vector<std::shared_ptr<Session>> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead.swap(dead_sessions_);
  }
  for (auto& s : dead) {
    if (s->reader.joinable()) s->reader.join();
  }
  pump_stop_.store(true);
  pump_wake();
  if (pump_.joinable()) pump_.join();
  // A worker finishing a job launches parked ones under mu_; taking the
  // service out under mu_ means none lands in a service being torn down
  // (parked jobs are left only when phase 2 timed out).
  std::unique_ptr<core::JobService> service;
  {
    std::lock_guard<std::mutex> lock(mu_);
    service.swap(service_);
  }
  service.reset();  // joins the workers after the queue drains
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (!cfg_.unix_path.empty()) ::unlink(cfg_.unix_path.c_str());
  logf("drained");
}

}  // namespace afp::service
