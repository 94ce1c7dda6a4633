#include "service/admission.hpp"

#include <algorithm>

namespace afp::service {

bool AdmissionQueue::open_session(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_ ||
      sessions_.size() >= static_cast<std::size_t>(cfg_.max_sessions)) {
    return false;
  }
  sessions_.emplace(session, SessionState{});
  return true;
}

std::vector<std::uint64_t> AdmissionQueue::close_session(
    std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> dropped;
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return dropped;
  for (auto p = parked_.begin(); p != parked_.end();) {
    if (p->session == session) {
      dropped.push_back(p->job);
      owner_.erase(p->job);
      --it->second.outstanding;
      p = parked_.erase(p);
    } else {
      ++p;
    }
  }
  // Running jobs stay in owner_ until the server releases them — their
  // in-flight slots must not leak just because the client went away.
  sessions_.erase(it);
  return dropped;
}

AdmissionQueue::Verdict AdmissionQueue::admit(std::uint64_t session,
                                              std::uint64_t job, int priority,
                                              std::string* reason) {
  std::lock_guard<std::mutex> lock(mu_);
  if (draining_) {
    if (reason) *reason = "draining: the server is shutting down";
    return Verdict::kRejected;
  }
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    if (reason) *reason = "unknown session";
    return Verdict::kRejected;
  }
  if (it->second.outstanding >= cfg_.per_session) {
    if (reason) {
      *reason = "session quota exceeded (" + std::to_string(cfg_.per_session) +
                " outstanding jobs)";
    }
    return Verdict::kRejected;
  }
  if (inflight_ < slots_) {
    ++inflight_;
    ++it->second.outstanding;
    owner_[job] = session;
    return Verdict::kRun;
  }
  if (parked_.size() >= kMaxParked) {
    if (reason) {
      *reason = "wait queue full (" + std::to_string(kMaxParked) +
                " parked jobs)";
    }
    return Verdict::kRejected;
  }
  ++it->second.outstanding;
  owner_[job] = session;
  parked_.push_back(Parked{job, session, priority, next_seq_++});
  return Verdict::kParked;
}

std::vector<std::uint64_t> AdmissionQueue::release(std::uint64_t job) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::uint64_t> launch;
  const auto o = owner_.find(job);
  if (o == owner_.end()) return launch;
  // The job may still be parked (cancelled before launch): drop it from the
  // wait queue instead of freeing an in-flight slot it never held.
  bool was_parked = false;
  for (auto p = parked_.begin(); p != parked_.end(); ++p) {
    if (p->job == job) {
      parked_.erase(p);
      was_parked = true;
      break;
    }
  }
  if (!was_parked && inflight_ > 0) --inflight_;
  auto s = sessions_.find(o->second);
  if (s != sessions_.end() && s->second.outstanding > 0) {
    --s->second.outstanding;
  }
  owner_.erase(o);
  while (inflight_ < slots_ && !parked_.empty()) {
    // Highest priority wins; FIFO (lowest seq) inside a priority class.
    auto best = parked_.begin();
    for (auto p = std::next(parked_.begin()); p != parked_.end(); ++p) {
      if (p->priority > best->priority ||
          (p->priority == best->priority && p->seq < best->seq)) {
        best = p;
      }
    }
    launch.push_back(best->job);
    ++inflight_;
    parked_.erase(best);
  }
  return launch;
}

void AdmissionQueue::begin_drain() {
  std::lock_guard<std::mutex> lock(mu_);
  draining_ = true;
}

bool AdmissionQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::size_t AdmissionQueue::outstanding() const {
  std::lock_guard<std::mutex> lock(mu_);
  return owner_.size();
}

bool AdmissionQueue::record_strike(std::uint64_t session) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return false;
  ++strikes_total_;
  ++it->second.strikes;
  if (cfg_.strike_limit > 0 && it->second.strikes >= cfg_.strike_limit) {
    ++ejections_total_;
    return true;
  }
  return false;
}

std::size_t AdmissionQueue::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

std::size_t AdmissionQueue::num_inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

std::size_t AdmissionQueue::num_parked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size();
}

std::uint64_t AdmissionQueue::total_strikes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return strikes_total_;
}

std::uint64_t AdmissionQueue::total_strike_ejections() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ejections_total_;
}

}  // namespace afp::service
