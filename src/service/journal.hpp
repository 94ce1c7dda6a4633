// Crash-recovery journal for afpd: every accepted-but-unfinished job is
// recorded on disk so a daemon killed mid-job can, on restart, surface the
// jobs it lost as structured `internal` errors instead of silently
// forgetting them.
//
// The journal is one file in numeric/serialize's bitwise u64-word format
// ("AFPW"), rewritten via the same atomic tmp+rename path the PR 6 search
// checkpoints use — a crash mid-write never leaves a truncated journal.
// Each entry carries the job id, its seed, the display name and the PR 6
// checkpoint-identity hash of the search configuration, so an orphan report
// names exactly which (config, seed) run was lost.
//
// Lifecycle: record() on admission (run or parked), remove() when the
// terminal result frame has been queued (or the job was finished unrun).
// take_orphans() at startup loads whatever a previous process left behind,
// resets the file to empty, and hands the entries to the server, which
// serves them via the `orphans` request and counts them in `stats`.
//
// All operations lock one mutex; the write volume is bounded by admission
// (run slots + kMaxParked entries), so a full rewrite per transition is
// cheap and keeps the format trivially recoverable.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace afp::service {

struct JournalEntry {
  std::uint64_t job = 0;       ///< daemon job id (as acked to the client)
  std::uint64_t seed = 0;      ///< explicit seed; 0 = was derived
  std::uint64_t identity = 0;  ///< core::checkpoint_identity of the config
  std::string name;            ///< job label (circuit or submit name)
};

/// Serializes entries into a WordMap-backed journal file (atomic write).
/// Exposed for tests and tools; the server goes through Journal below.
void journal_write(const std::string& path,
                   const std::map<std::uint64_t, JournalEntry>& entries);

/// Loads a journal file; returns an empty map when the file does not
/// exist.  Throws std::runtime_error on a malformed file.
std::map<std::uint64_t, JournalEntry> journal_load(const std::string& path);

class Journal {
 public:
  /// Empty path disables the journal (every call becomes a no-op).
  explicit Journal(std::string path) : path_(std::move(path)) {}

  bool enabled() const { return !path_.empty(); }

  /// Loads entries a previous (crashed) process left behind, then resets
  /// the file to an empty journal.  Call once at startup.
  std::vector<JournalEntry> take_orphans();

  /// Records an accepted job; rewrites the file atomically.
  void record(const JournalEntry& e);

  /// Forgets a terminal job; rewrites the file atomically.  Unknown ids
  /// are ignored (a job rejected before journaling).
  void remove(std::uint64_t job);

  std::size_t live() const;

 private:
  mutable std::mutex mu_;
  std::string path_;
  std::map<std::uint64_t, JournalEntry> live_;
};

}  // namespace afp::service
