// Shared thread pool for the numeric kernels.
//
// All parallel work in the library goes through parallel_for, which splits
// an index range into contiguous chunks and hands them to a fixed pool of
// worker threads (the calling thread participates too).  Chunks never share
// output elements, and every output element is accumulated by exactly one
// chunk in a fixed loop order, so results are bitwise identical for any
// thread count — including AFP_NUM_THREADS=1.
//
// Sizing: AFP_NUM_THREADS when set (>= 1), otherwise
// std::thread::hardware_concurrency().  set_num_threads() can resize the
// pool at runtime (used by the determinism tests and the benches).
//
// Nested parallel_for calls from inside a worker run serially on that
// worker; the pool never deadlocks on re-entry.
#pragma once

#include <cstdint>
#include <functional>

namespace afp::num {

/// Body receives a half-open sub-range [begin, end).
using ParallelBody = std::function<void(std::int64_t begin, std::int64_t end)>;

/// Number of threads the pool currently uses (>= 1; counts the caller).
int num_threads();

/// Resizes the pool.  n <= 0 restores the AFP_NUM_THREADS / hardware default.
void set_num_threads(int n);

/// Runs body over [0, n) in parallel chunks of at least `grain` indices.
/// Falls back to a single inline call when the range is small, the pool has
/// one thread, the caller is itself a pool worker, or another caller's loop
/// holds the pool.
void parallel_for(std::int64_t n, std::int64_t grain, const ParallelBody& body);

}  // namespace afp::num
