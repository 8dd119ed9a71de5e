// ThreadPool: the persistent pool behind the lookahead candidate scans.
//
// The MEU-family strategies used to spawn fresh std::threads for every
// SelectNext round — thousands of thread creations per session, each paying
// kernel setup and cold stacks. This pool is created once per scan and
// reused: N-1 background workers sleep on a condition variable between
// rounds, and the caller participates as lane 0, so a ParallelFor costs one
// notify + one join-free completion wait instead of N thread spawns.
//
// Scheduling: the index range is cut into fixed-size chunks, and every lane
// claims the next chunk from one shared atomic cursor, front to back. The
// front of the range therefore always runs first, whichever lanes are
// awake — the MEU scan places last round's best candidates there so its
// branch-and-bound threshold tightens early. A stalled lane holds only the
// chunk it is running; the others keep draining the cursor. One
// fetch_add per chunk means a chunk can never execute twice.
//
// Determinism contract: the pool guarantees every index in [0, n) is
// executed exactly once, but NOT on a fixed lane or in a fixed completion
// order. Callers that need deterministic results must write to disjoint
// slots and reduce after ParallelFor returns (see CandidateScan).
//
// Not reentrant: ParallelFor must not be called from inside a body, and a
// pool must not run two ParallelFors concurrently. Bodies poll their own
// cancellation tokens; a cancelled body should return quickly and let the
// remaining chunks drain as no-ops.
#ifndef VERITAS_UTIL_THREAD_POOL_H_
#define VERITAS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace veritas {

class ThreadPool {
 public:
  /// Runs on a half-open index range [begin, end); `lane` in [0, lanes()) is
  /// stable within one chunk and indexes per-lane scratch (workspaces).
  using Body =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// `lanes` including the caller; 0 and 1 both mean "serial" (no workers).
  explicit ThreadPool(std::size_t lanes);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t lanes() const { return lanes_; }

  /// Executes body over [0, n) in chunks of `chunk_size`, blocking until
  /// every index ran. The caller participates as lane 0; a single chunk
  /// runs inline on it.
  void ParallelFor(std::size_t n, std::size_t chunk_size, const Body& body);

 private:
  // Heap-allocated per ParallelFor and shared with the workers, so a
  // straggler waking after the next round started only ever sees a fully
  // drained old job — never a half-initialized new one.
  struct Job {
    std::size_t n = 0;
    std::size_t chunk_size = 0;
    std::size_t num_chunks = 0;
    const Body* body = nullptr;
    std::atomic<std::size_t> next_chunk{0};  // The shared cursor.
    std::atomic<std::size_t> chunks_done{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
  };

  void WorkerLoop(std::size_t lane);
  /// Claims chunks off the shared cursor until it runs past the end.
  void RunLane(Job& job, std::size_t lane) const;

  const std::size_t lanes_;

  std::mutex job_mu_;
  std::condition_variable job_cv_;
  std::shared_ptr<Job> job_;       // Current round's job (guarded by job_mu_).
  std::uint64_t epoch_ = 0;        // Bumped per ParallelFor (guarded).
  bool stop_ = false;              // Guarded by job_mu_.
  std::vector<std::thread> workers_;
};

}  // namespace veritas

#endif  // VERITAS_UTIL_THREAD_POOL_H_
