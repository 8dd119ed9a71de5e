#include "util/thread_pool.h"

#include <algorithm>

namespace veritas {

ThreadPool::ThreadPool(std::size_t lanes) : lanes_(lanes == 0 ? 1 : lanes) {
  workers_.reserve(lanes_ - 1);
  for (std::size_t w = 1; w < lanes_; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    stop_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunLane(Job& job, std::size_t lane) const {
  while (true) {
    const std::size_t chunk = job.next_chunk.fetch_add(1);
    if (chunk >= job.num_chunks) return;
    const std::size_t begin = chunk * job.chunk_size;
    (*job.body)(lane, begin, std::min(job.n, begin + job.chunk_size));
    // The last chunk to finish wakes the caller. Taking done_mu before the
    // notify pairs with the caller's predicate re-check, so the wakeup cannot
    // slip between its check and its wait.
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      { std::lock_guard<std::mutex> lock(job.done_mu); }
      job.done_cv.notify_all();
    }
  }
}

void ThreadPool::WorkerLoop(std::size_t lane) {
  std::uint64_t seen = 0;
  while (true) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lock(job_mu_);
      job_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      job = job_;
    }
    if (job != nullptr) RunLane(*job, lane);
  }
}

void ThreadPool::ParallelFor(std::size_t n, std::size_t chunk_size,
                             const Body& body) {
  if (n == 0) return;
  if (chunk_size == 0) chunk_size = 1;
  const std::size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  // Serial fast path: nothing to share, run inline with zero synchronization.
  if (lanes_ <= 1 || num_chunks <= 1) {
    body(0, 0, n);
    return;
  }

  auto job = std::make_shared<Job>();
  job->n = n;
  job->chunk_size = chunk_size;
  job->num_chunks = num_chunks;
  job->body = &body;
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    job_ = job;
    ++epoch_;
  }
  job_cv_.notify_all();

  RunLane(*job, /*lane=*/0);

  {
    std::unique_lock<std::mutex> lock(job->done_mu);
    job->done_cv.wait(lock, [&] {
      return job->chunks_done.load(std::memory_order_acquire) ==
             job->num_chunks;
    });
  }
  // Drop the pool's reference so a straggler waking next round sees either
  // this (fully drained) job or the next one — never a stale body.
  std::lock_guard<std::mutex> lock(job_mu_);
  if (job_ == job) job_.reset();
}

}  // namespace veritas
