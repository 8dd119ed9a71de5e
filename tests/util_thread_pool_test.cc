// Tests of the persistent shared-cursor ThreadPool (DESIGN.md §5f). Lives
// in the concurrency binary so CI reruns it under ThreadSanitizer.
#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace veritas {
namespace {

TEST(ThreadPoolTest, EveryIndexRunsExactlyOnce) {
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(lanes);
    for (const std::size_t n : {0u, 1u, 7u, 33u, 1000u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      pool.ParallelFor(n, 8,
                       [&](std::size_t, std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) {
                           hits[i].fetch_add(1, std::memory_order_relaxed);
                         }
                       });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1)
            << "lanes=" << lanes << " n=" << n << " index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, LaneIndexStaysBelowLaneCount) {
  ThreadPool pool(4);
  std::atomic<bool> ok{true};
  pool.ParallelFor(256, 2, [&](std::size_t lane, std::size_t, std::size_t) {
    if (lane >= pool.lanes()) ok.store(false, std::memory_order_relaxed);
  });
  EXPECT_TRUE(ok.load());
  EXPECT_EQ(pool.lanes(), 4u);
}

TEST(ThreadPoolTest, ZeroLanesNormalizedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.lanes(), 1u);
  std::size_t sum = 0;
  pool.ParallelFor(10, 4, [&](std::size_t lane, std::size_t begin,
                              std::size_t end) {
    EXPECT_EQ(lane, 0u);
    sum += end - begin;  // Serial path: no synchronization needed.
  });
  EXPECT_EQ(sum, 10u);
}

TEST(ThreadPoolTest, SingleChunkRunsInline) {
  ThreadPool pool(4);
  std::size_t calls = 0;
  // n <= chunk_size collapses to one chunk, which runs inline on the
  // caller: one body call covering the full range.
  pool.ParallelFor(5, 8, [&](std::size_t lane, std::size_t begin,
                             std::size_t end) {
    EXPECT_EQ(lane, 0u);
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 5u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPoolTest, DisjointWritesAreVisibleAfterReturn) {
  ThreadPool pool(4);
  const std::size_t n = 777;
  std::vector<double> out(n, 0.0);
  pool.ParallelFor(n, 8, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = static_cast<double>(i) * 2.0;
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(out[i], static_cast<double>(i) * 2.0) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyRounds) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    const std::size_t n = 64 + static_cast<std::size_t>(round);
    std::atomic<std::size_t> covered{0};
    pool.ParallelFor(n, 4,
                     [&](std::size_t, std::size_t begin, std::size_t end) {
                       covered.fetch_add(end - begin,
                                         std::memory_order_relaxed);
                     });
    ASSERT_EQ(covered.load(), n) << "round " << round;
  }
}

TEST(ThreadPoolTest, StalledLaneDoesNotHoldBackTheOthers) {
  ThreadPool pool(4);
  // Whichever lane claims chunk 0 stalls in it until every other chunk has
  // finished. The shared cursor lets the remaining lanes drain chunks 1..7
  // meanwhile; a scheduler that tied chunks to the stalled lane would leave
  // some undone and the wait below would time out.
  constexpr std::size_t kChunks = 8;
  std::atomic<std::size_t> others_done{0};
  std::vector<std::size_t> lane_of(kChunks, 0);  // Disjoint slots.
  std::atomic<bool> drained_during_stall{false};
  pool.ParallelFor(kChunks, 1, [&](std::size_t lane, std::size_t begin,
                                   std::size_t) {
    lane_of[begin] = lane;
    if (begin == 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (others_done.load() < kChunks - 1 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      drained_during_stall.store(others_done.load() == kChunks - 1);
      return;
    }
    others_done.fetch_add(1);
  });
  EXPECT_TRUE(drained_during_stall.load());
  EXPECT_EQ(others_done.load(), kChunks - 1);
  for (std::size_t c = 1; c < kChunks; ++c) {
    EXPECT_NE(lane_of[c], lane_of[0]) << "chunk " << c;
  }
}

}  // namespace
}  // namespace veritas
