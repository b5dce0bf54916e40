#include "core/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/flags.h"
#include "core/mutex.h"

namespace hygnn::core {
namespace {

/// Restores a single-thread pool after each test so the global state
/// never leaks across test binaries' suites.
class ThreadPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { SetNumThreads(1); }
};

TEST_F(ThreadPoolTest, SetAndGetNumThreads) {
  SetNumThreads(4);
  EXPECT_EQ(NumThreads(), 4);
  SetNumThreads(1);
  EXPECT_EQ(NumThreads(), 1);
  SetNumThreads(0);  // clamps to 1
  EXPECT_EQ(NumThreads(), 1);
}

TEST_F(ThreadPoolTest, CoversRangeExactlyOnce) {
  SetNumThreads(4);
  const int64_t n = 10'000;
  std::vector<int> counts(n, 0);
  ParallelFor(0, n, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[i];
  });
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(counts[i], 1) << "index " << i;
  }
}

TEST_F(ThreadPoolTest, SingleThreadRunsInlineAsOneChunk) {
  SetNumThreads(1);
  std::vector<std::pair<int64_t, int64_t>> chunks;
  ParallelFor(3, 1000, 10, [&](int64_t lo, int64_t hi) {
    chunks.push_back({lo, hi});
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<int64_t, int64_t>{3, 1000}));
}

TEST_F(ThreadPoolTest, PartitionDependsOnlyOnGrain) {
  // The chunk boundaries must be a pure function of (begin, end,
  // grain) — the determinism contract the kernels build on. The first
  // range is 16 chunks, claimed one at a time; the second is 33,335
  // chunks, claimed in runs of 131 with a shorter last run.
  SetNumThreads(4);
  for (const auto& [end, grain] :
       {std::pair<int64_t, int64_t>{1000, 64}, {100'003, 3}}) {
    std::mutex mutex;
    std::set<std::pair<int64_t, int64_t>> chunks;
    std::vector<int> counts(static_cast<size_t>(end), 0);
    ParallelFor(0, end, grain, [&](int64_t lo, int64_t hi) {
      std::lock_guard<std::mutex> lock(mutex);
      chunks.insert({lo, hi});
      for (int64_t i = lo; i < hi; ++i) ++counts[static_cast<size_t>(i)];
    });
    std::set<std::pair<int64_t, int64_t>> expected;
    for (int64_t lo = 0; lo < end; lo += grain) {
      expected.insert({lo, std::min<int64_t>(end, lo + grain)});
    }
    EXPECT_EQ(chunks, expected) << "range of " << end;
    for (int64_t i = 0; i < end; ++i) {
      ASSERT_EQ(counts[static_cast<size_t>(i)], 1) << "index " << i;
    }
  }
}

TEST_F(ThreadPoolTest, EmptyRangeNeverInvokes) {
  SetNumThreads(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](int64_t, int64_t) { called = true; });
  ParallelFor(7, 3, 1, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST_F(ThreadPoolTest, NestedCallRunsInline) {
  SetNumThreads(4);
  std::vector<int> counts(256, 0);
  ParallelFor(0, 4, 1, [&](int64_t lo, int64_t hi) {
    for (int64_t outer = lo; outer < hi; ++outer) {
      ParallelFor(outer * 64, (outer + 1) * 64, 8,
                  [&](int64_t ilo, int64_t ihi) {
        for (int64_t i = ilo; i < ihi; ++i) ++counts[i];
      });
    }
  });
  for (size_t i = 0; i < counts.size(); ++i) {
    ASSERT_EQ(counts[i], 1) << "index " << i;
  }
}

// Regression test for the exception contract: a throwing worker task
// must surface in the caller instead of terminating the process.
TEST_F(ThreadPoolTest, ExceptionPropagatesFromWorkers) {
  SetNumThreads(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, 1,
                  [&](int64_t lo, int64_t) {
                    if (lo == 637) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST_F(ThreadPoolTest, ExceptionPropagatesInline) {
  SetNumThreads(1);
  EXPECT_THROW(ParallelFor(0, 10, 100,
                           [](int64_t, int64_t) {
                             throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST_F(ThreadPoolTest, PoolUsableAfterException) {
  SetNumThreads(4);
  try {
    ParallelFor(0, 1000, 1, [&](int64_t lo, int64_t) {
      if (lo == 100) throw std::runtime_error("boom");
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  std::vector<int> counts(1000, 0);
  ParallelFor(0, 1000, 16, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) ++counts[i];
  });
  for (int64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(counts[i], 1) << "index " << i;
  }
}

TEST(WorkerThreadTest, RunsTaskAndJoinIsIdempotent) {
  int ran = 0;
  {
    WorkerThread worker([&ran] { ran = 1; });
    worker.Join();
    EXPECT_EQ(ran, 1);
    worker.Join();  // second Join is a no-op
  }  // destructor after Join is also a no-op
  EXPECT_EQ(ran, 1);
}

TEST(WorkerThreadTest, DestructorJoins) {
  std::atomic<int> ran{0};
  { WorkerThread worker([&ran] { ran.store(1); }); }
  EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerThreadTest, MovableIntoVector) {
  std::atomic<int> ran{0};
  {
    std::vector<WorkerThread> workers;
    for (int i = 0; i < 4; ++i) {
      workers.emplace_back([&ran] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(CondVarTest, WaitForTimesOutWithoutNotify) {
  Mutex mutex;
  CondVar cv;
  MutexLock lock(mutex);
  // Nobody will notify: WaitFor must come back false (timeout) and
  // must refuse a non-positive budget without sleeping.
  EXPECT_FALSE(cv.WaitFor(mutex, /*timeout_us=*/1000));
  EXPECT_FALSE(cv.WaitFor(mutex, /*timeout_us=*/0));
  EXPECT_FALSE(cv.WaitFor(mutex, /*timeout_us=*/-5));
}

TEST(CondVarTest, WaitForWakesOnNotify) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  WorkerThread notifier([&] {
    MutexLock lock(mutex);
    ready = true;
    cv.NotifyAll();
  });
  MutexLock lock(mutex);
  // Generous budget: the worker's notify must land long before it.
  while (!ready) {
    cv.WaitFor(mutex, /*timeout_us=*/1'000'000);
  }
  EXPECT_TRUE(ready);
}

TEST(EnvIntTest, ParsesAndFallsBack) {
  ::setenv("HYGNN_TEST_ENV_INT", "12", 1);
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), 12);
  ::setenv("HYGNN_TEST_ENV_INT", "-4", 1);
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), -4);
  ::setenv("HYGNN_TEST_ENV_INT", "notanumber", 1);
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), 3);
  ::setenv("HYGNN_TEST_ENV_INT", "12abc", 1);
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), 3);
  ::setenv("HYGNN_TEST_ENV_INT", "", 1);
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), 3);
  ::unsetenv("HYGNN_TEST_ENV_INT");
  EXPECT_EQ(EnvInt("HYGNN_TEST_ENV_INT", 3), 3);
}

}  // namespace
}  // namespace hygnn::core
