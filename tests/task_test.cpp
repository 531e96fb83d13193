// Tasking: on-statements, coforall, helping joins, exceptions.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

class TaskTest : public RuntimeTest {};

TEST_F(TaskTest, OnLocaleRunsWithTargetHere) {
  startRuntime(4);
  for (std::uint32_t l = 0; l < 4; ++l) {
    std::uint32_t observed = ~0u;
    onLocale(l, [&observed] { observed = Runtime::here(); });
    EXPECT_EQ(observed, l);
  }
}

TEST_F(TaskTest, OnLocaleRestoresCallerContext) {
  startRuntime(2);
  EXPECT_EQ(Runtime::here(), 0u);
  onLocale(1, [] { EXPECT_EQ(Runtime::here(), 1u); });
  EXPECT_EQ(Runtime::here(), 0u);
}

TEST_F(TaskTest, CoforallLocalesCoversEveryLocaleOnce) {
  startRuntime(6);
  std::vector<std::atomic<int>> hits(6);
  coforallLocales([&hits] { hits[Runtime::here()].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST_F(TaskTest, NestedCoforallDoesNotDeadlock) {
  // Listing 4's shape: coforall locales -> on each locale -> coforall
  // locales again. With help-on-wait this must complete even with a single
  // worker per locale.
  startRuntime(4, CommMode::none, 1);
  std::atomic<int> inner_count{0};
  coforallLocales([&inner_count] {
    coforallLocales([&inner_count] { inner_count.fetch_add(1); });
  });
  EXPECT_EQ(inner_count.load(), 16);
}

TEST_F(TaskTest, WaitRunsOnlyItsOwnChildren) {
  // A waiter that ran an unrelated queued task inline would hold its own
  // caller up for that task's whole length.
  startRuntime(2, CommMode::none, 1);
  std::atomic<bool> busy{false};
  std::atomic<bool> release{false};
  TaskGroup occupier;
  occupier.spawnOn(1, [&busy, &release] {
    busy.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!busy.load()) std::this_thread::yield();  // locale 1's worker is held
  std::atomic<bool> unrelated_ran{false};
  TaskGroup unrelated;
  unrelated.spawnOn(1, [&unrelated_ran] { unrelated_ran.store(true); });
  std::atomic<bool> child_ran{false};
  TaskGroup group;
  group.spawnOn(1, [&child_ran] { child_ran.store(true); });
  group.wait();
  EXPECT_TRUE(child_ran.load());
  EXPECT_FALSE(unrelated_ran.load()) << "wait() ran another group's task";
  release.store(true);
  occupier.wait();
  unrelated.wait();
  EXPECT_TRUE(unrelated_ran.load());
}

TEST_F(TaskTest, CoforallHerePassesTaskIds) {
  startRuntime(1, CommMode::none, 4);
  std::set<std::uint32_t> seen;
  std::mutex lock;
  coforallHere(8, [&](std::uint32_t t) {
    std::lock_guard<std::mutex> g(lock);
    seen.insert(t);
  });
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 7u);
}

TEST_F(TaskTest, ForallHereVisitsEveryIndexOnce) {
  startRuntime(1, CommMode::none, 4);
  constexpr std::uint64_t kN = 10000;
  std::vector<std::atomic<std::uint8_t>> visited(kN);
  forallHere(kN, 4, [&](std::uint64_t i) { visited[i].fetch_add(1); });
  for (std::uint64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(visited[i].load(), 1) << "index " << i;
  }
}

TEST_F(TaskTest, ForallHereZeroAndTinyRanges) {
  startRuntime(1);
  int count = 0;
  forallHere(0, 4, [&](std::uint64_t) { ++count; });
  EXPECT_EQ(count, 0);
  std::atomic<int> count2{0};
  forallHere(2, 16, [&](std::uint64_t) { count2.fetch_add(1); });
  EXPECT_EQ(count2.load(), 2);
}

TEST_F(TaskTest, ExceptionsPropagateFromChild) {
  startRuntime(2);
  EXPECT_THROW(
      onLocale(1, [] { throw std::runtime_error("child failed"); }),
      std::runtime_error);
}

TEST_F(TaskTest, ExceptionDoesNotAbortSiblings) {
  startRuntime(4);
  std::atomic<int> completed{0};
  try {
    coforallLocales([&completed] {
      if (Runtime::here() == 2) throw std::runtime_error("one bad locale");
      completed.fetch_add(1);
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(completed.load(), 3);
}

TEST_F(TaskTest, TaskGroupWaitIsIdempotent) {
  startRuntime(2);
  TaskGroup group;
  std::atomic<int> runs{0};
  group.spawnOn(1, [&runs] { runs.fetch_add(1); });
  group.wait();
  group.wait();  // second wait is a no-op
  EXPECT_EQ(runs.load(), 1);
}

TEST_F(TaskTest, TaskGroupDestructorJoins) {
  startRuntime(2);
  std::atomic<int> runs{0};
  {
    TaskGroup group;
    group.spawnOn(1, [&runs] { runs.fetch_add(1); });
    // no explicit wait
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST_F(TaskTest, SpawnOnRejectsBadLocale) {
  startRuntime(2);
  TaskGroup group;
  EXPECT_DEATH(group.spawnOn(7, [] {}), "out of range");
}

TEST_F(TaskTest, DeepTaskFanOut) {
  startRuntime(2, CommMode::none, 2);
  std::atomic<int> total{0};
  coforallLocales([&total] {
    coforallHere(4, [&total](std::uint32_t) {
      coforallHere(4, [&total](std::uint32_t) { total.fetch_add(1); });
    });
  });
  EXPECT_EQ(total.load(), 2 * 4 * 4);
}

TEST_F(TaskTest, ManySequentialOnStatements) {
  startRuntime(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    onLocale(static_cast<std::uint32_t>(i % 3),
             [&count] { count.fetch_add(1); });
  }
  EXPECT_EQ(count.load(), 200);
}

}  // namespace
}  // namespace pgasnb
