// Michael-Scott queue: FIFO semantics and MPMC conservation with EBR, and
// the communication-faithful queue under DistDomain.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "ds/ms_queue.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParamTest;

TEST(MsQueue, EmptyDequeuesNothing) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  EXPECT_TRUE(q.emptyApprox());
  EXPECT_FALSE(q.dequeue(guard).has_value());
}

TEST(MsQueue, FifoOrder) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  for (int i = 0; i < 100; ++i) q.enqueue(guard, i);
  for (int i = 0; i < 100; ++i) {
    auto v = q.dequeue(guard);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.dequeue(guard).has_value());
}

TEST(MsQueue, InterleavedEnqueueDequeue) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.pin();
  q.enqueue(guard, 1);
  q.enqueue(guard, 2);
  EXPECT_EQ(*q.dequeue(guard), 1);
  q.enqueue(guard, 3);
  EXPECT_EQ(*q.dequeue(guard), 2);
  EXPECT_EQ(*q.dequeue(guard), 3);
}

TEST(MsQueue, RequiresPinnedGuard) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  auto guard = domain.attach();
  EXPECT_DEATH(q.enqueue(guard, 1), "pinned");
}

TEST(MsQueue, DequeuedDummiesAreDeferred) {
  LocalDomain domain;
  MsQueue<int> q(domain);
  {
    auto guard = domain.pin();
    for (int i = 0; i < 20; ++i) q.enqueue(guard, i);
    for (int i = 0; i < 20; ++i) (void)q.dequeue(guard);
  }
  EXPECT_EQ(domain.stats().deferred, 20u);
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, 20u);
}

TEST(MsQueue, MpmcConservation) {
  LocalDomain domain;
  MsQueue<long> q(domain);
  constexpr int kProducers = 2;
  constexpr int kConsumers = 2;
  constexpr int kPerProducer = 20000;
  std::atomic<long> consumed_sum{0};
  std::atomic<long> consumed_count{0};
  std::atomic<int> producers_done{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      auto guard = domain.attach();
      for (int i = 0; i < kPerProducer; ++i) {
        guard.pin();
        q.enqueue(guard, static_cast<long>(p) * kPerProducer + i);
        guard.unpin();
      }
      producers_done.fetch_add(1);
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      auto guard = domain.attach();
      while (true) {
        guard.pin();
        auto v = q.dequeue(guard);
        guard.unpin();
        if (v.has_value()) {
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        } else if (producers_done.load() == kProducers) {
          // Drain once more to close the race between the emptiness check
          // and the last enqueue.
          guard.pin();
          v = q.dequeue(guard);
          guard.unpin();
          if (!v.has_value()) break;
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        }
        if ((consumed_count.load(std::memory_order_relaxed) & 255) == 0) {
          guard.tryReclaim();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const long total = static_cast<long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), total);
  EXPECT_EQ(consumed_sum.load(), total * (total - 1) / 2);
  domain.clear();
  EXPECT_EQ(domain.stats().reclaimed, domain.stats().deferred);
}

TEST(MsQueue, PerElementFifoPerProducer) {
  // Single consumer: elements from each producer must arrive in that
  // producer's order (FIFO is per-queue; per-producer order is implied).
  LocalDomain domain;
  MsQueue<std::pair<int, int>> q(domain);
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 5000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      auto guard = domain.attach();
      for (int i = 0; i < kPerProducer; ++i) {
        guard.pin();
        q.enqueue(guard, {p, i});
        guard.unpin();
      }
    });
  }
  for (auto& th : producers) th.join();

  auto guard = domain.pin();
  std::vector<int> next_expected(kProducers, 0);
  while (auto v = q.dequeue(guard)) {
    const auto [p, i] = *v;
    EXPECT_EQ(i, next_expected[p]) << "per-producer order violated";
    next_expected[p] = i + 1;
  }
  for (int p = 0; p < kProducers; ++p) {
    EXPECT_EQ(next_expected[p], kPerProducer);
  }
}

// --- distributed queue --------------------------------------------------------

class MsQueueDistTest : public RuntimeParamTest {};

TEST_P(MsQueueDistTest, SyncOpsFromAnotherLocaleKeepFifoOverTheCommLayer) {
  DistDomain domain = DistDomain::create();
  auto* queue = gnewOn<MsQueue<std::uint64_t, DistDomain>>(0, domain);
  constexpr std::uint64_t kHalf = 8;
  {
    auto guard = domain.pin();  // locale 0, the queue's home
    for (std::uint64_t i = 0; i < kHalf; ++i) queue->enqueue(guard, i);
  }
  // The last locale drives the rest: remote from the queue's home
  // whenever the runtime has more than one locale.
  const std::uint32_t user = Runtime::get().numLocales() - 1;
  const CommMode mode = GetParam().mode;
  onLocale(user, [domain, queue, user, mode] {
    auto guard = domain.pin();
    const comm::Counters before = comm::counters();
    for (std::uint64_t i = kHalf; i < 2 * kHalf; ++i) queue->enqueue(guard, i);
    for (std::uint64_t i = 0; i < 2 * kHalf; ++i) {
      auto v = queue->dequeue(guard);
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(queue->dequeue(guard).has_value());
    // A remote user reaches the head/tail words and links through the comm
    // layer -- AMs under none, NIC atomics under ugni (where local atomics
    // are NIC atomics too) -- and fetches the values of home-enqueued nodes
    // by RDMA GET: no direct-load shortcut.
    const comm::Counters after = comm::counters();
    EXPECT_EQ(after.totalAms() > before.totalAms(),
              user != 0 && mode == CommMode::none);
    EXPECT_EQ(after.gets - before.gets, user != 0 ? kHalf : 0u);
  });
  domain.clear();
  onLocale(0, [queue] { gdelete(queue); });
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(Sweep, MsQueueDistTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

}  // namespace
}  // namespace pgasnb
