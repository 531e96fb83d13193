// The drain surface: mid-window OpWindow::drain() (absorbs landed ops,
// never ships, same clock as a plain close, nesting) and a
// workers-x-locales work-queue sweep in which a locale's workers share one
// MPMC CompletionQueue (the full sweep is the `-L stress` variant).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;
using testing::testConfig;

class CommDrainTest : public RuntimeTest {
 protected:
  void SetUp() override { comm::resetCounters(); }
};

// --- mid-window OpWindow::drain() --------------------------------------------

TEST_F(CommDrainTest, WindowDrainAbsorbsCompletionsAsTheyLand) {
  startRuntime(2);
  constexpr std::size_t kOps = 8;
  comm::OpWindow window;
  std::vector<comm::Handle<>> hs;
  for (std::size_t i = 0; i < kOps; ++i) {
    hs.push_back(window.add(comm::amAsyncHandle(1, [] {})));
  }
  // Overlap loop: absorb completions while the tail is still in flight --
  // the caller's "compute" here is just the polling itself.
  std::size_t consumed = 0;
  while (consumed < kOps) consumed += window.drain();
  EXPECT_EQ(consumed, kOps);
  for (auto& h : hs) EXPECT_TRUE(h.ready());
  EXPECT_EQ(window.inFlight(), 0u) << "drained ops leave the window";
  EXPECT_EQ(window.drain(), 0u) << "nothing left to absorb";
  window.join();  // nothing left to wait for
}

TEST_F(CommDrainTest, DrainedWindowJoinsAtTheMaxSimTimeOfTheSet) {
  // drain() never ships: ops still buffered in the task aggregator stay
  // owned, and close flushes and max-folds them like any window.
  startRuntime(3);
  sim::setNow(0);
  const LatencyModel& lat = runtime_->config().latency;
  std::vector<comm::Handle<>> hs;
  {
    comm::OpWindow window;
    hs.push_back(comm::taskAggregator().enqueueHandle(1, [] {}));
    hs.push_back(comm::taskAggregator().enqueueHandle(1, [] {}));
    hs.push_back(comm::taskAggregator().enqueueHandle(2, [] {}));
    EXPECT_EQ(window.inFlight(), 3u) << "aggregated ops auto-enroll";
    EXPECT_EQ(window.drain(), 0u) << "buffered ops have not landed";
    EXPECT_EQ(window.inFlight(), 3u);
  }  // close: flush + spin-join + one max-fold
  std::uint64_t max_join = 0;
  for (auto& h : hs) {
    ASSERT_TRUE(h.ready()) << "close waits for every owned op";
    max_join = std::max(max_join, h.completionTime() + lat.am_wire_ns);
  }
  EXPECT_GE(sim::now(), max_join) << "caller folded the max join of the set";
  EXPECT_EQ(comm::counters().am_batched, 2u);
}

TEST_F(CommDrainTest, NestedWindowsDrainOnlyTheirOwnOps) {
  startRuntime(3);
  std::atomic<int> inner_ran{0};
  std::atomic<int> outer_ran{0};
  {
    comm::OpWindow outer;
    outer.add(comm::amAsyncHandle(1, [&outer_ran] { outer_ran.fetch_add(1); }));
    {
      comm::OpWindow inner;
      EXPECT_EQ(comm::OpWindow::current(), &inner);
      inner.add(comm::amAsyncHandle(2, [&inner_ran] { inner_ran.fetch_add(1); }));
      spinUntil([&] { return outer_ran.load() == 1 && inner_ran.load() == 1; });
      // Both ops have landed; the inner drain absorbs only its own.
      while (inner.inFlight() != 0) inner.drain();
      EXPECT_EQ(outer.inFlight(), 1u) << "outer ownership intact";
    }
    EXPECT_EQ(comm::OpWindow::current(), &outer);
    while (outer.inFlight() != 0) outer.drain();
  }
  EXPECT_EQ(outer_ran.load(), 1);
  EXPECT_EQ(inner_ran.load(), 1);
  EXPECT_EQ(comm::OpWindow::current(), nullptr);
}

TEST_F(CommDrainTest, DrainedWindowedPopsNeedNoManualFlush) {
  // popAsyncAggregated joined through a window drained mid-batch, with no
  // flushAll() anywhere.
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto* stack = DistStack<std::uint64_t>::create(domain, /*home=*/0);
  constexpr int kItems = 48;
  {
    auto guard = domain.pin();
    for (int i = 0; i < kItems; ++i) stack->push(guard, i + 1);
  }
  std::atomic<std::uint64_t> popped{0};
  coforallLocales([domain, stack, &popped] {
    auto guard = domain.pin();
    std::vector<comm::Handle<std::optional<std::uint64_t>>> handles;
    handles.reserve(kItems / 4);
    {
      comm::OpWindow window;
      for (int i = 0; i < kItems / 4; ++i) {
        handles.push_back(stack->popAsyncAggregated(guard));
      }
      window.drain();  // mid-window absorb (may be 0: batch still buffered)
    }  // close: flush + spin-join the rest, one max-fold
    std::uint64_t got = 0;
    for (auto& h : handles) got += h.value().has_value() ? 1 : 0;
    popped.fetch_add(got, std::memory_order_relaxed);
  });
  EXPECT_EQ(popped.load(), static_cast<std::uint64_t>(kItems));
  EXPECT_TRUE(stack->emptyApprox());
  DistStack<std::uint64_t>::destroy(stack);
  domain.destroy();
}

/// Simulated clock after a window that owns one op to locale 1 and one to
/// locale 2, where locale 2's op is held on its progress thread until the
/// locale-1 op has landed. With `drain_first` the landed op is absorbed
/// with drain() before the held op is released and the window closes.
std::uint64_t clockAfterWindow(bool drain_first) {
  sim::setNow(0);
  const LatencyModel& lat = Runtime::get().config().latency;
  std::atomic<bool> release{false};
  comm::OpWindow window;
  auto landed = window.add(comm::amAsyncHandle(1, [] {}));
  auto held = window.add(comm::amAsyncHandle(2, [&release] {
    while (!release.load()) std::this_thread::yield();
  }));
  spinUntil([&] { return landed.ready(); });
  if (drain_first) {
    const std::uint64_t before = sim::now();
    EXPECT_FALSE(held.ready());
    EXPECT_EQ(window.drain(), 1u) << "only the landed op is absorbed";
    EXPECT_EQ(window.inFlight(), 1u) << "the held op stays owned";
    EXPECT_EQ(sim::now(),
              std::max(before, landed.completionTime() + lat.am_wire_ns))
        << "drain() folds exactly the landed op's join-ready time";
  }
  release.store(true);
  window.join();
  EXPECT_GE(sim::now(), held.completionTime() + lat.am_wire_ns);
  return sim::now();
}

TEST_F(CommDrainTest, DrainThenCloseEndsOnTheSameClockAsCloseAlone) {
  startRuntime(3);
  const std::uint64_t drained = clockAfterWindow(/*drain_first=*/true);
  runtime_.reset();  // fresh progress-thread timelines for the second run
  startRuntime(3);
  const std::uint64_t closed = clockAfterWindow(/*drain_first=*/false);
  EXPECT_EQ(drained, closed);
}

// --- shared-queue work-queue sweep ------------------------------------------

// The dist_workqueue shape, scaled: a DistStack bag drained by the workers
// of each locale through one shared CompletionQueue. Every item must be
// consumed exactly once across all locales and workers, whatever the
// interleaving.
void runSharedQueueWorkQueue(std::uint32_t locales, std::uint32_t workers,
                          std::uint64_t items) {
  SCOPED_TRACE(::testing::Message() << "locales=" << locales
                                    << " workers=" << workers
                                    << " items=" << items);
  Runtime rt(testConfig(locales));
  DistDomain domain = DistDomain::create();
  auto* bag = DistStack<std::uint64_t>::create(domain, locales - 1);
  {
    auto guard = domain.pin();
    comm::OpWindow window;
    for (std::uint64_t i = 0; i < items; ++i) {
      bag->pushAsyncAggregated(guard, i + 1);
    }
  }
  const std::uint64_t window_slots = std::max<std::uint64_t>(workers, 8);
  std::atomic<std::uint64_t> consumed{0};
  coforallLocales([&, domain, bag] {
    std::vector<comm::Handle<std::optional<std::uint64_t>>> slots(
        window_slots);
    std::atomic<bool> bag_drained{false};
    comm::CompletionQueue cq;
    coforallHere(workers, [&](std::uint32_t w) {
      auto guard = domain.attach();
      for (std::uint64_t s = w; s < window_slots; s += workers) {
        guard.pin();
        slots[s] = bag->popAsync(guard);
        guard.unpin();
        cq.watch(slots[s], s);
      }
      while (auto slot = cq.next()) {
        if (!slots[*slot].value().has_value()) {
          bag_drained.store(true, std::memory_order_relaxed);
          continue;
        }
        consumed.fetch_add(1, std::memory_order_relaxed);
        if (!bag_drained.load(std::memory_order_relaxed)) {
          guard.pin();
          slots[*slot] = bag->popAsync(guard);
          guard.unpin();
          cq.watch(slots[*slot], *slot);
        }
      }
    });
  });
  EXPECT_EQ(consumed.load(), items);
  DistStack<std::uint64_t>::destroy(bag);
  domain.destroy();
}

TEST(CommDrainWorkQueueTest, SharedQueueDrainConsumesEverything) {
  runSharedQueueWorkQueue(/*locales=*/2, /*workers=*/3, /*items=*/192);
}

// Opt-in scale sweep (`ctest -L stress` via -DPGASNB_STRESS=ON): the
// workers-x-locales grid the shared-queue drain must survive.
TEST(CommDrainStressTest, DISABLED_SharedQueueWorkersByLocalesSweep) {
  for (std::uint32_t locales : {2u, 4u, 8u}) {
    for (std::uint32_t workers : {1u, 2u, 4u}) {
      runSharedQueueWorkQueue(locales, workers, 128 * locales);
    }
  }
}

}  // namespace
}  // namespace pgasnb
