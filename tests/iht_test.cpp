// InterlockedHashTable: the distributed hash map (paper's future-work
// application, built on AtomicObject + the distributed reclaim domain).
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <vector>

#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeParamTest;
using testing::RuntimeTest;

class IhtModeTest : public RuntimeParamTest {};

TEST_P(IhtModeTest, InsertFindErase) {
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(64, domain);
  EXPECT_TRUE(table.valid());

  EXPECT_TRUE(table.insert(1, 100));
  EXPECT_TRUE(table.insert(2, 200));
  EXPECT_FALSE(table.insert(1, 999)) << "duplicate key";

  EXPECT_EQ(*table.find(1), 100u);
  EXPECT_EQ(*table.find(2), 200u);
  EXPECT_FALSE(table.find(3).has_value());

  auto erased = table.erase(1);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(*erased, 100u);
  EXPECT_FALSE(table.find(1).has_value());
  EXPECT_FALSE(table.erase(1).has_value());

  table.destroy();
  domain.destroy();
}

TEST_P(IhtModeTest, SizeCountsAcrossLocales) {
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(32, domain);
  constexpr std::uint64_t kN = 300;
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(table.insert(k, k * 2));
  }
  EXPECT_EQ(table.sizeApprox(), kN);
  for (std::uint64_t k = 0; k < kN; k += 2) {
    EXPECT_TRUE(table.erase(k).has_value());
  }
  EXPECT_EQ(table.sizeApprox(), kN / 2);
  table.destroy();
  domain.destroy();
}

TEST_P(IhtModeTest, ConcurrentInsertsFromAllLocales) {
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(128, domain);
  constexpr std::uint64_t kPerLocale = 100;
  coforallLocales([table] {
    const std::uint64_t base = Runtime::here() * kPerLocale;
    for (std::uint64_t i = 0; i < kPerLocale; ++i) {
      EXPECT_TRUE(table.insert(base + i, base + i));
    }
  });
  EXPECT_EQ(table.sizeApprox(), kPerLocale * runtime_->numLocales());
  // Every key visible from every locale.
  coforallLocales([table, this] {
    const std::uint64_t total = kPerLocale * Runtime::get().numLocales();
    for (std::uint64_t k = 0; k < total; k += 7) {
      EXPECT_EQ(*table.find(k), k);
    }
  });
  table.destroy();
  domain.destroy();
}

TEST_P(IhtModeTest, AsyncOpsMatchSyncSemantics) {
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(64, domain);

  EXPECT_TRUE(table.insertAsync(1, 10).value());
  EXPECT_FALSE(table.insertAsync(1, 11).value()) << "duplicate key";
  EXPECT_EQ(*table.findAsync(1).value(), 10u);
  EXPECT_FALSE(table.findAsync(2).value().has_value());

  EXPECT_FALSE(table.updateAsync(1, 12).value()) << "replaced, not inserted";
  EXPECT_EQ(*table.findAsync(1).value(), 12u);
  EXPECT_TRUE(table.updateAsync(3, 30).value()) << "fresh key inserts";

  auto erased = table.erase(1);
  ASSERT_TRUE(erased.has_value());
  EXPECT_EQ(*erased, 12u);
  EXPECT_FALSE(table.erase(1).has_value());

  table.destroy();
  domain.destroy();
}

TEST_P(IhtModeTest, AsyncOpsJoinThroughAnOpWindow) {
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(64, domain);
  constexpr std::uint64_t kN = 120;
  std::vector<comm::Handle<bool>> inserts;
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kN; ++k) {
      inserts.push_back(window.add(table.insertAsync(k, k * 5)));
    }
  }  // close waits for every adopted handle
  for (auto& h : inserts) EXPECT_TRUE(h.value());
  EXPECT_EQ(table.sizeApprox(), kN);
  std::vector<comm::Handle<std::optional<std::uint64_t>>> finds;
  {
    comm::OpWindow window;
    for (std::uint64_t k = 0; k < kN; ++k) {
      finds.push_back(window.add(table.findAsync(k)));
    }
  }
  for (std::uint64_t k = 0; k < kN; ++k) {
    ASSERT_TRUE(finds[k].value().has_value()) << "k=" << k;
    EXPECT_EQ(*finds[k].value(), k * 5);
  }
  table.destroy();
  domain.destroy();
}

INSTANTIATE_TEST_SUITE_P(Sweep, IhtModeTest, PGASNB_RUNTIME_PARAMS,
                         pgasnb::testing::paramName);

class IhtTest : public RuntimeTest {};

TEST_F(IhtTest, CollidingKeysShareBucketCorrectly) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  // One bucket: every key collides; the bucket list must still be exact.
  auto table = InterlockedHashTable<std::uint64_t>::create(1, domain);
  for (std::uint64_t k = 0; k < 50; ++k) EXPECT_TRUE(table.insert(k, k + 1));
  for (std::uint64_t k = 0; k < 50; ++k) EXPECT_EQ(*table.find(k), k + 1);
  for (std::uint64_t k = 0; k < 50; k += 2) {
    EXPECT_TRUE(table.erase(k).has_value());
  }
  for (std::uint64_t k = 0; k < 50; ++k) {
    EXPECT_EQ(table.find(k).has_value(), k % 2 == 1);
  }
  table.destroy();
  domain.destroy();
}

TEST_F(IhtTest, MixedChurnConservesNetInserts) {
  startRuntime(3);
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(64, domain);
  constexpr int kIters = 300;
  constexpr std::uint64_t kKeySpace = 128;
  std::atomic<long> net{0};
  coforallLocales([table, &net, domain] {
    auto guard = domain.attach();
    Xoshiro256 rng(Runtime::here() * 13 + 5);
    for (int i = 0; i < kIters; ++i) {
      const std::uint64_t key = rng.nextBelow(kKeySpace);
      if (rng.nextBool(0.5)) {
        if (table.insert(key, key)) net.fetch_add(1);
      } else {
        if (table.erase(key).has_value()) net.fetch_sub(1);
      }
      if ((i & 63) == 0) guard.tryReclaim();
    }
  });
  EXPECT_EQ(table.sizeApprox(), static_cast<std::uint64_t>(net.load()));
  long present = 0;
  for (std::uint64_t k = 0; k < kKeySpace; ++k) {
    if (table.find(k)) ++present;
  }
  EXPECT_EQ(present, net.load());
  table.destroy();
  domain.destroy();
}

TEST_F(IhtTest, BucketsAreDistributedAcrossLocales) {
  startRuntime(4);
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(64, domain);
  // Inserting many keys must touch remote locales: count sync AMs.
  comm::resetCounters();
  for (std::uint64_t k = 0; k < 200; ++k) table.insert(k, k);
  EXPECT_GT(comm::counters().am_sync, 0u)
      << "bucket operations must execute on owning locales";
  table.destroy();
  domain.destroy();
}

TEST_F(IhtTest, ValuesCanBeUpdatedViaEraseInsert) {
  startRuntime(2);
  DistDomain domain = DistDomain::create();
  auto table = InterlockedHashTable<std::uint64_t>::create(16, domain);
  table.insert(5, 1);
  EXPECT_EQ(*table.erase(5), 1u);
  EXPECT_TRUE(table.insert(5, 2));
  EXPECT_EQ(*table.find(5), 2u);
  table.destroy();
  domain.destroy();
}

TEST(IhtLocalDomain, SingleShardSharedMemoryVariant) {
  // The same table body on a LocalDomain: one shard, in-place execution,
  // no runtime or communication layer involved.
  LocalDomain domain;
  auto table =
      InterlockedHashTable<std::uint64_t, LocalDomain>::create(16, domain);
  EXPECT_TRUE(table.valid());
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_TRUE(table.insert(k, k * 3));
  }
  EXPECT_FALSE(table.insert(7, 1)) << "duplicate key";
  EXPECT_EQ(table.sizeApprox(), 200u);
  for (std::uint64_t k = 0; k < 200; k += 2) {
    EXPECT_EQ(*table.erase(k), k * 3);
  }
  EXPECT_EQ(table.sizeApprox(), 100u);
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_EQ(table.find(k).has_value(), k % 2 == 1);
  }
  table.destroy();
  EXPECT_FALSE(table.valid());
  EXPECT_EQ(domain.stats().reclaimed, domain.stats().deferred);
}

}  // namespace
}  // namespace pgasnb
