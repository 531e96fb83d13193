// Per-locale arena allocator: size classes, recycling, poisoning, ownership.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "epoch/token.hpp"
#include "test_support.hpp"

namespace pgasnb {
namespace {

using testing::RuntimeTest;

TEST(ArenaSizeClasses, RoundsToPowersOfTwo) {
  EXPECT_EQ(Arena::classIndex(1), 0);
  EXPECT_EQ(Arena::classIndex(16), 0);
  EXPECT_EQ(Arena::classIndex(17), 1);
  EXPECT_EQ(Arena::classIndex(32), 1);
  EXPECT_EQ(Arena::classIndex(33), 2);
  EXPECT_EQ(Arena::classIndex(1 << 20), Arena::kNumClasses - 1);
}

TEST(ArenaSizeClasses, ClassSizeInvertsIndex) {
  for (int c = 0; c < Arena::kNumClasses; ++c) {
    EXPECT_EQ(Arena::classIndex(Arena::classSize(c)), c);
  }
}

TEST(ArenaSizeClasses, OversizeAborts) {
  EXPECT_DEATH((void)Arena::classIndex((1 << 20) + 1), "max block");
}

class ArenaTest : public RuntimeTest {};

TEST_F(ArenaTest, AllocateGivesWritableMemory) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* p = arena.allocate(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0xAB, 64);
  EXPECT_TRUE(arena.contains(p));
  arena.deallocate(p, 64);
}

TEST_F(ArenaTest, FreeListRecyclesSameBlock) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* a = arena.allocate(48);
  arena.deallocate(a, 48);
  void* b = arena.allocate(48);  // same size class -> same block back
  EXPECT_EQ(a, b);
  arena.deallocate(b, 48);
}

TEST_F(ArenaTest, DifferentClassesDoNotAlias) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* a = arena.allocate(16);
  void* b = arena.allocate(256);
  EXPECT_NE(a, b);
  arena.deallocate(a, 16);
  arena.deallocate(b, 256);
  void* c = arena.allocate(200);  // class of 256
  EXPECT_EQ(c, b);
  arena.deallocate(c, 200);
}

TEST_F(ArenaTest, PoisonsFreedMemory) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  auto* p = static_cast<unsigned char*>(arena.allocate(64));
  std::memset(p, 0, 64);
  arena.deallocate(p, 64);
  // Bytes beyond the free-list header must carry the poison pattern.
  for (int i = 16; i < 64; ++i) {
    ASSERT_EQ(p[i], 0xEF) << "offset " << i;
  }
}

TEST_F(ArenaTest, DoubleFreeDetected) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  void* p = arena.allocate(64);
  arena.deallocate(p, 64);
  EXPECT_DEATH(arena.deallocate(p, 64), "double free");
}

TEST_F(ArenaTest, ForeignPointerRejected) {
  startRuntime(2);
  Arena& arena0 = runtime_->locale(0).arena();
  Arena& arena1 = runtime_->locale(1).arena();
  void* p = arena0.allocate(64);
  EXPECT_DEATH(arena1.deallocate(p, 64), "not owned");
  arena0.deallocate(p, 64);
}

TEST_F(ArenaTest, StatsTrackLiveBlocks) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  const auto live0 = arena.liveBlocks();
  void* a = arena.allocate(32);
  void* b = arena.allocate(32);
  EXPECT_EQ(arena.liveBlocks(), live0 + 2);
  arena.deallocate(a, 32);
  EXPECT_EQ(arena.liveBlocks(), live0 + 1);
  arena.deallocate(b, 32);
  EXPECT_EQ(arena.liveBlocks(), live0);
}

TEST_F(ArenaTest, ManyAllocationsAreDistinct) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  std::set<void*> seen;
  std::vector<void*> blocks;
  for (int i = 0; i < 1000; ++i) {
    void* p = arena.allocate(24);
    EXPECT_TRUE(seen.insert(p).second) << "duplicate block while live";
    blocks.push_back(p);
  }
  for (void* p : blocks) arena.deallocate(p, 24);
}

bool alignedTo(const void* p, std::size_t align) {
  return reinterpret_cast<std::uintptr_t>(p) % align == 0;
}

TEST_F(ArenaTest, GnewHonorsOverAlignedTypes) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  std::vector<void*> pads;
  std::vector<Token*> tokens;
  for (int i = 0; i < 8; ++i) {
    pads.push_back(arena.allocate(16));  // nudge the bump pointer off 64
    tokens.push_back(gnew<Token>());
    EXPECT_TRUE(alignedTo(tokens.back(), alignof(Token)))
        << "Token #" << i << " at " << tokens.back();
  }
  for (Token* t : tokens) gdelete(t);
  for (void* p : pads) arena.deallocate(p, 16);
}

TEST_F(ArenaTest, OverAlignedRequestSkipsAMisalignedRecycledBlock) {
  startRuntime(1);
  Arena& arena = runtime_->locale(0).arena();
  // Bump 16-byte blocks until the next bump position is off a 64-byte line.
  while (alignedTo(static_cast<std::byte*>(arena.allocate(16)) + 16, 64)) {
  }
  // The bump pointer now sits off a 64-byte boundary, so an ordinary 64-byte
  // block lands misaligned for a 64-byte request -- and pays no padding.
  const std::size_t before = arena.bytesUsed();
  void* plain = arena.allocate(64);
  EXPECT_EQ(arena.bytesUsed(), before + 64);
  ASSERT_FALSE(alignedTo(plain, 64));
  arena.deallocate(plain, 64);

  void* aligned = arena.allocate(64, 64);
  EXPECT_NE(aligned, plain);
  EXPECT_TRUE(alignedTo(aligned, 64));
  void* recycled = arena.allocate(64);
  EXPECT_EQ(recycled, plain) << "an ordinary request still takes the block";
  arena.deallocate(recycled, 64);
  arena.deallocate(aligned, 64);
}

TEST_F(ArenaTest, ConcurrentAllocFreeIsSafe) {
  startRuntime(1, CommMode::none, 4);
  Arena& arena = runtime_->locale(0).arena();
  const auto live0 = arena.liveBlocks();
  constexpr int kThreads = 4;
  constexpr int kIters = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&arena] {
      std::vector<void*> mine;
      for (int i = 0; i < kIters; ++i) {
        mine.push_back(arena.allocate(40));
        if (mine.size() > 16) {
          arena.deallocate(mine.back(), 40);
          mine.pop_back();
          arena.deallocate(mine.front(), 40);
          mine.erase(mine.begin());
        }
      }
      for (void* p : mine) arena.deallocate(p, 40);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(arena.liveBlocks(), live0);
}

}  // namespace
}  // namespace pgasnb
