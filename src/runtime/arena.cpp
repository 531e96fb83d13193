#include "runtime/arena.hpp"

#include <bit>
#include <cstring>

#include "util/check.hpp"

namespace pgasnb {

Arena::Arena(std::uint32_t locale_id, std::byte* base,
             std::size_t bytes) noexcept
    : locale_id_(locale_id), base_(base), bytes_(bytes) {}

int Arena::classIndex(std::size_t size) noexcept {
  const std::size_t clamped = size < kMinBlock ? kMinBlock : size;
  PGASNB_CHECK_MSG(clamped <= kMaxBlock, "allocation exceeds max block size");
  const auto rounded = std::bit_ceil(clamped);
  return std::countr_zero(rounded) - std::countr_zero(kMinBlock);
}

void* Arena::allocate(std::size_t size, std::size_t align) {
  PGASNB_CHECK_MSG(std::has_single_bit(align) && align <= kMaxBlock,
                   "allocation alignment must be a power of two <= max block");
  const int cls = classIndex(size);
  SizeClass& sc = *classes_[cls];
  {
    std::lock_guard<std::mutex> guard(sc.lock);
    // A recycled block keeps the alignment of whoever bumped it (always at
    // least 16); an over-aligned request only takes a head that fits.
    FreeNode* node = sc.head;
    if (node != nullptr &&
        (reinterpret_cast<std::uintptr_t>(node) & (align - 1)) == 0) {
      sc.head = node->next;
      node->magic = 0;  // un-poison; block is live again
      allocated_.fetch_add(1, std::memory_order_relaxed);
      return node;
    }
  }
  const std::size_t block = classSize(cls);
  std::size_t offset;
  if (align <= kMinBlock) {
    offset = bump_.fetch_add(block, std::memory_order_relaxed);
  } else {
    // Pad the bump pointer up to `align` (the padding is never reused).
    const auto base = reinterpret_cast<std::uintptr_t>(base_);
    std::size_t cur = bump_.load(std::memory_order_relaxed);
    do {
      offset = ((base + cur + align - 1) & ~(align - 1)) - base;
    } while (!bump_.compare_exchange_weak(cur, offset + block,
                                          std::memory_order_relaxed));
  }
  PGASNB_CHECK_MSG(offset + block <= bytes_,
                   "locale arena exhausted; raise arena_bytes_per_locale");
  allocated_.fetch_add(1, std::memory_order_relaxed);
  return base_ + offset;
}

void Arena::deallocate(void* ptr, std::size_t size) noexcept {
  PGASNB_CHECK_MSG(contains(ptr), "deallocate: pointer not owned by arena");
  const int cls = classIndex(size);
  auto* node = static_cast<FreeNode*>(ptr);
  // Heuristic double-free detection: a live object is astronomically
  // unlikely to carry the poison magic in its second word.
  PGASNB_CHECK_MSG(node->magic != kFreeMagic, "double free detected");
  // Poison the entire block so use-after-free reads are conspicuous.
  std::memset(ptr, 0xEF, classSize(cls));
  node->magic = kFreeMagic;
  SizeClass& sc = *classes_[cls];
  {
    std::lock_guard<std::mutex> guard(sc.lock);
    node->next = sc.head;
    sc.head = node;
  }
  freed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace pgasnb
