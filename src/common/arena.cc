#include "common/arena.h"

#include <cassert>
#include <cstdint>
#include <utility>

#include "fault/failpoint.h"

namespace qmatch {

Arena::Arena(size_t block_bytes, MemoryBudget* budget)
    : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes),
      charge_(budget) {}

void Arena::AddBlock(size_t min_bytes) {
  const size_t size = min_bytes > block_bytes_ ? min_bytes : block_bytes_;
  // Injected exhaustion: the chaos/unit suites arm `arena.alloc` to prove
  // the failure surfaces as kResourceExhausted end to end.
  if (QMATCH_FAILPOINT_FIRED("arena.alloc")) {
    throw ArenaExhausted("arena block allocation failed (injected)");
  }
  const Status charged = charge_.Add(size, "match arena block");
  if (!charged.ok()) {
    throw ArenaExhausted(charged.message());
  }
  Block block;
  // Left uninitialised: Allocate hands out raw storage and MakeArray
  // value-initialises its own span, so zeroing here would only touch every
  // page of a large block once more, unpolled.
  block.data = std::make_unique_for_overwrite<unsigned char[]>(size);
  block.size = size;
  blocks_.push_back(std::move(block));
  allocated_bytes_ += size;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  assert(align != 0 && (align & (align - 1)) == 0 && "align: power of two");
  if (blocks_.empty()) {
    AddBlock(bytes + align);
    current_ = 0;
    offset_ = 0;
  }
  for (;;) {
    Block& block = blocks_[current_];
    // Align the absolute address, not the offset: block bases are only
    // guaranteed new[]-aligned and callers may ask for more.
    const uintptr_t base = reinterpret_cast<uintptr_t>(block.data.get());
    const uintptr_t mask = static_cast<uintptr_t>(align) - 1;
    const size_t aligned =
        static_cast<size_t>(((base + offset_ + mask) & ~mask) - base);
    if (aligned + bytes <= block.size && aligned + bytes >= aligned) {
      offset_ = aligned + bytes;
      used_bytes_ += bytes;
      return block.data.get() + aligned;
    }
    if (current_ + 1 < blocks_.size()) {
      // Reset() retained later blocks; reuse them before growing.
      ++current_;
      offset_ = 0;
      continue;
    }
    AddBlock(bytes + align);
    current_ = blocks_.size() - 1;
    offset_ = 0;
  }
}

void Arena::Reset() {
  current_ = 0;
  offset_ = 0;
  used_bytes_ = 0;
}

}  // namespace qmatch
