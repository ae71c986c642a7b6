// Unit tests for the bump-pointer scratch arena behind the SoA match
// kernel (DESIGN.md §13): alignment guarantees, reset-reuse without fresh
// budget charges, MemoryBudget charge/rollback accounting, the
// `arena.alloc` failpoint (both at arena level and surfaced as a typed
// kResourceExhausted through the engine), and a multi-thread soak proving
// per-thread arenas never hand out aliasing memory.

#include "common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/memory_budget.h"
#include "core/engine.h"
#include "datagen/corpus.h"
#include "fault/failpoint.h"

namespace qmatch {
namespace {

TEST(ArenaTest, AllocationsRespectRequestedAlignment) {
  Arena arena(/*block_bytes=*/256);
  for (size_t align : {size_t{1}, size_t{2}, size_t{4}, size_t{8}, size_t{16},
                       alignof(std::max_align_t)}) {
    for (size_t bytes : {size_t{1}, size_t{3}, size_t{17}, size_t{64}}) {
      void* p = arena.Allocate(bytes, align);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "bytes=" << bytes << " align=" << align;
      // Writable across the whole extent (ASan would flag an overrun).
      std::memset(p, 0xAB, bytes);
    }
  }
}

TEST(ArenaTest, ZeroByteAllocationReturnsStableNonNull) {
  Arena arena;
  EXPECT_NE(arena.Allocate(0), nullptr);
  EXPECT_NE(arena.Allocate(0, 1), nullptr);
}

TEST(ArenaTest, MakeArrayValueInitializes) {
  Arena arena;
  double* doubles = arena.MakeArray<double>(513);
  uint8_t* bytes = arena.MakeArray<uint8_t>(1027);
  for (size_t i = 0; i < 513; ++i) EXPECT_EQ(doubles[i], 0.0) << i;
  for (size_t i = 0; i < 1027; ++i) EXPECT_EQ(bytes[i], 0u) << i;
}

TEST(ArenaTest, GrowsBeyondOneBlockAndBeyondBlockSize) {
  Arena arena(/*block_bytes=*/128);
  // Many small allocations spanning multiple blocks.
  std::vector<uint32_t*> slots;
  for (uint32_t k = 0; k < 200; ++k) {
    uint32_t* p = arena.MakeArray<uint32_t>(8);
    p[0] = k;
    slots.push_back(p);
  }
  // One allocation far larger than the block size gets its own block.
  uint8_t* big = arena.MakeArray<uint8_t>(4096);
  std::memset(big, 0x5C, 4096);
  // Earlier allocations survive later growth.
  for (uint32_t k = 0; k < 200; ++k) EXPECT_EQ(slots[k][0], k);
  EXPECT_GE(arena.allocated_bytes(), arena.used_bytes());
}

TEST(ArenaTest, ResetReusesBlocksWithoutNewCharges) {
  MemoryBudget budget(/*limit_bytes=*/1 << 20);
  Arena arena(/*block_bytes=*/4096, &budget);
  (void)arena.MakeArray<double>(1500);  // forces several blocks
  const size_t allocated = arena.allocated_bytes();
  const uint64_t charged = budget.used();
  EXPECT_EQ(charged, allocated);
  EXPECT_GT(arena.used_bytes(), 0u);

  arena.Reset();
  EXPECT_EQ(arena.used_bytes(), 0u);
  EXPECT_EQ(arena.allocated_bytes(), allocated);  // blocks retained
  EXPECT_EQ(budget.used(), charged);              // charge retained

  // Refilling to the same footprint needs no new blocks or charges.
  (void)arena.MakeArray<double>(1500);
  EXPECT_EQ(arena.allocated_bytes(), allocated);
  EXPECT_EQ(budget.used(), charged);
}

TEST(ArenaTest, DestructionReleasesTheFullCharge) {
  MemoryBudget budget(/*limit_bytes=*/1 << 20);
  {
    Arena arena(/*block_bytes=*/4096, &budget);
    (void)arena.MakeArray<uint8_t>(10000);
    EXPECT_GT(budget.used(), 0u);
  }
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_GT(budget.peak(), 0u);
}

TEST(ArenaTest, BudgetExhaustionThrowsArenaExhaustedAndRollsBack) {
  MemoryBudget budget(/*limit_bytes=*/8 * 1024);
  Arena arena(/*block_bytes=*/4096, &budget);
  (void)arena.MakeArray<uint8_t>(4000);  // first block fits
  const uint64_t charged_before = budget.used();
  // A request the budget cannot cover: the arena throws and charges stay
  // exactly where they were (failed TryCharge charges nothing).
  EXPECT_THROW((void)arena.MakeArray<uint8_t>(64 * 1024), ArenaExhausted);
  EXPECT_EQ(budget.used(), charged_before);
  // The arena remains usable for requests that do fit.
  uint8_t* p = arena.MakeArray<uint8_t>(64);
  ASSERT_NE(p, nullptr);
  std::memset(p, 1, 64);
}

TEST(ArenaTest, HierarchicalBudgetRejectionComesFromTheParentToo) {
  MemoryBudget process(/*limit_bytes=*/8 * 1024);
  MemoryBudget request(/*limit_bytes=*/0, &process);  // child unlimited
  Arena arena(/*block_bytes=*/4096, &request);
  EXPECT_THROW((void)arena.MakeArray<uint8_t>(32 * 1024), ArenaExhausted);
  EXPECT_EQ(process.used(), 0u);
  EXPECT_EQ(request.used(), 0u);
}

#if QMATCH_FAULT_ENABLED
TEST(ArenaTest, AllocFailpointThrowsArenaExhausted) {
  Arena arena(/*block_bytes=*/4096);
  uint8_t* before = arena.MakeArray<uint8_t>(1024);  // block 0 exists
  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  {
    fault::ScopedFailpoint fp("arena.alloc", spec);
    // Within the existing block: no AddBlock, so the failpoint is not hit.
    (void)arena.MakeArray<uint8_t>(512);
    // Forcing a new block hits the failpoint and throws.
    EXPECT_THROW((void)arena.MakeArray<uint8_t>(16 * 1024), ArenaExhausted);
    EXPECT_GE(fp.stats().fires, 1u);
  }
  // Disarmed again: growth succeeds and old memory is still valid.
  uint8_t* after = arena.MakeArray<uint8_t>(16 * 1024);
  ASSERT_NE(after, nullptr);
  std::memset(before, 2, 1024);
  std::memset(after, 3, 16 * 1024);
}

TEST(ArenaTest, EngineMapsArenaExhaustionToResourceExhausted) {
  // End-to-end: with the SoA kernel active, a fired arena.alloc failpoint
  // must surface as the typed kResourceExhausted — not kInternal — per the
  // engine's status contract (MatchEngine::Match catches ArenaExhausted
  // ahead of the std::exception catch-all).
  const datagen::MatchTask& task = datagen::Tasks().front();
  const xsd::Schema source = task.source();
  const xsd::Schema target = task.target();
  core::MatchEngineOptions options;
  options.threads = 1;
  options.cache_capacity = 0;
  core::MatchEngine engine(options);

  fault::FaultSpec spec;
  spec.action = fault::FaultAction::kError;
  {
    fault::ScopedFailpoint fp("arena.alloc", spec);
    core::EngineMatchResult out = engine.Match(source, target, {});
    EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted)
        << out.status.ToString();
    EXPECT_GE(fp.stats().fires, 1u);
  }
  // Disarmed, the same request succeeds.
  core::EngineMatchResult ok = engine.Match(source, target, {});
  EXPECT_TRUE(ok.ok()) << ok.status.ToString();
}
#endif  // QMATCH_FAULT_ENABLED

TEST(ArenaSoakTest, PerThreadArenasNeverAlias) {
  // 8 threads, each with its own arena (the documented model: one arena
  // per request, owned by one thread). Every thread writes a distinct
  // pattern into every byte it is handed and verifies all of it afterward;
  // any cross-arena aliasing would corrupt a neighbour's pattern.
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 50;
  std::vector<std::thread> threads;
  std::vector<int> failures(kThreads, 0);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &failures] {
      const uint8_t pattern = static_cast<uint8_t>(0x11 * (t + 1));
      Arena arena(/*block_bytes=*/2048);
      for (size_t round = 0; round < kRounds; ++round) {
        arena.Reset();
        std::vector<std::pair<uint8_t*, size_t>> chunks;
        for (size_t k = 0; k < 64; ++k) {
          const size_t bytes = 1 + (t * 37 + round * 13 + k * 7) % 500;
          uint8_t* p = static_cast<uint8_t*>(arena.Allocate(bytes, 8));
          std::memset(p, pattern, bytes);
          chunks.emplace_back(p, bytes);
        }
        for (const auto& [p, bytes] : chunks) {
          for (size_t b = 0; b < bytes; ++b) {
            if (p[b] != pattern) {
              ++failures[t];
              break;
            }
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace qmatch
