/**
 * @file
 * Stress and invariant tests of the MRAM arena allocator, including
 * the per-op staging-slot churn the async pipeline leans on.
 *
 * The allocator's contract: deterministic first-fit placement
 * (identical call sequences produce identical addresses — region
 * addresses feed kernel parameters, so this is part of the
 * simulator's determinism contract), full coalescing (fragmentation
 * from any alloc/free churn heals once regions are returned), and
 * loud failure (foreign/double frees panic; exhaustion produces a
 * diagnosis distinguishing "full" from "fragmented").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "pim/mram_allocator.h"

namespace pimhe {
namespace {

using namespace pimhe::pim;

constexpr std::uint64_t kBase = 1 << 20;
constexpr std::uint64_t kCap = 1 << 16; // 64 KB arena

// ----- staging-slot churn -----

TEST(MramAllocatorStress, StagingSlotChurnNeverFragments)
{
    MramAllocator arena(kBase, kCap);
    // Two in-flight staging slots (the async window) with an
    // odd-sized scalar region in between — the pipeline's real
    // allocation pattern when op streams change shape. Everything
    // must coalesce back to one free block after each full cycle.
    for (int cycle = 0; cycle < 64; ++cycle) {
        const std::uint64_t slot_bytes = 1000 + 8 * (cycle % 7);
        const auto older = arena.allocate(slot_bytes);
        const auto newer = arena.allocate(slot_bytes);
        ASSERT_TRUE(older && newer) << "cycle " << cycle;
        const auto acc = arena.allocate(504);
        ASSERT_TRUE(acc.has_value());
        EXPECT_NE(*older, *newer);

        // Interleave: drop the slots first on even cycles, the scalar
        // region first on odd ones, so coalescing is hit from both
        // sides.
        if (cycle % 2 == 0) {
            arena.release(*older);
            arena.release(*newer);
            arena.release(*acc);
        } else {
            arena.release(*acc);
            arena.release(*older);
            arena.release(*newer);
        }
        EXPECT_EQ(arena.bytesInUse(), 0u) << "cycle " << cycle;
        EXPECT_EQ(arena.freeBlockCount(), 1u) << "cycle " << cycle;
        EXPECT_EQ(arena.largestFreeBlock(), kCap) << "cycle " << cycle;
    }
}

// ----- deterministic first-fit placement -----

/** One mixed alloc/free schedule; returns every address handed out. */
std::vector<std::uint64_t>
replaySchedule()
{
    MramAllocator arena(kBase, kCap);
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> live;
    // A fixed pseudo-random schedule (LCG, seeded constant) of
    // allocations with interleaved frees of every third region.
    std::uint64_t state = 0x9E3779B97F4A7C15ull;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint64_t bytes = 8 + (state >> 33) % 2048;
        auto r = arena.allocate(bytes);
        if (!r.has_value()) {
            // Exhausted: free the oldest half and retry once.
            const std::size_t half = live.size() / 2;
            for (std::size_t j = 0; j < half; ++j)
                arena.release(live[j]);
            live.erase(live.begin(), live.begin() + half);
            r = arena.allocate(bytes);
            if (!r.has_value())
                continue;
        }
        addrs.push_back(*r);
        live.push_back(*r);
        if (i % 3 == 2 && !live.empty()) {
            arena.release(live.front());
            live.erase(live.begin());
        }
    }
    return addrs;
}

TEST(MramAllocatorStress, FirstFitPlacementReplaysIdentically)
{
    const auto first = replaySchedule();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, replaySchedule());
    EXPECT_EQ(first, replaySchedule());
}

TEST(MramAllocator, FirstFitPrefersLowestFittingHole)
{
    MramAllocator arena(kBase, kCap);
    const auto a = arena.allocate(1024);
    const auto b = arena.allocate(64);
    const auto c = arena.allocate(1024);
    ASSERT_TRUE(a && b && c);
    arena.release(*a);
    // A request that fits the first hole must take it...
    const auto d = arena.allocate(512);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(*d, *a);
    // ...and one that does not skips to the tail.
    const auto e = arena.allocate(2048);
    ASSERT_TRUE(e.has_value());
    EXPECT_GT(*e, *c);
}

// ----- alignment -----

TEST(MramAllocator, EveryAddressIsDmaAligned)
{
    MramAllocator arena(kBase, kCap);
    for (const std::uint64_t bytes : {1ull, 7ull, 8ull, 9ull, 513ull}) {
        const auto r = arena.allocate(bytes);
        ASSERT_TRUE(r.has_value());
        EXPECT_EQ(*r % MramAllocator::kAlign, 0u) << bytes;
    }
}

// ----- exhaustion diagnostics -----

TEST(MramAllocator, ExhaustionReportDiagnosesFragmentation)
{
    MramAllocator arena(kBase, kCap);
    // Build a fragmented arena: allocate everything in 1 KB regions,
    // free every other one. Half the bytes are free, but no hole
    // exceeds 1 KB.
    std::vector<std::uint64_t> regions;
    while (true) {
        const auto r = arena.allocate(1024);
        if (!r.has_value())
            break;
        regions.push_back(*r);
    }
    for (std::size_t i = 0; i < regions.size(); i += 2)
        arena.release(regions[i]);
    EXPECT_GE(arena.bytesFree(), 4096u);
    EXPECT_EQ(arena.largestFreeBlock(), 1024u);
    EXPECT_FALSE(arena.allocate(2048).has_value());

    const std::string report = arena.exhaustionReport(2048);
    // The operator must be able to tell "fragmented" from "full":
    // the report carries the request, the free total and the largest
    // contiguous block.
    EXPECT_NE(report.find("2048"), std::string::npos) << report;
    EXPECT_NE(report.find("largest=1024"), std::string::npos) << report;
    EXPECT_NE(report.find("fragmented"), std::string::npos) << report;
}

TEST(MramAllocator, ReportsFullWhenGenuinelyFull)
{
    MramAllocator arena(kBase, kCap);
    const auto all = arena.allocate(kCap);
    ASSERT_TRUE(all.has_value());
    EXPECT_EQ(arena.bytesFree(), 0u);
    EXPECT_EQ(arena.largestFreeBlock(), 0u);
    const std::string report = arena.exhaustionReport(8);
    EXPECT_NE(report.find("free"), std::string::npos) << report;
    arena.release(*all);
    EXPECT_EQ(arena.largestFreeBlock(), kCap);
}

// ----- loud failure on misuse -----

TEST(MramAllocatorDeathTest, DoubleFreePanics)
{
    MramAllocator arena(kBase, kCap);
    const auto r = arena.allocate(64);
    ASSERT_TRUE(r.has_value());
    arena.release(*r);
    EXPECT_DEATH(arena.release(*r), "");
}

TEST(MramAllocatorDeathTest, ForeignFreePanics)
{
    MramAllocator arena(kBase, kCap);
    const auto r = arena.allocate(64);
    ASSERT_TRUE(r.has_value());
    EXPECT_DEATH(arena.release(*r + MramAllocator::kAlign), "");
}

} // namespace
} // namespace pimhe
