/**
 * @file
 * Host-side allocator for per-DPU MRAM address space.
 *
 * Every DPU in a DpuSet shares one address map: the orchestrator
 * stages the same layout into each DPU's private MRAM bank, so one
 * allocator instance manages the region placement for the whole set.
 * The allocator is a deterministic first-fit free list over a byte
 * arena — identical call sequences produce identical addresses, which
 * the execution engine's determinism contract relies on (region
 * addresses feed kernel parameters and footprints, never wall-clock).
 *
 * The resident ciphertext cache (pimhe/resident.h) builds its LRU
 * eviction on top of this: it asks for a region, and on failure frees
 * least-recently-used cache entries until the allocation fits.
 */

#ifndef PIMHE_PIM_MRAM_ALLOCATOR_H
#define PIMHE_PIM_MRAM_ALLOCATOR_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace pimhe {
namespace pim {

/**
 * Deterministic first-fit allocator with coalescing free lists.
 * Addresses and sizes are always multiples of the 8-byte DMA
 * granularity, so every region a kernel receives is DMA-aligned.
 */
class MramAllocator
{
  public:
    /** Allocation granularity (the hardware DMA alignment). */
    static constexpr std::uint64_t kAlign = 8;

    /**
     * @param base     First byte of the managed arena.
     * @param capacity Arena size in bytes.
     */
    MramAllocator(std::uint64_t base, std::uint64_t capacity);

    /**
     * Reserve `bytes` (rounded up to kAlign). Returns the region's
     * base address, or nullopt when no free block fits — the caller
     * decides what to evict and retries.
     */
    std::optional<std::uint64_t> allocate(std::uint64_t bytes);

    /** Return a region obtained from allocate(). Panics on a foreign
     *  or double free (allocator state corruption is never silent). */
    void release(std::uint64_t addr);

    std::uint64_t capacity() const { return capacity_; }
    std::uint64_t bytesInUse() const { return inUse_; }
    std::uint64_t bytesFree() const { return capacity_ - inUse_; }
    std::size_t freeBlockCount() const { return free_.size(); }

    /** Largest single allocation that would currently succeed. */
    std::uint64_t largestFreeBlock() const;

    /**
     * Human-readable diagnosis of why an allocation of `requestBytes`
     * cannot succeed right now: free bytes vs. the largest contiguous
     * block (the fragmentation gap), live-region and free-block
     * counts. Built for exhaustion panics so the operator sees
     * whether the arena is genuinely full or merely fragmented.
     */
    std::string exhaustionReport(std::uint64_t requestBytes) const;

  private:
    std::uint64_t base_;
    std::uint64_t capacity_;
    std::uint64_t inUse_ = 0;
    std::map<std::uint64_t, std::uint64_t> free_;      //!< addr -> bytes
    std::map<std::uint64_t, std::uint64_t> allocated_; //!< addr -> bytes
};

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_MRAM_ALLOCATOR_H
