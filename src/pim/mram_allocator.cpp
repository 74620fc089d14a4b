#include "pim/mram_allocator.h"

#include "common/logging.h"

namespace pimhe {
namespace pim {

namespace {

inline std::uint64_t
roundUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) / align * align;
}

} // namespace

MramAllocator::MramAllocator(std::uint64_t base, std::uint64_t capacity)
    : base_(roundUp(base, kAlign)), capacity_(capacity / kAlign * kAlign)
{
    PIMHE_ASSERT(capacity_ >= kAlign,
                 "MRAM arena too small: ", capacity, " bytes");
    free_[base_] = capacity_;
}

std::optional<std::uint64_t>
MramAllocator::allocate(std::uint64_t bytes)
{
    PIMHE_ASSERT(bytes > 0, "zero-byte MRAM allocation");
    bytes = roundUp(bytes, kAlign);
    // First fit in address order keeps placement deterministic and
    // biases live regions toward low addresses, so coalesced free
    // space accumulates at the top of the arena.
    for (auto it = free_.begin(); it != free_.end(); ++it) {
        if (it->second < bytes)
            continue;
        const std::uint64_t addr = it->first;
        const std::uint64_t remaining = it->second - bytes;
        free_.erase(it);
        if (remaining > 0)
            free_[addr + bytes] = remaining;
        allocated_[addr] = bytes;
        inUse_ += bytes;
        return addr;
    }
    return std::nullopt;
}

void
MramAllocator::release(std::uint64_t addr)
{
    const auto it = allocated_.find(addr);
    PIMHE_ASSERT(it != allocated_.end(),
                 "MRAM release of unallocated address ", addr);
    const std::uint64_t bytes = it->second;
    allocated_.erase(it);
    inUse_ -= bytes;

    // Insert the block and coalesce with its address neighbours.
    auto ins = free_.emplace(addr, bytes).first;
    if (ins != free_.begin()) {
        auto prev = std::prev(ins);
        if (prev->first + prev->second == ins->first) {
            prev->second += ins->second;
            free_.erase(ins);
            ins = prev;
        }
    }
    auto next = std::next(ins);
    if (next != free_.end() &&
        ins->first + ins->second == next->first) {
        ins->second += next->second;
        free_.erase(next);
    }
}

std::string
MramAllocator::exhaustionReport(std::uint64_t requestBytes) const
{
    const std::uint64_t largest = largestFreeBlock();
    std::string report =
        "request=" + std::to_string(roundUp(requestBytes, kAlign)) +
        " bytes, free=" + std::to_string(bytesFree()) + " of " +
        std::to_string(capacity_) + " bytes in " +
        std::to_string(free_.size()) + " block(s), largest=" +
        std::to_string(largest) + " bytes, live regions=" +
        std::to_string(allocated_.size());
    if (roundUp(requestBytes, kAlign) <= bytesFree() &&
        roundUp(requestBytes, kAlign) > largest)
        report += " (fragmented: enough total free bytes but no "
                  "contiguous block fits)";
    return report;
}

std::uint64_t
MramAllocator::largestFreeBlock() const
{
    std::uint64_t best = 0;
    for (const auto &kv : free_)
        best = best < kv.second ? kv.second : best;
    return best;
}

} // namespace pim
} // namespace pimhe
