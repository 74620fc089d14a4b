/**
 * @file
 * Device-resident ciphertext cache.
 *
 * Staging every operand before every launch makes host<->DPU transfer
 * the dominant cost of chained homomorphic pipelines (the bandwidth
 * the paper measures is ~6 GB/s against 158 GB of PIM memory sitting
 * idle between launches). This layer keeps flattened ciphertext
 * slices pinned in per-DPU MRAM between launches so chained
 * operations reuse them in place:
 *
 *  - MramAllocator (pim/mram_allocator.h) manages one arena mirrored
 *    across every DPU of the set — a region lives at the same byte
 *    offset on all DPUs, so one kernel parameter block addresses all
 *    of them;
 *  - ResidentCache tracks ref-style entries with host/device validity
 *    (dirty = result produced on the device and never downloaded),
 *    evicts least-recently-used unpinned entries under MRAM capacity
 *    pressure, and pays a download only for evicted *dirty* regions;
 *  - the cache is a pure memory/transfer manager: kernels are built
 *    and launched by PimHeSystem (orchestrator.h), which pins the
 *    entries an operation touches so eviction can never pull an
 *    operand out from under a launch.
 *
 * Layout ("transposed" relative to the staged elementwise path): the
 * flat coefficient space of one ciphertext (comps * n elements,
 * component-major) is split into one contiguous slice per DPU, padded
 * to the DMA granule; DPU d holds elements [d * perDpu, (d+1) *
 * perDpu). A multi-ciphertext region packs the slices of ciphertext j
 * at `addr + j * sliceBytes`, which makes tree reduction fully
 * DPU-local: every fold adds two slices that already sit in the same
 * MRAM bank.
 *
 * Determinism contract: every allocator and eviction decision runs on
 * the calling thread in program order, and uploads/downloads are
 * issued in DPU index order, so modelled transfer totals and cache
 * stats are bit-identical at any host thread count (flattening fans
 * out across the host pool, but only into disjoint buffers).
 */

#ifndef PIMHE_PIMHE_RESIDENT_H
#define PIMHE_PIMHE_RESIDENT_H

#include <cstring>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "bfv/ciphertext.h"
#include "bfv/context.h"
#include "pim/mram_allocator.h"
#include "pim/system.h"

namespace pimhe {

/**
 * Opaque handle to a cache entry. Obtained from PimHeSystem's
 * resident API; using a handle after dropping it (or after an
 * operation consumed it) panics.
 */
struct ResidentCiphertext
{
    std::uint64_t id = 0;
    bool valid() const { return id != 0; }
};

/** Lifetime counters of one ResidentCache. */
struct ResidentCacheStats
{
    std::uint64_t hits = 0;   //!< ensureResident found the region
    std::uint64_t misses = 0; //!< ensureResident had to upload
    std::uint64_t evictions = 0;
    std::uint64_t dirtyEvictions = 0; //!< evictions that paid a download
    std::uint64_t uploadedBytes = 0;  //!< bus bytes spent on uploads
    std::uint64_t downloadedBytes = 0;
    std::uint64_t bytesAvoided = 0; //!< re-uploads skipped via residency
};

/** Count one orchestrated op under `name` when metrics are on. */
inline void
bumpOpCounter(const char *name)
{
    obs::Registry &reg = obs::Registry::global();
    if (reg.enabled())
        reg.counter(name).add(1);
}

/**
 * The host side of every MRAM staging layout: copy flat elements
 * [begin, begin + count) of `cts` into `buf`, N 32-bit limbs each,
 * zero-filling the rest of `buf`. Flat element f is coefficient f % n
 * of component (f / n) % comps of ciphertext f / (comps * n).
 */
template <std::size_t N>
void
flattenSlice(std::span<const Ciphertext<N>> cts, std::size_t n,
             std::size_t begin, std::size_t count,
             std::span<std::uint8_t> buf)
{
    const std::size_t comps = cts.front().size();
    std::fill(buf.begin(), buf.end(), 0);
    for (std::size_t e = 0; e < count; ++e) {
        const std::size_t flat = begin + e;
        if (flat >= cts.size() * comps * n)
            break;
        const auto &coeff =
            cts[flat / (comps * n)][(flat / n) % comps][flat % n];
        for (std::size_t l = 0; l < N; ++l) {
            const std::uint32_t v = coeff.limb(l);
            std::memcpy(buf.data() + e * N * 4 + l * 4, &v, 4);
        }
    }
}

/** Inverse of flattenSlice into already-sized ciphertexts. */
template <std::size_t N>
void
unflattenSlice(std::span<const std::uint8_t> buf, std::size_t n,
               std::size_t begin, std::size_t count,
               std::span<Ciphertext<N>> out)
{
    const std::size_t comps = out.front().size();
    for (std::size_t e = 0; e < count; ++e) {
        const std::size_t flat = begin + e;
        if (flat >= out.size() * comps * n)
            break;
        WideInt<N> coeff;
        for (std::size_t l = 0; l < N; ++l) {
            std::uint32_t v;
            std::memcpy(&v, buf.data() + e * N * 4 + l * 4, 4);
            coeff.setLimb(l, v);
        }
        out[flat / (comps * n)][(flat / n) % comps][flat % n] = coeff;
    }
}

/**
 * Host-side manager of device-resident ciphertext regions.
 *
 * @tparam N Coefficient limb count.
 */
template <std::size_t N>
class ResidentCache
{
  public:
    /** Per-DPU slice geometry of a ciphertext with `comps`
     *  components. */
    struct Shape
    {
        std::size_t comps = 0;
        std::size_t perDpu = 0; //!< unpadded flat elements per DPU
        std::uint64_t sliceBytes = 0; //!< padded per-DPU slice stride

        bool
        operator==(const Shape &o) const
        {
            return comps == o.comps && perDpu == o.perDpu &&
                   sliceBytes == o.sliceBytes;
        }
    };

    ResidentCache(const BfvContext<N> &ctx, pim::DpuSet &dpus)
        : ctx_(ctx), dpus_(dpus), alloc_(0, arenaBytes(dpus.config()))
    {}

    /** MRAM bytes per DPU the cache manages. */
    static std::uint64_t
    arenaBytes(const pim::SystemConfig &cfg)
    {
        const std::uint64_t mram = cfg.dpu.mramBytes;
        return cfg.residentCapacityBytes == 0
                   ? mram
                   : std::min<std::uint64_t>(cfg.residentCapacityBytes,
                                             mram);
    }

    Shape
    shapeFor(std::size_t comps) const
    {
        Shape s;
        s.comps = comps;
        const std::size_t total = comps * ctx_.ring().degree();
        s.perDpu = (total + dpus_.size() - 1) / dpus_.size();
        const std::size_t eb = N * 4;
        // Slice stride must be a multiple of both the element size
        // and the 8-byte DMA granule so packed slices stay aligned.
        const std::size_t gran = eb < 8 ? 8 : eb;
        s.sliceBytes = (s.perDpu * eb + gran - 1) / gran * gran;
        return s;
    }

    /**
     * Register `cts` as one packed region (slice of ciphertext j at
     * `addr + j * sliceBytes`). Host-valid, not yet on the device —
     * the upload happens at the first ensureResident.
     */
    std::uint64_t
    insert(std::vector<Ciphertext<N>> cts)
    {
        PIMHE_ASSERT(!cts.empty(), "empty resident insert");
        Entry e;
        e.shape = shapeFor(cts.front().size());
        for (const auto &ct : cts)
            PIMHE_ASSERT(ct.size() == e.shape.comps,
                         "ragged ciphertexts in one resident region");
        e.count = static_cast<std::uint32_t>(cts.size());
        e.hostValid = true;
        e.host = std::move(cts);
        const std::uint64_t id = nextId_++;
        entries_.emplace(id, std::move(e));
        return id;
    }

    /**
     * Allocate a device-only region for an operation's output: `count`
     * ciphertexts of `comps` components each, dirty from birth (the
     * kernel writes it; the host has no copy until materialize).
     */
    std::uint64_t
    allocDeviceOnly(std::size_t comps, std::uint32_t count)
    {
        Entry e;
        e.shape = shapeFor(comps);
        e.count = count;
        e.regionBytes = e.shape.sliceBytes * count;
        e.addr = allocateWithEviction(e.regionBytes);
        e.deviceValid = true;
        const std::uint64_t id = nextId_++;
        // Dirty from birth: the kernel's write is the only copy.
        dpus_.plan().noteAlloc(id, e.addr, e.regionBytes,
                               "resident region " + std::to_string(id));
        dpus_.plan().noteDirty(id, true);
        entries_.emplace(id, std::move(e));
        return id;
    }

    /**
     * Make the entry's region valid on every DPU, uploading from the
     * host copy if it is not already resident. Returns the region's
     * per-DPU base address.
     */
    std::uint64_t
    ensureResident(std::uint64_t id)
    {
        Entry &e = entry(id);
        touch(e);
        if (e.deviceValid) {
            const std::uint64_t avoided =
                e.count * e.shape.sliceBytes * dpus_.size();
            stats_.hits += 1;
            stats_.bytesAvoided += avoided;
            dpus_.noteResidentReuse(avoided);
            bumpOpCounter("pimhe.resident.hits");
            recordResidencyCounter();
            return e.addr;
        }
        PIMHE_ASSERT(e.hostValid, "entry resident nowhere");
        e.regionBytes = e.shape.sliceBytes * e.count;
        e.addr = allocateWithEviction(e.regionBytes);
        uploadEntry(e);
        e.deviceValid = true;
        dpus_.plan().noteAlloc(id, e.addr, e.regionBytes,
                               "resident region " + std::to_string(id));
        stats_.misses += 1;
        bumpOpCounter("pimhe.resident.misses");
        recordResidencyCounter();
        return e.addr;
    }

    /**
     * Sample the cumulative hit/miss/reuse totals as a Chrome counter
     * on the host track, so Perfetto shows residency behaviour as a
     * stepped track next to the op spans.
     */
    void
    recordResidencyCounter() const
    {
        obs::Tracer &tracer = obs::Tracer::global();
        if (!tracer.enabled())
            return;
        obs::TraceCounter c;
        c.pid = obs::Tracer::kHostPid;
        c.tid = 0;
        c.name = "pimhe.resident";
        c.tsUs = tracer.nowUs();
        c.values = {
            {"hits", static_cast<double>(stats_.hits)},
            {"misses", static_cast<double>(stats_.misses)},
            {"bytes_avoided",
             static_cast<double>(stats_.bytesAvoided)}};
        tracer.recordCounter(std::move(c));
    }

    /**
     * Host view of the entry, downloading from the device first when
     * the host copy is stale or missing. The device copy stays valid.
     */
    const std::vector<Ciphertext<N>> &
    materialize(std::uint64_t id)
    {
        Entry &e = entry(id);
        touch(e);
        if (!e.hostValid) {
            PIMHE_ASSERT(e.deviceValid, "entry resident nowhere");
            downloadEntry(e);
            e.hostValid = true;
            // Host copy is fresh again; a clobber is now recoverable.
            dpus_.plan().noteDirty(id, false);
        }
        return e.host;
    }

    /** Release the entry: frees its device region, drops host data. */
    void
    drop(std::uint64_t id)
    {
        Entry &e = entry(id);
        if (e.deviceValid) {
            alloc_.release(e.addr);
            dpus_.plan().noteFree(id);
        }
        entries_.erase(id);
    }

    /** Pin/unpin: pinned entries are never eviction candidates. */
    void
    pin(std::uint64_t id)
    {
        entry(id).pinned = true;
        dpus_.plan().notePin(id, true);
    }

    void
    unpin(std::uint64_t id)
    {
        entry(id).pinned = false;
        dpus_.plan().notePin(id, false);
    }

    /**
     * The entry finished an in-place tree reduction: the result is the
     * single ciphertext in slice 0, computed on the device; any host
     * copy is stale. The oversized region is kept until drop (the
     * allocator frees whole blocks).
     */
    void
    noteReduced(std::uint64_t id)
    {
        Entry &e = entry(id);
        PIMHE_ASSERT(e.deviceValid, "reduced entry must be resident");
        e.count = 1;
        e.hostValid = false;
        e.host.clear();
        dpus_.plan().noteDirty(id, true);
    }

    const Shape &shape(std::uint64_t id) { return entry(id).shape; }
    std::uint32_t count(std::uint64_t id) { return entry(id).count; }

    /** Device address of an already-resident entry, without the
     *  hit/miss accounting of ensureResident (used for freshly
     *  allocated op outputs, which are not operand reuse). */
    std::uint64_t
    addrOf(std::uint64_t id)
    {
        Entry &e = entry(id);
        PIMHE_ASSERT(e.deviceValid, "addrOf on non-resident entry");
        touch(e);
        return e.addr;
    }

    /**
     * Raw arena allocation for launch scratch (e.g. the staged
     * elementwise path's operand/result arrays). Shares the arena —
     * and the eviction pressure — with resident entries, so scratch
     * can never silently clobber a cached region.
     */
    std::uint64_t
    allocScratch(std::uint64_t bytes)
    {
        const std::uint64_t addr = allocateWithEviction(bytes);
        scratch_.insert(addr);
        dpus_.plan().noteAlloc(scratchPlanId(addr), addr, bytes,
                               "launch scratch");
        return addr;
    }

    /**
     * Two equal scratch regions for double-buffered pipeline staging,
     * with the same eviction pressure as any other arena request.
     * Both slots are registered as scratch and announced to the plan
     * verifier, so footprints over either slot are checked exactly
     * like the synchronous staged path's.
     */
    pim::DoubleBuffer
    allocScratchDouble(std::uint64_t bytes)
    {
        for (;;) {
            if (auto buf = alloc_.allocateDouble(bytes)) {
                for (const std::uint64_t addr : buf->slot) {
                    scratch_.insert(addr);
                    dpus_.plan().noteAlloc(scratchPlanId(addr), addr,
                                           buf->bytes,
                                           "pipeline staging slot");
                }
                return *buf;
            }
            if (!evictOne())
                panic("resident arena exhausted: need 2x ", bytes,
                      " bytes for double-buffered staging and "
                      "nothing evictable; ",
                      alloc_.exhaustionReport(2 * bytes));
        }
    }

    void
    freeScratchDouble(const pim::DoubleBuffer &buf)
    {
        freeScratch(buf.slot[0]);
        freeScratch(buf.slot[1]);
    }

    void
    freeScratch(std::uint64_t addr)
    {
        PIMHE_ASSERT(scratch_.erase(addr) == 1,
                     "freeScratch of unknown region ", addr);
        alloc_.release(addr);
        dpus_.plan().noteFree(scratchPlanId(addr));
    }

    /** Plan-verifier id of a scratch region. Scratch is keyed by
     *  address, which can collide with the entry id counter; the top
     *  bit keeps the two namespaces apart. */
    static std::uint64_t
    scratchPlanId(std::uint64_t addr)
    {
        return (1ull << 63) | addr;
    }

    const ResidentCacheStats &stats() const { return stats_; }
    const pim::MramAllocator &allocator() const { return alloc_; }

  private:
    struct Entry
    {
        Shape shape;
        std::uint32_t count = 1;
        std::uint64_t addr = 0;
        std::uint64_t regionBytes = 0; //!< allocated (>= logical) bytes
        bool deviceValid = false;
        bool hostValid = false;
        bool pinned = false;
        std::uint64_t lastUse = 0;
        std::vector<Ciphertext<N>> host;
    };

    Entry &
    entry(std::uint64_t id)
    {
        const auto it = entries_.find(id);
        PIMHE_ASSERT(it != entries_.end(),
                     "use of dropped/consumed resident handle ", id);
        return it->second;
    }

    void touch(Entry &e) { e.lastUse = ++tick_; }

    /**
     * First-fit allocation, evicting LRU unpinned entries until the
     * request fits. Deterministic: eviction order depends only on the
     * sequential touch ticks.
     */
    std::uint64_t
    allocateWithEviction(std::uint64_t bytes)
    {
        for (;;) {
            if (auto addr = alloc_.allocate(bytes))
                return *addr;
            if (!evictOne())
                panic("resident arena exhausted: need ", bytes,
                      " bytes and nothing evictable; ",
                      alloc_.exhaustionReport(bytes));
        }
    }

    /** Evict the least-recently-used unpinned resident entry;
     *  downloads it first when dirty. False when none qualifies. */
    bool
    evictOne()
    {
        Entry *victim = nullptr;
        std::uint64_t victim_id = 0;
        for (auto &kv : entries_) {
            Entry &e = kv.second;
            if (!e.deviceValid || e.pinned)
                continue;
            if (victim == nullptr || e.lastUse < victim->lastUse) {
                victim = &e;
                victim_id = kv.first;
            }
        }
        if (victim == nullptr)
            return false;
        if (!victim->hostValid) {
            downloadEntry(*victim);
            victim->hostValid = true;
            stats_.dirtyEvictions += 1;
            bumpOpCounter("pimhe.resident.evictions_dirty");
        }
        alloc_.release(victim->addr);
        victim->deviceValid = false;
        dpus_.plan().noteFree(victim_id);
        stats_.evictions += 1;
        bumpOpCounter("pimhe.resident.evictions");
        return true;
    }

    void
    uploadEntry(Entry &e)
    {
        const std::size_t num_dpus = dpus_.size();
        const std::uint64_t region = e.shape.sliceBytes * e.count;
        std::vector<std::uint8_t> buf(num_dpus * region);
        dpus_.hostPool().parallelFor(num_dpus, [&](std::size_t d) {
            for (std::uint32_t j = 0; j < e.count; ++j)
                flattenSlice<N>({&e.host[j], 1}, ctx_.ring().degree(),
                                d * e.shape.perDpu, e.shape.perDpu,
                                {buf.data() + d * region +
                                     j * e.shape.sliceBytes,
                                 e.shape.sliceBytes});
        });
        for (std::size_t d = 0; d < num_dpus; ++d)
            dpus_.copyToMram(
                d, e.addr,
                std::span<const std::uint8_t>(buf.data() + d * region,
                                              region));
        stats_.uploadedBytes += num_dpus * region;
    }

    void
    downloadEntry(Entry &e)
    {
        const std::size_t n = ctx_.ring().degree();
        const std::size_t num_dpus = dpus_.size();
        const std::uint64_t region = e.shape.sliceBytes * e.count;
        std::vector<std::uint8_t> buf(num_dpus * region);
        for (std::size_t d = 0; d < num_dpus; ++d)
            dpus_.copyFromMram(
                d, e.addr,
                std::span<std::uint8_t>(buf.data() + d * region,
                                        region));
        e.host.assign(e.count, Ciphertext<N>{});
        for (auto &ct : e.host)
            for (std::size_t c = 0; c < e.shape.comps; ++c)
                ct.comps.emplace_back(n);
        dpus_.hostPool().parallelFor(num_dpus, [&](std::size_t d) {
            for (std::uint32_t j = 0; j < e.count; ++j)
                unflattenSlice<N>({buf.data() + d * region +
                                       j * e.shape.sliceBytes,
                                   e.shape.sliceBytes},
                                  n, d * e.shape.perDpu, e.shape.perDpu,
                                  {&e.host[j], 1});
        });
        stats_.downloadedBytes += num_dpus * region;
    }

    const BfvContext<N> &ctx_;
    pim::DpuSet &dpus_;
    pim::MramAllocator alloc_;
    std::map<std::uint64_t, Entry> entries_;
    std::set<std::uint64_t> scratch_;
    std::uint64_t nextId_ = 1;
    std::uint64_t tick_ = 0;
    ResidentCacheStats stats_;
};

} // namespace pimhe

#endif // PIMHE_PIMHE_RESIDENT_H
