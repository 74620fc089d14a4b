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
 * Layout (Geometry below, shared with the staged elementwise path):
 * the flat coefficient space of one ciphertext (comps * n elements,
 * component-major) is split into one contiguous slice per DPU, padded
 * to the DMA granule; DPU d holds elements [d * perDpu, (d+1) *
 * perDpu). A multi-ciphertext region packs the slices of ciphertext j
 * at `addr + j * stride`, which makes tree reduction fully DPU-local:
 * every fold adds two slices that already sit in the same MRAM bank.
 * The staged path uses the same code with the whole operand vector in
 * one slice, and both move bytes through the one stage/collect pair.
 *
 * Determinism contract: every allocator and eviction decision runs on
 * the calling thread in program order, and uploads/downloads are
 * issued in DPU index order, so modelled transfer totals and cache
 * stats are bit-identical at any host thread count (flattening fans
 * out across the host pool, but only into disjoint buffers).
 */

#ifndef PIMHE_PIMHE_RESIDENT_H
#define PIMHE_PIMHE_RESIDENT_H

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <span>
#include <type_traits>
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
 * A coefficient is staged as its N 32-bit limbs, little-endian, which
 * is how a WideInt<N> already lies in memory: a run of coefficients
 * stages with one memcpy.
 */
template <std::size_t N>
constexpr bool kStagedAsStored =
    sizeof(WideInt<N>) == N * 4 &&
    std::is_trivially_copyable_v<WideInt<N>> &&
    std::endian::native == std::endian::little;

/**
 * The host side of every MRAM staging layout: copy flat elements
 * [begin, begin + count) of `cts` into `buf`, N 32-bit limbs each,
 * zero-filling the rest of `buf`. Flat element f is coefficient f % n
 * of component (f / n) % comps of ciphertext f / (comps * n); each run
 * inside one component is one memcpy.
 */
template <std::size_t N>
void
flattenSlice(std::span<const Ciphertext<N>> cts, std::size_t n,
             std::size_t begin, std::size_t count,
             std::span<std::uint8_t> buf)
{
    static_assert(kStagedAsStored<N>);
    PIMHE_ASSERT(buf.size() >= count * N * 4, "staging buffer of ",
                 buf.size(), " bytes holds fewer than ", count,
                 " elements");
    const std::size_t comps = cts.front().size();
    const std::size_t total = cts.size() * comps * n;
    std::size_t e = 0;
    for (std::size_t flat = begin; e < count && flat < total;) {
        const std::size_t run = std::min(count - e, n - flat % n);
        const auto &comp = cts[flat / (comps * n)][(flat / n) % comps];
        std::memcpy(buf.data() + e * N * 4,
                    comp.coeffs().data() + flat % n, run * N * 4);
        e += run;
        flat += run;
    }
    std::fill(buf.begin() + e * N * 4, buf.end(), 0);
}

/** Inverse of flattenSlice into already-sized ciphertexts. */
template <std::size_t N>
void
unflattenSlice(std::span<const std::uint8_t> buf, std::size_t n,
               std::size_t begin, std::size_t count,
               std::span<Ciphertext<N>> out)
{
    static_assert(kStagedAsStored<N>);
    const std::size_t comps = out.front().size();
    const std::size_t total = out.size() * comps * n;
    std::size_t e = 0;
    for (std::size_t flat = begin; e < count && flat < total;) {
        const std::size_t run = std::min(count - e, n - flat % n);
        auto &comp = out[flat / (comps * n)][(flat / n) % comps];
        std::memcpy(comp.coeffs().data() + flat % n,
                    buf.data() + e * N * 4, run * N * 4);
        e += run;
        flat += run;
    }
}

/**
 * Per-DPU layout of one MRAM region: `slices` slices at `addr + j *
 * stride`, slice j holding ciphertexts [j * ctsPerSlice, (j + 1) *
 * ctsPerSlice) flattened and balanced over the DPUs by
 * pim::sliceLayout. The resident cache packs one ciphertext per slice
 * (so a tree fold adds slices that sit in the same bank); the staged
 * path puts a whole operand vector in one slice.
 */
struct Geometry
{
    std::size_t slices = 0;
    std::size_t ctsPerSlice = 0;
    std::size_t comps = 0;    //!< components per ciphertext
    std::size_t degree = 0;   //!< coefficients per component
    std::size_t perDpu = 0;   //!< elements of one slice per DPU
    std::uint64_t stride = 0; //!< bytes of one slice per DPU

    std::uint64_t regionBytes() const { return slices * stride; }
    bool operator==(const Geometry &) const = default;
};

/** Layout of `cts` (all with the same component count, every
 *  component `degree` coefficients) as `slices` equal slices spread
 *  over `dpus` DPUs. */
template <std::size_t N>
Geometry
geometryOf(std::span<const Ciphertext<N>> cts, std::size_t slices,
           std::size_t degree, std::size_t dpus)
{
    // Packed slices must hold whole elements and whole DMA granules.
    static_assert(8 % (N * 4) == 0 || (N * 4) % 8 == 0,
                  "slice strides must hold whole elements");
    const std::size_t comps = cts.front().size();
    for (std::size_t i = 0; i < cts.size(); ++i) {
        PIMHE_ASSERT(cts[i].size() == comps, "ragged ciphertext vector");
        // flattenSlice indexes `degree` coefficients per component.
        for (std::size_t c = 0; c < comps; ++c)
            PIMHE_ASSERT(cts[i][c].size() == degree, "ciphertext ", i,
                         " component ", c, " has ", cts[i][c].size(),
                         " coefficients, not the ring degree ", degree);
    }
    const std::size_t per_slice = cts.size() / slices;
    const pim::SliceLayout s =
        pim::sliceLayout(per_slice * comps * degree, dpus, N * 4);
    return {slices, per_slice, comps, degree, s.perDpu, s.stride};
}

/**
 * Stage: flatten every DPU's share of `cts` concurrently into disjoint
 * parts of the set's host staging buffer (flattenSlice writes every
 * byte, so no earlier contents leak), then copy them to `addr` in DPU
 * order so transfer accounting stays deterministic. Does not drain the
 * launch pipeline: the caller stages into a region no in-flight launch
 * touches, or drains first.
 */
template <std::size_t N>
void
stage(pim::DpuSet &dpus, std::span<const Ciphertext<N>> cts,
      std::uint64_t addr, const Geometry &g)
{
    obs::ScopedSpan span(obs::Tracer::global(), 0, "pimhe.stage");
    const std::size_t region = g.regionBytes();
    const std::span<std::uint8_t> buf =
        dpus.hostStagingBuffer(dpus.size() * region);
    dpus.hostPool().parallelFor(dpus.size(), [&](std::size_t d) {
        for (std::size_t j = 0; j < g.slices; ++j)
            flattenSlice<N>(cts.subspan(j * g.ctsPerSlice, g.ctsPerSlice),
                            g.degree, d * g.perDpu, g.perDpu,
                            {buf.data() + d * region + j * g.stride,
                             g.stride});
    });
    for (std::size_t d = 0; d < dpus.size(); ++d)
        dpus.copyToMramAsync(d, addr, {buf.data() + d * region, region});
}

/** Zero ciphertexts shaped like the region `g`: what collect fills. */
template <std::size_t N>
std::vector<Ciphertext<N>>
zeroCiphertexts(const Geometry &g)
{
    std::vector<Ciphertext<N>> out(g.slices * g.ctsPerSlice);
    for (auto &ct : out)
        for (std::size_t c = 0; c < g.comps; ++c)
            ct.comps.emplace_back(g.degree);
    return out;
}

/**
 * Collect: download every DPU's part of the region at `addr` in DPU
 * order into the set's host staging buffer, charged to launch
 * `launch_index` (which must be merged), then unflatten concurrently
 * into `out` (shaped by zeroCiphertexts(g)) — each DPU's elements map
 * to disjoint output coefficients.
 */
template <std::size_t N>
void
collect(pim::DpuSet &dpus, std::uint64_t addr, const Geometry &g,
        std::size_t launch_index, std::span<Ciphertext<N>> out)
{
    obs::ScopedSpan span(obs::Tracer::global(), 0, "pimhe.collect");
    PIMHE_ASSERT(out.size() == g.slices * g.ctsPerSlice,
                 "collect into ", out.size(), " ciphertexts, not ",
                 g.slices * g.ctsPerSlice);
    const std::size_t region = g.regionBytes();
    const std::span<std::uint8_t> buf =
        dpus.hostStagingBuffer(dpus.size() * region);
    for (std::size_t d = 0; d < dpus.size(); ++d)
        dpus.copyFromMramForLaunch(d, addr,
                                   {buf.data() + d * region, region},
                                   launch_index);
    dpus.hostPool().parallelFor(dpus.size(), [&](std::size_t d) {
        for (std::size_t j = 0; j < g.slices; ++j)
            unflattenSlice<N>(
                {buf.data() + d * region + j * g.stride, g.stride},
                g.degree, d * g.perDpu, g.perDpu,
                out.subspan(j * g.ctsPerSlice, g.ctsPerSlice));
    });
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
    ResidentCache(const BfvContext<N> &ctx, pim::DpuSet &dpus)
        : ctx_(ctx), dpus_(dpus),
          alloc_(0, dpus.config().residentArenaBytes())
    {}

    /**
     * Register `cts` as one packed region (slice of ciphertext j at
     * `addr + j * stride`). Host-valid, not yet on the device — the
     * upload happens at the first ensureResident.
     */
    std::uint64_t
    insert(std::vector<Ciphertext<N>> cts)
    {
        PIMHE_ASSERT(!cts.empty(), "empty resident insert");
        Entry e;
        // One slice per ciphertext, so folds stay DPU-local.
        e.layout = geometryOf<N>(std::span<const Ciphertext<N>>(cts),
                                 cts.size(), ctx_.ring().degree(),
                                 dpus_.size());
        e.hostValid = true;
        e.host = std::move(cts);
        const std::uint64_t id = nextId_++;
        entries_.emplace(id, std::move(e));
        return id;
    }

    /**
     * Allocate a device-only region of layout `g` for an operation's
     * output, dirty from birth (the kernel writes it; the host has no
     * copy until materialize).
     */
    std::uint64_t
    allocDeviceOnly(const Geometry &g)
    {
        Entry e;
        e.layout = g;
        e.addr = allocateWithEviction(g.regionBytes());
        e.deviceValid = true;
        const std::uint64_t id = nextId_++;
        // Dirty from birth: the kernel's write is the only copy.
        dpus_.plan().noteAlloc(id, e.addr, g.regionBytes(),
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
                e.layout.regionBytes() * dpus_.size();
            stats_.hits += 1;
            stats_.bytesAvoided += avoided;
            dpus_.noteResidentReuse(avoided);
            bumpOpCounter("pimhe.resident.hits");
            recordResidencyCounter();
            return e.addr;
        }
        PIMHE_ASSERT(e.hostValid, "entry resident nowhere");
        const std::uint64_t bytes = e.layout.regionBytes();
        e.addr = allocateWithEviction(bytes);
        // A plain upload makes no disjointness promise against
        // in-flight kernels, so it drains the pipeline first.
        dpus_.drainAsync();
        stage<N>(dpus_, e.host, e.addr, e.layout);
        stats_.uploadedBytes += dpus_.size() * bytes;
        e.deviceValid = true;
        dpus_.plan().noteAlloc(id, e.addr, bytes,
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
            download(e);
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
        e.layout.slices = 1;
        e.hostValid = false;
        e.host.clear();
        dpus_.plan().noteDirty(id, true);
    }

    /** Region layout of the entry (its slice count is the number of
     *  ciphertexts it holds). */
    const Geometry &layout(std::uint64_t id) { return entry(id).layout; }

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
     * Raw arena allocation for launch scratch (a staged op's A/B/Out
     * slot, freed when its result is harvested). Shares the arena —
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

  private:
    struct Entry
    {
        Geometry layout;
        std::uint64_t addr = 0;
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
            download(*victim);
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

    /** Host copy of a device-valid entry. Drains the pipeline and
     *  charges the most recent launch: every device-only value was
     *  written by one. */
    void
    download(Entry &e)
    {
        dpus_.drainAsync();
        e.host = zeroCiphertexts<N>(e.layout);
        collect<N>(dpus_, e.addr, e.layout, dpus_.launches().size() - 1,
                   e.host);
        stats_.downloadedBytes += dpus_.size() * e.layout.regionBytes();
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
