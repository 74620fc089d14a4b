/**
 * @file
 * Functional + timing model of a single UPMEM-like DPU.
 *
 * Kernels are C++ callables invoked once per tasklet against a
 * TaskletCtx. Every intrinsic both computes the real value and charges
 * issue slots (and DMA stalls) to the tasklet, so the simulator is
 * simultaneously a correctness oracle and a cycle model. The paper's
 * two load-bearing hardware properties are modelled directly:
 *
 *  - native 32-bit add / add-with-carry (1 issue slot each), and
 *  - no native wide multiply: an 8x8 hardware multiplier plus a
 *    mul_step-based shift-and-add sequence for 32-bit products.
 */

#ifndef PIMHE_PIM_DPU_H
#define PIMHE_PIM_DPU_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "pim/checker.h"
#include "pim/config.h"
#include "pim/stats.h"

namespace pimhe {
namespace pim {

/** 64 KB working scratchpad, word-addressable from kernels. */
class Wram
{
  public:
    explicit Wram(std::size_t bytes) : data_(bytes, 0) {}

    std::size_t size() const { return data_.size(); }

    std::uint32_t
    load32(std::uint32_t addr) const
    {
        checkRange(addr, 4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data_[addr + i]) << (8 * i);
        return v;
    }

    void
    store32(std::uint32_t addr, std::uint32_t v)
    {
        checkRange(addr, 4);
        for (int i = 0; i < 4; ++i)
            data_[addr + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }

    std::uint8_t *raw() { return data_.data(); }
    const std::uint8_t *raw() const { return data_.data(); }

    void
    checkRange(std::uint64_t addr, std::uint64_t bytes) const
    {
        PIMHE_ASSERT(addr + bytes <= data_.size(),
                     "WRAM access out of range: addr=", addr,
                     " bytes=", bytes);
    }

  private:
    std::vector<std::uint8_t> data_;
};

/**
 * 64 MB DRAM bank. Only reachable from kernels through DMA transfers;
 * the host reads/writes it directly between launches — or, with the
 * pipelined launch engine, WHILE a kernel runs against a disjoint
 * region (each in-flight op stages into its own slot).
 *
 * Backing storage is a fixed table of lazily-installed 1 MB chunks so
 * thousands of mostly-idle DPUs stay cheap to model, and so growth is
 * safe under that overlap: the old contiguous-vector backing resized
 * on first touch, which would have raced (pointer invalidation plus
 * unsynchronised size reads) the moment a host upload overlapped a
 * kernel's DMA. Here the chunk table never moves; a chunk pointer is
 * installed at most once under a mutex with a release store and read
 * with an acquire load, an absent chunk reads as zeros (preserving the
 * lazy-zero semantics), and concurrent accesses to disjoint byte
 * ranges touch disjoint memory. Accesses to OVERLAPPING ranges remain
 * the caller's responsibility — the pipeline engine guarantees
 * disjointness by giving every in-flight op its own staging slot, and
 * the plan verifier proves it statically per launch.
 */
class Mram
{
  public:
    /** Chunk granularity of the lazily-installed backing store. */
    static constexpr std::uint64_t kChunkBytes = 1ULL << 20;

    explicit
    Mram(std::size_t capacity)
        : capacity_(capacity),
          numChunks_((capacity + kChunkBytes - 1) / kChunkBytes),
          chunks_(std::make_unique<ChunkSlot[]>(numChunks_)),
          growMutex_(std::make_unique<std::mutex>())
    {}

    /** Deep copy (shadow mode snapshots the bank per launch). */
    Mram(const Mram &other)
        : capacity_(other.capacity_), numChunks_(other.numChunks_),
          chunks_(std::make_unique<ChunkSlot[]>(numChunks_)),
          growMutex_(std::make_unique<std::mutex>())
    {
        for (std::size_t i = 0; i < numChunks_; ++i) {
            const std::uint8_t *src =
                other.chunks_[i].ptr.load(std::memory_order_acquire);
            if (!src)
                continue;
            auto *dst = new std::uint8_t[kChunkBytes];
            std::copy(src, src + kChunkBytes, dst);
            chunks_[i].ptr.store(dst, std::memory_order_relaxed);
        }
    }

    Mram &operator=(const Mram &) = delete;
    Mram(Mram &&) = default;
    Mram &operator=(Mram &&) = default;

    ~Mram()
    {
        if (!chunks_)
            return;
        for (std::size_t i = 0; i < numChunks_; ++i)
            delete[] chunks_[i].ptr.load(std::memory_order_relaxed);
    }

    std::size_t capacity() const { return capacity_; }

    /** Host/DMA copy into MRAM. */
    void
    write(std::uint64_t addr, const std::uint8_t *src,
          std::uint64_t bytes)
    {
        PIMHE_ASSERT(addr + bytes <= capacity_,
                     "MRAM write beyond capacity");
        while (bytes > 0) {
            const std::size_t idx =
                static_cast<std::size_t>(addr / kChunkBytes);
            const std::uint64_t off = addr % kChunkBytes;
            const std::uint64_t take =
                std::min(bytes, kChunkBytes - off);
            std::copy(src, src + take, chunk(idx) + off);
            addr += take;
            src += take;
            bytes -= take;
        }
    }

    /** Host/DMA copy out of MRAM. */
    void
    read(std::uint64_t addr, std::uint8_t *dst, std::uint64_t bytes) const
    {
        PIMHE_ASSERT(addr + bytes <= capacity_, "MRAM read out of range");
        while (bytes > 0) {
            const std::size_t idx =
                static_cast<std::size_t>(addr / kChunkBytes);
            const std::uint64_t off = addr % kChunkBytes;
            const std::uint64_t take =
                std::min(bytes, kChunkBytes - off);
            const std::uint8_t *src =
                chunks_[idx].ptr.load(std::memory_order_acquire);
            if (src)
                std::copy(src + off, src + off + take, dst);
            else
                std::fill(dst, dst + take, std::uint8_t{0});
            addr += take;
            dst += take;
            bytes -= take;
        }
    }

  private:
    struct ChunkSlot
    {
        std::atomic<std::uint8_t *> ptr{nullptr};
    };

    /** Get-or-install the chunk backing `idx` (double-checked). */
    std::uint8_t *
    chunk(std::size_t idx)
    {
        std::uint8_t *p =
            chunks_[idx].ptr.load(std::memory_order_acquire);
        if (p)
            return p;
        std::lock_guard<std::mutex> lock(*growMutex_);
        p = chunks_[idx].ptr.load(std::memory_order_relaxed);
        if (!p) {
            p = new std::uint8_t[kChunkBytes]();
            chunks_[idx].ptr.store(p, std::memory_order_release);
        }
        return p;
    }

    std::size_t capacity_;
    std::size_t numChunks_;
    std::unique_ptr<ChunkSlot[]> chunks_;
    std::unique_ptr<std::mutex> growMutex_;
};

/**
 * Per-tasklet view of the DPU handed to kernels: intrinsics, WRAM
 * access and blocking MRAM DMA. All methods charge their issue slots.
 */
class TaskletCtx
{
  public:
    TaskletCtx(unsigned id, unsigned num_tasklets, const DpuConfig &cfg,
               Wram &wram, Mram &mram, TaskletStats &stats,
               AccessChecker *checker = nullptr)
        : id_(id), numTasklets_(num_tasklets), cfg_(cfg), wram_(wram),
          mram_(mram), stats_(stats), checker_(checker)
    {}

    unsigned id() const { return id_; }
    unsigned numTasklets() const { return numTasklets_; }
    const DpuConfig &config() const { return cfg_; }

    // ----- ALU intrinsics (1 issue slot each) -----

    /** 32-bit add; sets the carry flag. */
    std::uint32_t
    add(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        const std::uint64_t s = static_cast<std::uint64_t>(a) + b;
        carry_ = static_cast<std::uint32_t>(s >> 32);
        return static_cast<std::uint32_t>(s);
    }

    /** 32-bit add with carry-in; updates the carry flag. */
    std::uint32_t
    addc(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        const std::uint64_t s =
            static_cast<std::uint64_t>(a) + b + carry_;
        carry_ = static_cast<std::uint32_t>(s >> 32);
        return static_cast<std::uint32_t>(s);
    }

    /** 32-bit subtract; sets the borrow flag. */
    std::uint32_t
    sub(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        borrow_ = a < b ? 1 : 0;
        return a - b;
    }

    /** 32-bit subtract with borrow-in; updates the borrow flag. */
    std::uint32_t
    subb(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        const std::uint64_t rhs =
            static_cast<std::uint64_t>(b) + borrow_;
        borrow_ = a < rhs ? 1 : 0;
        return static_cast<std::uint32_t>(a - rhs);
    }

    std::uint32_t carryFlag() const { return carry_; }
    std::uint32_t borrowFlag() const { return borrow_; }
    void setCarryFlag(std::uint32_t c) { carry_ = c & 1; }
    void setBorrowFlag(std::uint32_t b) { borrow_ = b & 1; }

    std::uint32_t
    lsl(std::uint32_t a, unsigned s)
    {
        charge(1);
        return s >= 32 ? 0 : a << s;
    }

    std::uint32_t
    lsr(std::uint32_t a, unsigned s)
    {
        charge(1);
        return s >= 32 ? 0 : a >> s;
    }

    std::uint32_t
    and_(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return a & b;
    }

    std::uint32_t
    or_(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return a | b;
    }

    std::uint32_t
    xor_(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return a ^ b;
    }

    /** Comparison (cmp + conditional move style), 1 slot. */
    bool
    cmpLess(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return a < b;
    }

    /** Conditional select, 1 slot (move with condition). */
    std::uint32_t
    select(bool cond, std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return cond ? a : b;
    }

    /**
     * Native 8x8->16 multiply (the only hardware multiplier on the
     * gen1 DPU). Operands are truncated to 8 bits.
     */
    std::uint32_t
    mul8x8(std::uint32_t a, std::uint32_t b)
    {
        charge(1);
        return (a & 0xFFu) * (b & 0xFFu);
    }

    /**
     * One mul_step of the compiler's shift-and-add 32-bit multiply.
     * Functionally a no-op here (the helper computes the product once
     * and charges 32 of these); modelled as 1 issue slot.
     */
    void mulStep() { charge(1); }

    /**
     * Full 32x32->64 product. On gen1 hardware this expands to the
     * mul_step sequence (~36 slots); with cfg.nativeMul32 it charges
     * the two slots a real 32-bit multiplier would need for lo/hi.
     */
    std::uint64_t
    mul32(std::uint32_t a, std::uint32_t b)
    {
        if (cfg_.nativeMul32) {
            charge(2);
        } else {
            // Setup + 32 mul_step iterations + result moves.
            charge(4);
            for (int i = 0; i < 32; ++i)
                mulStep();
        }
        return static_cast<std::uint64_t>(a) * b;
    }

    /** Generic issue-slot charge for control-flow overhead. */
    void
    charge(std::uint64_t slots)
    {
        stats_.instructions += slots;
    }

    // ----- WRAM access (1 slot per load/store) -----

    std::uint32_t
    wramLoad32(std::uint32_t addr)
    {
        charge(1);
        if (checker_)
            checker_->record(id_, MemSpace::Wram, AccessKind::WramLoad,
                             addr, 4, /*is_write=*/false);
        return wram_.load32(addr);
    }

    void
    wramStore32(std::uint32_t addr, std::uint32_t v)
    {
        charge(1);
        if (checker_)
            checker_->record(id_, MemSpace::Wram, AccessKind::WramStore,
                             addr, 4, /*is_write=*/true);
        wram_.store32(addr, v);
    }

    // ----- blocking MRAM DMA -----

    /**
     * DMA MRAM -> WRAM. The issuing tasklet stalls for the transfer
     * latency; other tasklets keep the pipeline busy (the run model
     * accounts for the overlap).
     */
    void
    mramRead(std::uint64_t mram_addr, std::uint32_t wram_addr,
             std::uint32_t bytes)
    {
        chargeDma(bytes);
        if (checker_)
            checker_->recordDma(id_, AccessKind::DmaRead, mram_addr,
                                wram_addr, bytes);
        wram_.checkRange(wram_addr, bytes);
        mram_.read(mram_addr, wram_.raw() + wram_addr, bytes);
    }

    /** DMA WRAM -> MRAM. */
    void
    mramWrite(std::uint32_t wram_addr, std::uint64_t mram_addr,
              std::uint32_t bytes)
    {
        chargeDma(bytes);
        if (checker_)
            checker_->recordDma(id_, AccessKind::DmaWrite, mram_addr,
                                wram_addr, bytes);
        wram_.checkRange(wram_addr, bytes);
        mram_.write(mram_addr, wram_.raw() + wram_addr, bytes);
    }

    // ----- synchronisation -----

    /**
     * All-tasklet barrier (UPMEM's barrier_wait). Execution here is
     * sequential, so the only functional effect is on the conflict
     * checker: accesses before the barrier are ordered against
     * accesses after it in every other tasklet (epoch semantics —
     * see pim/checker.h). Charged as one issue slot; real hardware
     * additionally idles tasklets, which the timing model's
     * per-tasklet bound already absorbs for balanced kernels.
     */
    void
    barrier()
    {
        charge(1);
        if (checker_)
            checker_->barrier(id_);
    }

    /**
     * Suppression API for the conflict checker: declare that
     * [addr, addr+bytes) of `space` is protected by a mechanism the
     * checker does not model (e.g. a mutex or handshake), with a
     * human-readable justification. No-op when the checker is off.
     */
    void
    checkerAllowRange(MemSpace space, std::uint64_t addr,
                      std::uint64_t bytes, const char *reason)
    {
        if (checker_)
            checker_->allowRange(space, addr, bytes, reason);
    }

  private:
    void
    chargeDma(std::uint32_t bytes)
    {
        PIMHE_ASSERT(bytes >= 8 && bytes <= 2048 && bytes % 8 == 0,
                     "DMA size must be 8..2048 bytes, 8-aligned; got ",
                     bytes);
        charge(1); // the ldma/sdma instruction itself
        stats_.dmaTransfers += 1;
        stats_.dmaBytes += bytes;
        stats_.dmaStallCycles +=
            cfg_.dmaFixedCycles + cfg_.dmaCyclesPerByte * bytes;
    }

    unsigned id_;
    unsigned numTasklets_;
    const DpuConfig &cfg_;
    Wram &wram_;
    Mram &mram_;
    TaskletStats &stats_;
    AccessChecker *checker_;
    std::uint32_t carry_ = 0;
    std::uint32_t borrow_ = 0;
};

/**
 * Kernel body: runs once per tasklet.
 *
 * The same Kernel object is invoked concurrently from multiple host
 * threads when a DpuSet executes its DPUs in parallel, so kernels
 * must be re-entrant: all mutable state goes through the TaskletCtx,
 * never through captured variables. The shipped kernels capture their
 * parameter structs by value and satisfy this by construction.
 */
using Kernel = std::function<void(TaskletCtx &)>;

/**
 * Semantic output range of a compiled kernel in MRAM. Shadow mode
 * compares exactly these bytes between the two paths: the interpreter
 * additionally writes rounded-up DMA tails (stale WRAM bytes beyond
 * the last element) that carry no semantics, so whole-image
 * comparison would demand a byte-exact WRAM model for no verification
 * value. Regions may over-approximate upward (bytes neither path
 * touches compare equal by construction — the fast path starts from a
 * copy of the same MRAM image).
 */
struct FastRegion
{
    std::uint64_t begin = 0; //!< first MRAM byte of the output
    std::uint64_t end = 0;   //!< one past the last semantic byte
    std::string name;        //!< region label for diagnostics
};

/**
 * Execution context of a FastKernel: direct MRAM access plus the
 * per-tasklet counters the implementation must charge exactly as the
 * interpreter would. No WRAM and no TaskletCtx — that is the point.
 */
struct FastCtx
{
    Mram &mram;
    unsigned numTasklets;
    const DpuConfig &cfg;
    DpuRunStats &stats;

    /** Charge one DMA transfer to `tasklet`, mirroring
     *  TaskletCtx::chargeDma (1 issue slot + transfer stats). */
    void
    chargeDma(unsigned tasklet, std::uint32_t bytes)
    {
        PIMHE_ASSERT(bytes >= 8 && bytes <= 2048 && bytes % 8 == 0,
                     "DMA size must be 8..2048 bytes, 8-aligned; got ",
                     bytes);
        TaskletStats &ts = stats.tasklets[tasklet];
        ts.instructions += 1;
        ts.dmaTransfers += 1;
        ts.dmaBytes += bytes;
        ts.dmaStallCycles +=
            cfg.dmaFixedCycles + cfg.dmaCyclesPerByte * bytes;
    }
};

/**
 * Fast implementation of a kernel: computes the per-tasklet MRAM
 * effects with host loops and charges cycles via the closed-form
 * mirror of the kernel's instruction stream. Must reproduce the
 * interpreter bit-exactly — semantic outputs AND every modelled
 * TaskletStats field — which shadow mode enforces.
 */
using FastKernelFn = std::function<void(FastCtx &)>;

/**
 * A kernel with both execution paths. The interpreter body is always
 * present (it is the oracle and carries the dynamic checker); the
 * fast body is optional — a null `fast` with a non-empty `waiver`
 * documents an interpreter-only kernel, which every execution mode
 * runs interpreted.
 */
struct CompiledKernel
{
    std::string name;    //!< kernel name for diagnostics
    Kernel interpret;    //!< per-intrinsic oracle path
    FastKernelFn fast;   //!< vectorized path; null => waiver
    /** Semantic MRAM outputs shadow mode compares. */
    std::vector<FastRegion> outputs;
    /** Why there is no fast path (registry coverage audits this). */
    std::string waiver;
};

/**
 * One DPU: WRAM + MRAM + the execution/timing model.
 */
class Dpu
{
  public:
    explicit
    Dpu(const DpuConfig &cfg)
        : cfg_(cfg), wram_(cfg.wramBytes), mram_(cfg.mramBytes)
    {}

    Mram &mram() { return mram_; }
    const Mram &mram() const { return mram_; }

    /**
     * Execute a kernel with `num_tasklets` tasklets and model the
     * cycles it takes.
     *
     * Timing model: tasklets issue round-robin into a single in-order
     * pipeline; a tasklet may issue at most every dispatchInterval
     * cycles, so
     *
     *   cycles = max( sum_t I_t,                    issue bound
     *                 max_t (D * I_t + S_t) )       per-tasklet bound
     *
     * with D = dispatchInterval, I_t issued slots and S_t DMA stall
     * cycles of tasklet t. With balanced work this reproduces the
     * "saturates at 11 tasklets" behaviour the paper reports.
     *
     * @param defer_fail_fast Suppress the checker.failFast panic and
     *        return the dirty report instead. The parallel launch path
     *        sets this so the panic happens after the join, in DPU
     *        index order, keeping failure output deterministic.
     */
    DpuRunStats
    run(unsigned num_tasklets, const Kernel &kernel,
        bool defer_fail_fast = false)
    {
        PIMHE_ASSERT(num_tasklets >= 1 &&
                         num_tasklets <= cfg_.maxTasklets,
                     "tasklet count out of range: ", num_tasklets);
        DpuRunStats stats;
        stats.tasklets.resize(num_tasklets);
        std::unique_ptr<AccessChecker> checker;
        if (cfg_.checker.enabled)
            checker = std::make_unique<AccessChecker>(
                cfg_.checker, num_tasklets, wram_.size());
        for (unsigned t = 0; t < num_tasklets; ++t) {
            TaskletCtx ctx(t, num_tasklets, cfg_, wram_, mram_,
                           stats.tasklets[t], checker.get());
            kernel(ctx);
        }
        if (checker) {
            stats.conflicts = checker->finish();
            if (cfg_.checker.failFast && !defer_fail_fast &&
                !stats.conflicts.clean())
                panic("tasklet conflict check failed:\n",
                      stats.conflicts.summary());
        }

        finalizeCycles(stats, cfg_);
        recordRunMetrics(stats);
        return stats;
    }

    /**
     * Execute a CompiledKernel under a resolved execution mode (see
     * ExecMode in pim/config.h). Interpret — or any kernel without a
     * fast body — defers to the interpreter run() above. Fast runs
     * the FastKernel directly against this DPU's MRAM. Shadow runs
     * the fast body against a copy of the MRAM image, the interpreter
     * against the real one, and compares semantic outputs plus every
     * modelled stats field; a divergence panics (or, with
     * defer_fail_fast, lands in DpuRunStats::shadowDivergence for the
     * launch engine to raise post-join in DPU index order).
     */
    DpuRunStats
    run(unsigned num_tasklets, const CompiledKernel &kernel,
        ExecMode mode, bool defer_fail_fast = false)
    {
        PIMHE_ASSERT(mode != ExecMode::Auto,
                     "execution mode must be resolved before run()");
        if (mode == ExecMode::Interpret || !kernel.fast)
            return run(num_tasklets, kernel.interpret, defer_fail_fast);

        if (mode == ExecMode::Fast) {
            DpuRunStats stats = runFast(num_tasklets, kernel, mram_);
            recordRunMetrics(stats);
            return stats;
        }

        // Shadow: fast path on a snapshot, interpreter on the real
        // bank, then a bit-exact comparison of both result surfaces.
        Mram fast_mram = mram_;
        const DpuRunStats fast_stats =
            runFast(num_tasklets, kernel, fast_mram);
        DpuRunStats stats =
            run(num_tasklets, kernel.interpret, defer_fail_fast);
        stats.shadowDivergence = describeShadowDivergence(
            kernel, stats, fast_stats, mram_, fast_mram);
        if (!stats.shadowDivergence.empty() && !defer_fail_fast)
            panic("shadow-mode divergence: ", stats.shadowDivergence);
        return stats;
    }

    /** The timing model shared by both execution paths (see run()). */
    static void
    finalizeCycles(DpuRunStats &stats, const DpuConfig &cfg)
    {
        double issue_bound = 0;
        double tasklet_bound = 0;
        for (const auto &ts : stats.tasklets) {
            issue_bound += static_cast<double>(ts.instructions);
            const double own =
                static_cast<double>(cfg.dispatchInterval) *
                    static_cast<double>(ts.instructions) +
                ts.dmaStallCycles;
            tasklet_bound = std::max(tasklet_bound, own);
        }
        stats.cycles = std::max(issue_bound, tasklet_bound);
    }

    /**
     * Compare a shadow run's two result surfaces: every semantic
     * output byte and every modelled stats field must match exactly
     * (doubles included — both paths sum the same dyadic-rational
     * terms in the same order). Returns the empty string on success,
     * else a diagnostic naming the kernel and the first divergence.
     */
    static std::string
    describeShadowDivergence(const CompiledKernel &kernel,
                             const DpuRunStats &interp,
                             const DpuRunStats &fast,
                             const Mram &interp_mram,
                             const Mram &fast_mram)
    {
        const std::string head = "kernel '" + kernel.name + "': ";
        for (const auto &region : kernel.outputs) {
            const std::string diff = compareRegion(
                region, interp_mram, fast_mram);
            if (!diff.empty())
                return head + diff;
        }
        if (interp.tasklets.size() != fast.tasklets.size())
            return head + "tasklet count interpreter=" +
                   std::to_string(interp.tasklets.size()) + " fast=" +
                   std::to_string(fast.tasklets.size());
        for (std::size_t t = 0; t < interp.tasklets.size(); ++t) {
            const TaskletStats &a = interp.tasklets[t];
            const TaskletStats &b = fast.tasklets[t];
            const std::string where =
                "tasklet " + std::to_string(t) + ": ";
            if (a.instructions != b.instructions)
                return head + where + "instructions interpreter=" +
                       std::to_string(a.instructions) + " fast=" +
                       std::to_string(b.instructions);
            if (a.dmaTransfers != b.dmaTransfers)
                return head + where + "dmaTransfers interpreter=" +
                       std::to_string(a.dmaTransfers) + " fast=" +
                       std::to_string(b.dmaTransfers);
            if (a.dmaBytes != b.dmaBytes)
                return head + where + "dmaBytes interpreter=" +
                       std::to_string(a.dmaBytes) + " fast=" +
                       std::to_string(b.dmaBytes);
            if (a.dmaStallCycles != b.dmaStallCycles)
                return head + where + "dmaStallCycles interpreter=" +
                       std::to_string(a.dmaStallCycles) + " fast=" +
                       std::to_string(b.dmaStallCycles);
        }
        if (interp.cycles != fast.cycles)
            return head + "modelled cycles interpreter=" +
                   std::to_string(interp.cycles) + " fast=" +
                   std::to_string(fast.cycles);
        return {};
    }

  private:
    /** Run the fast body against `mram`, producing finalized stats. */
    DpuRunStats
    runFast(unsigned num_tasklets, const CompiledKernel &kernel,
            Mram &mram)
    {
        PIMHE_ASSERT(num_tasklets >= 1 &&
                         num_tasklets <= cfg_.maxTasklets,
                     "tasklet count out of range: ", num_tasklets);
        DpuRunStats stats;
        stats.tasklets.resize(num_tasklets);
        FastCtx fctx{mram, num_tasklets, cfg_, stats};
        kernel.fast(fctx);
        finalizeCycles(stats, cfg_);
        return stats;
    }

    /** Byte-compare one output region; empty string when identical. */
    static std::string
    compareRegion(const FastRegion &region, const Mram &interp_mram,
                  const Mram &fast_mram)
    {
        constexpr std::uint64_t kChunk = 4096;
        std::uint8_t a[kChunk];
        std::uint8_t b[kChunk];
        for (std::uint64_t off = region.begin; off < region.end;
             off += kChunk) {
            const std::uint64_t bytes =
                std::min(kChunk, region.end - off);
            interp_mram.read(off, a, bytes);
            fast_mram.read(off, b, bytes);
            for (std::uint64_t i = 0; i < bytes; ++i) {
                if (a[i] == b[i])
                    continue;
                // Extend to the end of the contiguous diverging run
                // within this chunk for the diagnostic.
                std::uint64_t j = i;
                while (j < bytes && a[j] != b[j])
                    ++j;
                std::string msg =
                    "output '" + region.name + "' diverges in mram "
                    "bytes [" + std::to_string(off + i) + ", " +
                    std::to_string(off + j) + "): interpreter=";
                for (std::uint64_t x = i;
                     x < std::min(j, i + 8); ++x)
                    msg += (x > i ? "," : "") + std::to_string(a[x]);
                msg += " fast=";
                for (std::uint64_t x = i;
                     x < std::min(j, i + 8); ++x)
                    msg += (x > i ? "," : "") + std::to_string(b[x]);
                return msg;
            }
        }
        return {};
    }
    /**
     * Feed the metrics registry. Runs on whichever host thread
     * simulates this DPU, so only integer counters are recorded here:
     * their merges are order-independent and the scrape stays
     * bit-identical at any host thread count. Modelled double metrics
     * (kernel ms, transfer ms) are recorded by DpuSet::launch after
     * the join, on the deterministic single-threaded path.
     */
    static void
    recordRunMetrics(const DpuRunStats &stats)
    {
        obs::Registry &reg = obs::Registry::global();
        if (!reg.enabled())
            return;
        static obs::Counter runs = reg.counter("pim.dpu.runs");
        static obs::Counter instructions =
            reg.counter("pim.dpu.instructions");
        static obs::Counter dma_transfers =
            reg.counter("pim.dpu.dma.transfers");
        static obs::Counter dma_bytes =
            reg.counter("pim.dpu.dma.bytes");
        static obs::Counter dma_stall_cycles =
            reg.counter("pim.dpu.dma.stall_cycles");
        static obs::Counter checker_accesses =
            reg.counter("pim.checker.accesses");
        static obs::Counter checker_conflicts =
            reg.counter("pim.checker.conflicts");
        static obs::Counter checker_suppressed =
            reg.counter("pim.checker.suppressed");

        std::uint64_t transfers = 0;
        std::uint64_t bytes = 0;
        double stalls = 0;
        for (const auto &ts : stats.tasklets) {
            transfers += ts.dmaTransfers;
            bytes += ts.dmaBytes;
            stalls += ts.dmaStallCycles;
        }
        runs.add(1);
        instructions.add(stats.totalInstructions());
        dma_transfers.add(transfers);
        dma_bytes.add(bytes);
        dma_stall_cycles.add(static_cast<std::uint64_t>(stalls));
        checker_accesses.add(stats.conflicts.accessesRecorded);
        checker_conflicts.add(stats.conflicts.totalConflicts);
        checker_suppressed.add(stats.conflicts.suppressedConflicts);
    }

    DpuConfig cfg_;
    Wram wram_;
    Mram mram_;
};

} // namespace pim
} // namespace pimhe

#endif // PIMHE_PIM_DPU_H
