/**
 * @file
 * Miss Status Holding Register file.
 *
 * Each cluster's hub tracks outstanding L2 misses in a finite MSHR file
 * (the paper: "The MSHRs, hub, interconnect, arbitration, and memory are
 * all modeled in detail with finite buffers..."). The file bounds
 * concurrency (back-pressuring threads when full) and coalesces
 * secondary misses to a line already in flight.
 *
 * Every miss passes through here, so nothing on that path hashes
 * through a library map or allocates once the file is warm: entries
 * live in an open-addressed table (power-of-two size, multiplicative
 * hash, linear probing, backward-shift deletion), and waiters live in
 * one pooled node array as intrusive FIFO chains with a free list.
 */

#ifndef CORONA_MEMORY_MSHR_HH
#define CORONA_MEMORY_MSHR_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "stats/stats.hh"
#include "topology/address_map.hh"

namespace corona::memory {

/**
 * A finite MSHR file with secondary-miss coalescing.
 */
class MshrFile
{
  public:
    /** Waker callbacks capture at most a simulation pointer plus a
     * thread id, so they always fit the inline buffer. */
    using WakeFn = sim::InlineFunction<void()>;

    /** Key of an empty table slot. Line addresses never reach it: the
     * hub keeps them below its sideband tag bit (bit 63). */
    static constexpr topology::Addr emptyLine = ~topology::Addr{0};

    /** @param entries Capacity. Hubs size it from
     * SystemConfig::mshrs_per_cluster (128 by default). */
    explicit MshrFile(std::size_t entries);

    std::size_t capacity() const { return _capacity; }
    std::size_t inUse() const { return _inUse; }
    bool full() const { return _inUse >= _capacity; }

    /** True when a miss on @p line is already outstanding. */
    bool outstanding(topology::Addr line) const;

    /**
     * Allocate an entry for a primary miss on @p line.
     * @return false when the file is full (caller must stall).
     */
    bool allocate(topology::Addr line, sim::Tick now);

    /**
     * Attach a waiter to an in-flight line; the waker runs when the
     * line's fill returns. @p line must be outstanding.
     */
    void coalesce(topology::Addr line, WakeFn &&waker);

    /** Outcome of join(). */
    enum class Join
    {
        Allocated, ///< New entry; @p waker is its primary waiter.
        Coalesced, ///< Attached to the miss already in flight.
        Full,      ///< No entry free; nothing changed.
    };

    /**
     * One probe for "outstanding, or allocate": attach @p waker to the
     * miss in flight on @p line, or else allocate an entry for @p line
     * with @p waker as its primary waiter. Equivalent to outstanding()
     * then coalesce(), or allocate() then coalesce().
     */
    Join join(topology::Addr line, sim::Tick now, WakeFn &&waker);

    /**
     * Retire the entry for @p line (its fill arrived) and run its
     * wakers in place. In order: sample the entry's lifetime, free the
     * entry, run the onFree callback, then run the wakers, the primary
     * first and the coalesced ones in arrival order. Each waiter node
     * is freed before its waker runs, so the onFree callback may
     * re-allocate @p line and a waker may coalesce onto it.
     */
    void retire(topology::Addr line, sim::Tick now);

    /** Register a callback run whenever an entry frees. */
    void onFree(WakeFn cb) { _onFree = std::move(cb); }

    /** Entry lifetime statistics, ticks. */
    const stats::RunningStats &lifetime() const { return _lifetime; }

    /** Secondary misses: waiters attached by coalesce() or by a
     * join() that returned Coalesced. A join() that allocates attaches
     * the primary waiter and does not count. */
    std::uint64_t coalesced() const { return _coalesced; }

    /** Allocation attempts rejected because the file was full. */
    std::uint64_t fullStalls() const { return _fullStalls; }

    /** Count a rejected allocation (callers report their stalls). */
    void noteFullStall() { ++_fullStalls; }

    /** Drop every entry (and its waiters) and zero the statistics.
     * The onFree wiring and the table and node storage are kept. */
    void reset();

    /** Table slots allocated so far: 0 before the first allocation,
     * then a power of two up to bit_ceil(2 * capacity()). */
    std::size_t tableSlots() const { return _table.size(); }

    /** Home slot of @p line in a table of @p slots (a power of two,
     * at least 2) slots. Public so tests can build colliding keys. */
    static std::size_t
    homeSlot(topology::Addr line, std::size_t slots)
    {
        return static_cast<std::size_t>(
            (line * 0x9E3779B97F4A7C15ull) >>
            (64 - std::countr_zero(slots)));
    }

  private:
    static constexpr std::uint32_t nil = ~std::uint32_t{0};

    /** One table entry: 24 B. The chain runs through _next. */
    struct Slot
    {
        topology::Addr line = emptyLine;
        sim::Tick allocated = 0;
        std::uint32_t head = nil;
        std::uint32_t tail = nil;
    };

    /** Index of @p line's slot, or of the empty slot ending its probe
     * sequence. The table must be non-empty. */
    std::size_t probe(topology::Addr line) const;

    /** Slot of the outstanding entry for @p line; panics, naming
     * @p caller, when there is none. */
    std::size_t entryOf(topology::Addr line, const char *caller) const;

    /** Fill empty slot @p slot (the end of @p line's probe) with a new
     * entry, growing the table first when that would pass half load.
     * @return the entry's slot. */
    std::size_t claim(std::size_t slot, topology::Addr line,
                      sim::Tick now);

    /** Append @p waker to the chain of the entry in @p slot. */
    void append(std::size_t slot, WakeFn &&waker);

    /** Empty @p slot, shifting later entries of its cluster back. */
    void erase(std::size_t slot);

    /** Double the table (first call: 8 slots), capped at
     * bit_ceil(2 * capacity()), and re-insert every entry. */
    void grow();

    std::size_t _capacity;
    std::size_t _inUse = 0;
    std::vector<Slot> _table;
    /** Waiter nodes: a waker and its chain link, in parallel arrays
     * so each waker record stays the size of the callable. */
    std::vector<WakeFn> _wakers;
    std::vector<std::uint32_t> _next;
    std::uint32_t _freeNode = nil;
    WakeFn _onFree;
    stats::RunningStats _lifetime;
    std::uint64_t _coalesced = 0;
    std::uint64_t _fullStalls = 0;
};

} // namespace corona::memory

#endif // CORONA_MEMORY_MSHR_HH
