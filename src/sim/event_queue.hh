/**
 * @file
 * Discrete-event simulation queue.
 *
 * A minimal, deterministic event kernel in the spirit of M5's EventQueue
 * (the simulator framework the Corona paper built on). Events are arbitrary
 * callables scheduled at absolute ticks; ties are broken by insertion order
 * so that simulations are reproducible run to run.
 *
 * The kernel is a two-level scheduler tuned for the traffic the network
 * models generate:
 *
 *  - a near-future bucket ring covering ringWindow ticks from the current
 *    base tick. One bucket holds exactly one tick's events, in insertion
 *    order, so same-tick FIFO needs no comparisons at all. The dense
 *    short-horizon events (clock edges, token hops, serialization,
 *    mesh hops) all land here. An occupancy bitmap finds the next
 *    non-empty bucket a word (64 ticks) at a time.
 *
 *  - a binary heap holding events beyond the ring window (memory
 *    latencies, think times). Heap events carry an insertion sequence
 *    number and are promoted into the ring, in (tick, sequence) order,
 *    when the window slides over their tick — always before any new
 *    same-tick event can be appended directly, which preserves the
 *    global FIFO contract exactly.
 *
 * Callbacks are InlineFunctions: captures up to 56 B (a pointer plus a
 * full noc::Message, pinned by a static_assert in noc/message.hh) are
 * stored in the event slot itself, so scheduling such an event never
 * allocates.
 */

#ifndef CORONA_SIM_EVENT_QUEUE_HH
#define CORONA_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace corona::sim {

/**
 * A deterministic discrete-event queue.
 *
 * The queue owns the notion of "now"; all model components schedule
 * callbacks against it and must never move time themselves. Events
 * scheduled for the same tick fire in FIFO order of scheduling.
 */
class EventQueue
{
  public:
    using Callback = InlineFunction<void()>;

    /** Ring coverage in ticks (one bucket per tick; power of two).
     * 16384 ticks = 16.4 ns at the picosecond time base — wide enough
     * for every on-stack network event; off-stack memory latencies and
     * think times overflow to the heap. */
    static constexpr std::size_t ringWindow = 16384;

    EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must be >= now().
     * @param cb Callback to invoke.
     */
    void schedule(Tick when, Callback cb);

    /** Schedule a callback @p delta ticks in the future. */
    void scheduleIn(Tick delta, Callback cb) { schedule(_now + delta, std::move(cb)); }

    /** True when no events remain. */
    bool empty() const { return _pending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return _pending; }

    /** Total events executed so far. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Run until the queue drains or @p limit is reached.
     *
     * Batch-drain kernel: the outer loop locates the next occupied
     * tick once per bucket (bitmap scan + heap promotion amortized
     * over the whole tick), then the inner loop drains the bucket as a
     * contiguous array. Same-tick events appended by a draining
     * callback land at the array tail and execute in the same pass, so
     * the FIFO contract is exactly that of repeated step() calls.
     *
     * @param limit Stop (without executing) events scheduled after this
     *              tick; defaults to "run to completion".
     * @return The tick of the last executed event (or now() if none ran).
     */
    Tick run(Tick limit = maxTick);

    /** Execute at most one event; @return false if none was ready. */
    bool step(Tick limit = maxTick);

    /** Drop all pending events and restore the pristine state
     * (now == 0, fresh sequence numbers, zero executed count). Bucket
     * and heap storage is retained for reuse. */
    void reset();

  private:
    /** One tick's events, appended in schedule order and drained from
     * @c head. Storage is recycled across ticks. */
    struct Bucket
    {
        std::vector<Callback> entries;
        std::size_t head = 0;
    };

    /** A far-future event awaiting promotion into the ring. The
     * callback lives in a side slab so heap percolation moves 24-byte
     * PODs, not 64-byte callables. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t slot;
    };

    /** True when @p a fires after @p b (max-heap comparator inverted
     * into the min-heap the overflow level needs). */
    static bool
    later(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    std::size_t bucketOf(Tick when) const { return when & (ringWindow - 1); }

    /** Offset from _ringBase of the earliest occupied bucket, or
     * ringWindow when the ring is empty. */
    std::size_t nextRingOffset() const;

    /** Earliest pending event tick, or maxTick when drained. */
    Tick nextEventTick() const;

    /** Slide the window so @p tick is the cursor bucket, promoting any
     * heap events that fall inside the new window. @p tick must hold
     * the next pending event. */
    void advanceTo(Tick tick);

    /** Pop the heap minimum and append it to its ring bucket. */
    void promoteHeapTop();

    void markOccupied(std::size_t bucket);
    void clearOccupied(std::size_t bucket);

    std::vector<Bucket> _ring;
    /** One bit per bucket; set while the bucket has unexecuted events. */
    std::vector<std::uint64_t> _occupied;
    /** One bit per _occupied word (two-level bitmap): the next
     * non-empty bucket is found by scanning at most a handful of
     * summary words instead of hundreds of leaf words. */
    std::vector<std::uint64_t> _summary;
    /** Tick of the cursor bucket: ring events span
     * [_ringBase, _ringBase + ringWindow). */
    Tick _ringBase = 0;
    std::size_t _ringCount = 0;

    /** Overflow min-heap (std::push_heap/std::pop_heap over a vector;
     * unlike priority_queue::top(), the back slot after pop_heap is
     * mutable, so entries move out without a const_cast). */
    std::vector<HeapEntry> _heap;
    /** Callback storage for heap entries (slot-indexed + free list). */
    std::vector<Callback> _heapSlab;
    std::vector<std::uint32_t> _heapFree;

    std::size_t _pending = 0;
    Tick _now = 0;
    std::uint64_t _nextSeq = 0;
    std::uint64_t _executed = 0;
};

} // namespace corona::sim

#endif // CORONA_SIM_EVENT_QUEUE_HH
