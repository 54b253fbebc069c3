/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives an entire simulated testbed (both server
 * machines and the client). Time advances in CPU cycles. Events
 * scheduled for the same cycle fire in scheduling order (FIFO via a
 * monotonically increasing sequence number), which keeps runs fully
 * deterministic — a property the paper's measurement methodology works
 * hard to achieve on real hardware via pinning and interrupt
 * isolation, and which we get for free here.
 *
 * The implementation is built for throughput:
 *
 *  - Callbacks live in non-allocating inline storage
 *    (sim/inline_function.hh) inside a chunked slot arena recycled
 *    through a LIFO free list. Chunks never move, so growing the
 *    arena relocates nothing, and freshly-freed (cache-hot) slots
 *    are reused first.
 *  - A callback is built in its slot and fired where it sits: the
 *    scheduling calls forward the callable into the slot
 *    (InlineFunction::assign), and step() calls it in place, then
 *    destroys it and frees the slot once it returns. The capture is
 *    never relocated; it stays valid while the callback schedules
 *    (and so grows the arena), cancels or clears.
 *  - The ready queue is a 4-ary implicit min-heap whose entries
 *    carry their (time, seq) sort key inline: sifting compares and
 *    moves small contiguous PODs and never dereferences the arena.
 *    The 4-ary layout halves the tree depth of a binary heap and
 *    keeps each sift level within two cache lines. The least of
 *    four children is picked by comparing (time, seq) as one
 *    128-bit key, with selects rather than branches. A pop is
 *    Floyd's bottom-up one: the hole walks from the root to a leaf
 *    along the least children, and the replacement entry is placed
 *    there and sifts up, typically not far.
 *  - cancel() is O(1) lazy deletion: the slot is recycled
 *    immediately and the heap entry is discarded when it surfaces,
 *    detected by a per-slot generation count.
 *  - In-order streams keep backlogs out of the heap. A stream is a
 *    sequence of events whose times never decrease, such as a CPU's
 *    completions scheduled at its ever-advancing frontier
 *    (PhysicalCpu::run). Only the stream's earliest event sits in
 *    the heap; the rest wait in the stream's FIFO ring, each with the
 *    (time, seq) key it was given when scheduled. When the head
 *    fires, its successor replaces it at the heap top. The
 *    order is exact: every waiting event's key is above its stream's
 *    head, which is in the heap, so the heap top is still the least
 *    key of all pending events, and events fire in the same total
 *    (time, seq) order as if each had been pushed by scheduleAt. A
 *    heap entry's seq carries the stream in its low 16 bits (0 for
 *    plain events), which leaves the order unchanged and costs the
 *    plain path nothing but one [[unlikely]] branch in step().
 *    Stream events cannot be cancelled.
 *
 * In steady state scheduleAt/scheduleOn/step/cancel never touch the
 * allocator; the only allocations are arena chunks, stream rings and
 * amortized heap-vector growth up to the run's high-water mark of
 * in-flight events.
 */

#ifndef VIRTSIM_SIM_EVENT_QUEUE_HH
#define VIRTSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace virtsim {

class ShardChannel;

/** Callback type fired when an event's time arrives. Captures are
 *  stored inline; oversized captures fail to compile. */
using EventFn = InlineFunction<void()>;

/** Handle to a scheduled event, usable to cancel it. Stale handles
 *  (event already fired, cancelled, or cleared) are detected via a
 *  per-slot generation count and are safe to cancel again. */
using EventId = std::uint64_t;

/** Never names an event. */
inline constexpr EventId invalidEventId = 0;

/** Names an in-order stream of one EventQueue (EventQueue::openStream);
 *  0 is never a stream. */
using StreamId = std::uint16_t;

/** Returned by EventQueue::nextEventTime() when nothing is pending;
 *  later than any representable event time. */
inline constexpr Cycles noPendingEvent = ~Cycles{0};

/**
 * A deterministic min-heap event queue keyed on (time, sequence).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in cycles. */
    Cycles now() const { return _now; }

    /** Number of events not yet fired (cancelled events excluded),
     *  stream backlogs included. */
    std::size_t pending() const { return liveCount; }

    /**
     * Schedule fn to run at absolute time when.
     * @pre when >= now(), otherwise the simulation would go backwards.
     * @return a handle that can cancel the event while pending.
     */
    template <typename F>
    EventId
    scheduleAt(Cycles when, F &&fn)
    {
        VIRTSIM_ASSERT(when >= _now, "scheduling into the past: when=",
                       when, " now=", _now);
        const std::uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        s.fn.assign(std::forward<F>(fn));
        heap.push_back(HeapEntry{when, nextSeq, slot, s.gen});
        nextSeq += seqStep;
        siftUp(heap.size() - 1);
        ++liveCount;
        return idOf(slot, s.gen);
    }

    /** Schedule fn to run delay cycles from now. */
    template <typename F>
    EventId
    scheduleAfter(Cycles delay, F &&fn)
    {
        return scheduleAt(_now + delay, std::forward<F>(fn));
    }

    /**
     * Open an in-order stream: a sequence of events whose times never
     * decrease (a CPU's completions behind its frontier). Opening
     * allocates the stream's bookkeeping only; its ring allocates on
     * the first event that has to wait behind another.
     * @return the stream's id, never 0. Streams survive clear() and
     *         reset().
     */
    StreamId openStream();

    /**
     * Schedule fn at when on stream id. The event fires in exactly
     * the (time, sequence) order scheduleAt would give it; only the
     * stream's earliest event occupies the heap.
     * @pre when >= now() and when >= the stream's previous event.
     *      Stream events cannot be cancelled.
     */
    template <typename F>
    void
    scheduleOn(StreamId id, Cycles when, F &&fn)
    {
        VIRTSIM_ASSERT(when >= _now, "scheduling into the past: when=",
                       when, " now=", _now);
        VIRTSIM_ASSERT(id != 0 && id <= streams.size(),
                       "no stream ", id);
        Stream &st = streams[id - 1];
        VIRTSIM_ASSERT(when >= st.last, "stream ", id,
                       " goes backwards: when=", when, " after ",
                       st.last);
        st.last = when;
        const std::uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        s.fn.assign(std::forward<F>(fn));
        const HeapEntry e{when, nextSeq | id, slot, s.gen};
        nextSeq += seqStep;
        ++liveCount;
        if (st.inHeap) {
            st.push(e);
        } else {
            st.inHeap = true;
            heap.push_back(e);
            siftUp(heap.size() - 1);
        }
    }

    /**
     * Cancel a pending event in O(1) amortized. The slot is recycled
     * immediately; the heap entry is discarded lazily. When dead
     * entries come to outnumber live ones (cancel-heavy phases: timer
     * churn, teardown bursts), the heap is compacted in place so
     * sift depth tracks the live population instead of the cancel
     * history.
     * @return true if the event was still pending (and is now gone);
     *         false for already-fired, already-cancelled, or cleared
     *         events (stale handles are harmless).
     */
    bool
    cancel(EventId id)
    {
        const std::uint32_t slot =
            static_cast<std::uint32_t>(id & 0xffffffffu);
        if (slot >= slotCount)
            return false;
        Slot &s = slotAt(slot);
        if (idOf(slot, s.gen) != id)
            return false; // stale: already fired, cancelled, cleared
        releaseSlot(slot, s);
        --liveCount;
        ++deadCount;
        if (deadCount * 2 > heap.size() && heap.size() >= compactFloor)
            compact();
        return true;
    }

    /** Cancelled entries still occupying heap slots (reclaimed by
     *  compaction or as they surface). */
    std::size_t deadEntries() const { return deadCount; }

    /** Heap slots in use, live plus dead (for hygiene tests). Of a
     *  stream only its earliest event is counted. */
    std::size_t heapSize() const { return heap.size(); }

    /** Times the heap was compacted to purge dead entries. */
    std::uint64_t compactions() const { return _compactions; }

    /**
     * Earliest pending event's timestamp, or noPendingEvent when the
     * queue is drained. Dead entries surfacing at the top are purged
     * as a side effect.
     */
    Cycles
    nextEventTime()
    {
        purgeTop();
        return heap.empty() ? noPendingEvent : heap.front().when;
    }

    /**
     * Fire every event with timestamp strictly below bound, leaving
     * the clock at the last fired event (unlike runUntil, the clock
     * is NOT advanced to the bound). The fleet runs to each timeline
     * sampling instant this way, so a sample at t sees every event
     * below t and none at or after it.
     * @return number of events fired.
     */
    std::size_t runBefore(Cycles bound);

    /**
     * Advance the clock to t without firing anything.
     * @pre no pending event earlier than t. No-op when already past.
     */
    void
    advanceClockTo(Cycles t)
    {
        VIRTSIM_ASSERT(nextEventTime() >= t,
                       "advanceClockTo(", t, ") would skip an event at ",
                       nextEventTime());
        if (_now < t)
            _now = t;
    }

    /**
     * Run events until the queue drains.
     * @return the final simulated time.
     */
    Cycles run();

    /**
     * Run events with timestamps <= limit; the clock is then advanced
     * to limit even if the queue drained earlier.
     * @return the final simulated time (== limit unless already past).
     */
    Cycles runUntil(Cycles limit);

    /** Fire exactly one event, if any. @return true if one fired. */
    bool step();

    /** Drop all pending events, stream backlogs included (used
     *  between experiment repetitions). Arena slots are retained and
     *  recycled by later schedules. */
    void clear();

    /**
     * Declare a named latency edge on this queue (sim/channel.hh).
     * Redeclaring a name — a harness rebuilding its world on a
     * long-lived queue — returns the existing channel with the
     * tighter of the two latencies. Channels survive clear() and
     * reset().
     * @return a stable reference, valid for the queue's lifetime.
     */
    ShardChannel &channel(std::string name, Cycles latency);

    /** clear() plus rewind simulated time and the tie-break sequence
     *  to zero, so a recycled queue schedules and fires in exactly
     *  the order a newly constructed one would. Arena slot
     *  generations persist, which only changes EventId encodings —
     *  never firing order or simulated timing. */
    void
    reset()
    {
        clear();
        _now = 0;
        nextSeq = 0;
    }

  private:
    /** Heap entry: sort key plus the arena slot holding the
     *  callback. POD-small so sifting stays in contiguous memory and
     *  never dereferences the arena; gen detects entries whose event
     *  was cancelled (the slot has moved on). */
    struct HeapEntry
    {
        Cycles when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
    };

    /** One arena cell: the callback and its reuse generation. Kept
     *  minimal so the arena stays cache-dense. */
    struct Slot
    {
        EventFn fn;
        std::uint32_t gen = 0;
    };

    /** One in-order stream. Its earliest event sits in the heap;
     *  the rest wait in a FIFO ring with the keys they were given
     *  when scheduled. */
    struct Stream
    {
        std::vector<HeapEntry> ring; ///< power-of-two capacity or empty
        std::size_t head = 0;        ///< index of the oldest waiter
        std::size_t count = 0;       ///< waiters (head excluded)
        Cycles last = 0;             ///< latest time scheduled
        bool inHeap = false;         ///< the stream has a heap entry

        void
        push(const HeapEntry &e)
        {
            if (count == ring.size())
                grow();
            ring[(head + count) & (ring.size() - 1)] = e;
            ++count;
        }

        HeapEntry
        pop()
        {
            const HeapEntry e = ring[head];
            head = (head + 1) & (ring.size() - 1);
            --count;
            return e;
        }

        void grow();
    };

    static constexpr std::size_t heapArity = 4;
    /** Minimum heap size before cancel() considers compaction; below
     *  this, dead entries drain fast enough through purgeTop(). */
    static constexpr std::size_t compactFloor = 64;
    /** Slots per arena chunk; chunks are allocated on demand and
     *  never move or shrink. */
    static constexpr std::size_t chunkShift = 6;
    static constexpr std::size_t chunkSlots = 1u << chunkShift;
    /** A heap entry's seq is the scheduling sequence number shifted
     *  past a 16-bit stream tag (0 for plain events), so the tag
     *  never changes the order of two entries. */
    static constexpr unsigned tagBits = 16;
    static constexpr std::uint64_t seqStep = std::uint64_t{1} << tagBits;

    /** An entry's (time, sequence) sort key as one unsigned 128-bit
     *  integer, so one compare orders two entries. seq is unique, so
     *  this is a total order and heap pops are fully deterministic. */
    using Key = unsigned __int128;

    static Key
    keyOf(const HeapEntry &e)
    {
        return Key{e.when} << 64 | e.seq;
    }

    Slot &
    slotAt(std::uint32_t slot)
    {
        return chunks[slot >> chunkShift][slot & (chunkSlots - 1)];
    }

    std::uint32_t
    allocSlot()
    {
        if (!freeSlots.empty()) {
            const std::uint32_t slot = freeSlots.back();
            freeSlots.pop_back();
            return slot;
        }
        if (slotCount == chunks.size() * chunkSlots)
            chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
        return static_cast<std::uint32_t>(slotCount++);
    }

    /** Recycle a slot: destroy the callback and bump gen so any
     *  outstanding EventId / heap entry for it turns stale. step()
     *  does the same in two halves around the call. */
    void
    releaseSlot(std::uint32_t slot, Slot &s)
    {
        s.fn.reset();
        ++s.gen;
        freeSlots.push_back(slot);
    }

    static EventId
    idOf(std::uint32_t slot, std::uint32_t gen)
    {
        // gen+1 in the high half keeps every valid id nonzero.
        return (static_cast<EventId>(gen) + 1) << 32 | slot;
    }

    /** Pop the top heap entry (which must exist). */
    void popTop();
    /** Replace the top heap entry (which must exist) with e. */
    void replaceTop(const HeapEntry &e);
    /** Replace the top heap entry, the head of stream tag, with the
     *  stream's next event, or pop it if the stream has none. */
    void advanceStream(std::uint32_t tag);
    /** Discard cancelled entries surfacing at the top. */
    void purgeTop();
    /** Drop every dead entry and re-heapify the survivors. */
    void compact();
    void siftUp(std::size_t pos);
    void siftDown(std::size_t pos);
    /** Index of the least of the children [first, n) of one node;
     *  first < n. */
    std::size_t leastChild(std::size_t first, std::size_t n) const;

    /** Arena of callback slots, in chunks that never relocate. */
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::size_t slotCount = 0;
    std::vector<std::uint32_t> freeSlots; ///< LIFO free slot stack
    std::vector<HeapEntry> heap;          ///< 4-ary implicit min-heap
    std::size_t liveCount = 0;            ///< pending minus cancelled
    std::size_t deadCount = 0;            ///< cancelled entries in heap
    Cycles _now = 0;
    std::uint64_t nextSeq = 0;            ///< advances by seqStep
    std::uint64_t _compactions = 0;
    std::vector<Stream> streams; ///< by id - 1
    std::vector<std::unique_ptr<ShardChannel>> channels;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_EVENT_QUEUE_HH
