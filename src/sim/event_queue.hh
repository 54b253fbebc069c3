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
 * Each world builds its one queue once and destroys it with the
 * world; destroying a queue destroys every pending callback, stream
 * backlogs included. There is no reset. A cross-CPU interaction (an
 * IPI's flight, the wire's one-way latency) is a cost its sender adds
 * to the departure time before calling scheduleAt.
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
 *    (and so grows the arena).
 *  - A pending event is one unsigned 128-bit key,
 *    `when << 64 | seq << 24 | slot`: the time in the high half,
 *    then a 40-bit scheduling sequence number, then the 24-bit arena
 *    slot of its callback. seq is unique per queue, so the slot bits
 *    never change the order of two keys, and one integer compare is
 *    the whole (time, seq) order. 40 bits allow ~1.1e12 schedules per
 *    queue and 24 bits ~16.7 M events in flight; both limits are
 *    checked.
 *  - The ready queue is a 4-ary implicit min-heap of these keys.
 *    Sifting compares and moves 16-byte integers and never
 *    dereferences the arena; the four children of a node share one
 *    cache line. The least of them is picked with selects rather
 *    than branches. A pop is Floyd's bottom-up one: the hole walks
 *    from the root to a leaf along the least children, and the
 *    replacement key is placed there and sifts up, typically not
 *    far.
 *  - In-order streams keep backlogs out of the heap. A stream is a
 *    sequence of events whose times never decrease, such as a CPU's
 *    completions scheduled at its ever-advancing frontier
 *    (PhysicalCpu::run). Only the stream's earliest event sits in
 *    the heap; the rest wait in the stream's FIFO ring, each with the
 *    key it was given when scheduled. When the head fires, its
 *    successor replaces it at the heap top. The order is exact:
 *    every waiting event's key is above its stream's head, which is
 *    in the heap, so the heap top is still the least key of all
 *    pending events, and events fire in the same total (time, seq)
 *    order as if each had been pushed by scheduleAt. The stream an
 *    event belongs to (0 for plain events) is stored in its arena
 *    slot, which step() reads anyway to fire the callback; the plain
 *    path pays one [[unlikely]] branch.
 *
 * Events cannot be cancelled: a component that may retract work
 * keeps its own generation check (TimerBank in hw/vtimer does).
 *
 * In steady state scheduleAt/scheduleOn/step never touch the
 * allocator; the only allocations are arena chunks, stream rings and
 * amortized heap-vector growth up to the run's high-water mark of
 * in-flight events.
 */

#ifndef VIRTSIM_SIM_EVENT_QUEUE_HH
#define VIRTSIM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace virtsim {

/** Callback type fired when an event's time arrives. Captures are
 *  stored inline; oversized captures fail to compile. */
using EventFn = InlineFunction<void()>;

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

    /** Number of events not yet fired, stream backlogs included. */
    std::size_t pending() const { return liveCount; }

    /**
     * Schedule fn to run at absolute time when.
     * @pre when >= now(), otherwise the simulation would go backwards.
     */
    template <typename F>
    void
    scheduleAt(Cycles when, F &&fn)
    {
        VIRTSIM_ASSERT(when >= _now, "scheduling into the past: when=",
                       when, " now=", _now);
        heap.push_back(place(when, 0, std::forward<F>(fn)));
        siftUp(heap.size() - 1);
    }

    /** Schedule fn to run delay cycles from now. */
    template <typename F>
    void
    scheduleAfter(Cycles delay, F &&fn)
    {
        scheduleAt(_now + delay, std::forward<F>(fn));
    }

    /**
     * Open an in-order stream: a sequence of events whose times never
     * decrease (a CPU's completions behind its frontier). Opening
     * allocates the stream's bookkeeping only; its ring allocates on
     * the first event that has to wait behind another.
     * @return the stream's id, never 0.
     */
    StreamId openStream();

    /**
     * Schedule fn at when on stream id. The event fires in exactly
     * the (time, sequence) order scheduleAt would give it; only the
     * stream's earliest event occupies the heap.
     * @pre when >= now() and when >= the stream's previous event.
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
        const Key k = place(when, id, std::forward<F>(fn));
        if (st.inHeap) {
            st.push(k);
        } else {
            st.inHeap = true;
            heap.push_back(k);
            siftUp(heap.size() - 1);
        }
    }

    /** Heap slots in use (for hygiene tests). Of a stream only its
     *  earliest event is counted. */
    std::size_t heapSize() const { return heap.size(); }

    /** Earliest pending event's timestamp, or noPendingEvent when the
     *  queue is drained. */
    Cycles
    nextEventTime() const
    {
        return heap.empty() ? noPendingEvent : whenOf(heap.front());
    }

    /**
     * Fire every event with timestamp strictly below bound, leaving
     * the clock at the last fired event (unlike runUntil, the clock
     * is NOT advanced to the bound). TimelineSampler::runSampled
     * runs to each sampling instant this way, so a sample at t sees
     * every event below t and none at or after it.
     * @return number of events fired.
     */
    std::size_t runBefore(Cycles bound);

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

  private:
    /** A pending event: `when << 64 | seq << slotBits | slot`. One
     *  compare orders two events; seq is unique, so this is a total
     *  order and heap pops are fully deterministic. */
    using Key = unsigned __int128;

    static constexpr unsigned slotBits = 24;
    /** Arena slots, hence events in flight, one queue can hold. */
    static constexpr std::size_t maxSlots = std::size_t{1} << slotBits;
    /** Schedules one queue can make: seq fills the 40 bits of the low
     *  half above the slot. */
    static constexpr std::uint64_t maxSeq = std::uint64_t{1}
                                            << (64 - slotBits);

    static Cycles whenOf(Key k) { return static_cast<Cycles>(k >> 64); }

    static std::uint32_t
    slotOf(Key k)
    {
        return static_cast<std::uint32_t>(k & (maxSlots - 1));
    }

    /** One arena cell: the callback and the stream it was scheduled
     *  on (0 for plain events). Kept minimal so the arena stays
     *  cache-dense. */
    struct Slot
    {
        EventFn fn;
        StreamId stream = 0;
    };

    /** One in-order stream. Its earliest event sits in the heap;
     *  the rest wait in a FIFO ring with the keys they were given
     *  when scheduled. */
    struct Stream
    {
        std::vector<Key> ring;  ///< power-of-two capacity or empty
        std::size_t head = 0;   ///< index of the oldest waiter
        std::size_t count = 0;  ///< waiters (head excluded)
        Cycles last = 0;        ///< latest time scheduled
        bool inHeap = false;    ///< the stream has a heap entry

        void
        push(Key k)
        {
            if (count == ring.size())
                grow();
            ring[(head + count) & (ring.size() - 1)] = k;
            ++count;
        }

        Key
        pop()
        {
            const Key k = ring[head];
            head = (head + 1) & (ring.size() - 1);
            --count;
            return k;
        }

        void grow();
    };

    static constexpr std::size_t heapArity = 4;
    /** Slots per arena chunk; chunks are allocated on demand and
     *  never move or shrink. */
    static constexpr std::size_t chunkShift = 6;
    static constexpr std::size_t chunkSlots = 1u << chunkShift;

    /** Build fn in a fresh arena slot tagged with stream and return
     *  the event's key; the caller files it in the heap or a ring. */
    template <typename F>
    Key
    place(Cycles when, StreamId stream, F &&fn)
    {
        VIRTSIM_ASSERT(nextSeq < maxSeq, "event sequence exhausted after ",
                       nextSeq, " schedules");
        const std::uint32_t slot = allocSlot();
        Slot &s = slotAt(slot);
        s.fn.assign(std::forward<F>(fn));
        s.stream = stream;
        ++liveCount;
        return Key{when} << 64 | Key{nextSeq++ << slotBits | slot};
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
        if (slotCount == chunks.size() * chunkSlots) {
            VIRTSIM_ASSERT(slotCount < maxSlots, "more than ", maxSlots,
                           " events in flight");
            chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
        }
        return static_cast<std::uint32_t>(slotCount++);
    }

    /** Pop the top heap entry (which must exist). */
    void popTop();
    /** Replace the top heap entry (which must exist) with k. */
    void replaceTop(Key k);
    /** Replace the top heap entry, the head of stream id, with the
     *  stream's next event, or pop it if the stream has none. */
    void advanceStream(StreamId id);
    void siftUp(std::size_t pos);
    /** Index of the least of the children [first, n) of one node;
     *  first < n. */
    std::size_t leastChild(std::size_t first, std::size_t n) const;

    /** Arena of callback slots, in chunks that never relocate. */
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::size_t slotCount = 0;
    std::vector<std::uint32_t> freeSlots; ///< LIFO free slot stack
    std::vector<Key> heap;                ///< 4-ary implicit min-heap
    std::size_t liveCount = 0;            ///< events not yet fired
    Cycles _now = 0;
    std::uint64_t nextSeq = 0;
    std::vector<Stream> streams; ///< by id - 1
};

} // namespace virtsim

#endif // VIRTSIM_SIM_EVENT_QUEUE_HH
