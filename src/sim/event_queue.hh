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
 *  - The keys wait in a calendar (Brown, CACM 1988) of two tiers.
 *    The near tier is a ring of 2^10 buckets, each 2^10 cycles wide,
 *    covering the window of 2^20 cycles (~437 us at 2.4 GHz) that
 *    starts at the current bucket; two thirds of the delays a paper
 *    pass schedules fall between 2^11 and 2^16 cycles. Filing a key
 *    there is an append to its bucket plus one bit in a non-empty
 *    mask; a bucket's keys sit unsorted in 64-byte blocks of three,
 *    from a pool of 4 KB chunks recycled through a free list. The
 *    current bucket's keys are gathered into one array and sorted
 *    once, when the window reaches it. Pops come off its front, and
 *    the slot of the event after the one firing is prefetched. A
 *    key filed into the current bucket is an insertion step from
 *    the nearer end, free at either end: a new latest key appends,
 *    a new earliest one takes the slot just popped. Keys beyond the
 *    window (pre-scheduled ticks, far timers) wait in the far tier,
 *    a 4-ary implicit min-heap with bottom-up pops, and move into
 *    their buckets as the window advances. DESIGN.md section 8 has
 *    the measurements.
 *  - The window advances only when step() pops an event, to that
 *    event's bucket; a peek (nextEventTime, runBefore, runUntil)
 *    never moves it. The clock is at or past the window's start, so
 *    every new key (when >= now) files at or after it, and no key
 *    ever has to be filed behind the window.
 *  - In-order streams keep backlogs out of the calendar. A stream is
 *    a sequence of events whose times never decrease, such as a
 *    CPU's completions scheduled at its ever-advancing frontier
 *    (PhysicalCpu::run). Only the stream's earliest event is filed
 *    in the calendar; the rest wait in the stream's FIFO ring, each
 *    with the key it was given when scheduled. When the head fires,
 *    its successor is filed. The order is exact: every waiting
 *    event's key is above its stream's head, which is filed, so the
 *    calendar's least key is still the least of all pending events,
 *    and events fire in the same total (time, seq) order as if each
 *    had been pushed by scheduleAt. A backlog filed event by event
 *    would reach past the window into the far heap, which is why the
 *    streams stay. The stream an event belongs to (0 for plain
 *    events) is stored in its arena slot, which step() reads anyway
 *    to fire the callback; the plain path pays one [[unlikely]]
 *    branch.
 *
 * Events cannot be cancelled: a component that may retract work
 * keeps its own generation check (TimerBank in hw/vtimer does).
 *
 * In steady state scheduleAt/scheduleOn/step never touch the
 * allocator; the only allocations are arena and block-pool chunks,
 * stream rings and amortized growth of the current bucket's array
 * and the far heap, each up to the run's high-water mark of what it
 * holds.
 */

#ifndef VIRTSIM_SIM_EVENT_QUEUE_HH
#define VIRTSIM_SIM_EVENT_QUEUE_HH

#include <array>
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
 * A deterministic calendar event queue keyed on (time, sequence).
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
        file(place(when, 0, std::forward<F>(fn)));
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
     * stream's earliest event is filed in the calendar.
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
        if (st.filed) {
            st.push(k);
        } else {
            st.filed = true;
            file(k);
        }
    }

    /** Keys filed in the calendar, both tiers (for hygiene tests).
     *  Of a stream only its earliest event is counted. */
    std::size_t
    calendarSize() const
    {
        return current.size() - currentHead + nearCount + far.size();
    }

    /** Earliest pending event's timestamp, or noPendingEvent when the
     *  queue is drained. */
    Cycles
    nextEventTime() const
    {
        if (currentHead != current.size()) [[likely]]
            return whenOf(current[currentHead]);
        return nextEventTimeAhead();
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
     *  order and pops are fully deterministic. */
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

    /** One in-order stream. Its earliest event is filed in the
     *  calendar; the rest wait in a FIFO ring with the keys they
     *  were given when scheduled. */
    struct Stream
    {
        std::vector<Key> ring;  ///< power-of-two capacity or empty
        std::size_t head = 0;   ///< index of the oldest waiter
        std::size_t count = 0;  ///< waiters (head excluded)
        Cycles last = 0;        ///< latest time scheduled
        bool filed = false;     ///< the stream's head is in the calendar

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

    /** log2 of a bucket's width in cycles. */
    static constexpr unsigned bucketShift = 10;
    /** Buckets in the near tier's ring; a power of two. */
    static constexpr std::size_t nearBuckets = 1024;
    static constexpr std::size_t maskWords = nearBuckets / 64;
    /** Keys per bucket block: with its link and fill count a block
     *  is one 64-byte cache line. */
    static constexpr std::size_t blockKeys = 3;
    static constexpr std::uint32_t noBlock = ~std::uint32_t{0};
    /** Blocks per pool chunk (4 KB); chunks are allocated on demand,
     *  the first when the queue is built, and never move. */
    static constexpr std::size_t blockChunkShift = 6;
    static constexpr std::size_t blockChunkBlocks = 1u << blockChunkShift;

    /** A run of one bucket's keys, unsorted. A bucket is a list of
     *  blocks, newest first; only its first block can be part full. */
    struct alignas(64) Block
    {
        Key keys[blockKeys];
        std::uint32_t next; ///< older block of the bucket, or free list
        std::uint32_t count;
    };

    static constexpr std::size_t heapArity = 4;
    /** Slots per arena chunk; chunks are allocated on demand and
     *  never move or shrink. */
    static constexpr std::size_t chunkShift = 6;
    static constexpr std::size_t chunkSlots = 1u << chunkShift;

    /** Build fn in a fresh arena slot tagged with stream and return
     *  the event's key; the caller files it in the calendar or a
     *  ring. */
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

    /** File k in the calendar: the current bucket, a near bucket or
     *  the far heap. @pre k is at or after the window's start. */
    void
    file(Key k)
    {
        const std::uint64_t ahead = (whenOf(k) >> bucketShift) - windowStart;
        if (ahead - 1 < nearBuckets - 1) [[likely]]
            fileNear(k);
        else if (ahead == 0)
            fileCurrent(k);
        else
            fileFar(k);
    }

    /** Append k to its bucket. @pre the bucket is in the window and
     *  not the current one. */
    void
    fileNear(Key k)
    {
        const std::size_t b = (whenOf(k) >> bucketShift) & (nearBuckets - 1);
        std::uint32_t i = bucketHead[b];
        if (i == noBlock || blockAt(i).count == blockKeys) [[unlikely]]
            i = newBlock(b);
        Block &blk = blockAt(i);
        blk.keys[blk.count++] = k;
        ++nearCount;
    }

    Block &
    blockAt(std::uint32_t i)
    {
        return blockChunks[i >> blockChunkShift][i & (blockChunkBlocks - 1)];
    }
    const Block &
    blockAt(std::uint32_t i) const
    {
        return blockChunks[i >> blockChunkShift][i & (blockChunkBlocks - 1)];
    }

    /** Insert k into the current bucket's sorted keys. */
    void fileCurrent(Key k);
    /** Move current[j] down to its place among the sorted keys
     *  current[currentHead, j). */
    void sinkCurrent(std::size_t j);
    /** Push k onto the far heap. */
    void fileFar(Key k);
    /** Start a new block at the front of bucket b; @return its index. */
    std::uint32_t newBlock(std::size_t b);
    /**
     * Ready the least filed key to pop if it is due at or before
     * last: advance the window to its bucket, file the far keys the
     * window then covers and sort the new current bucket. The window
     * moves only for a key that is popped next.
     * @return false, changing nothing, if no key is due by last.
     */
    bool readyBy(Cycles last);
    /** Pop the current bucket's least key and fire its callback.
     *  @pre the current bucket holds a key. */
    void fireNext();
    /** Ring index of the first non-empty near bucket after the
     *  current one. @pre nearCount != 0. */
    std::size_t nextBucket() const;
    /** The least key in near bucket b (unsorted). */
    Key leastIn(std::size_t b) const;
    /** nextEventTime() once the current bucket is empty. */
    Cycles nextEventTimeAhead() const;

    /** Pop the top far-heap entry (which must exist). */
    void popTop();
    void siftUp(std::size_t pos);
    /** Index of the least of the children [first, n) of one node;
     *  first < n. */
    std::size_t leastChild(std::size_t first, std::size_t n) const;

    /** Arena of callback slots, in chunks that never relocate. */
    std::vector<std::unique_ptr<Slot[]>> chunks;
    std::size_t slotCount = 0;
    std::vector<std::uint32_t> freeSlots; ///< LIFO free slot stack

    /** The current bucket's keys, ascending from currentHead. */
    std::vector<Key> current;
    std::size_t currentHead = 0;
    /** Absolute index (when >> bucketShift) of the current bucket;
     *  the window is [windowStart, windowStart + nearBuckets). */
    std::uint64_t windowStart = 0;
    /** First block of each near bucket by ring index, or noBlock. */
    std::array<std::uint32_t, nearBuckets> bucketHead;
    /** Bit b set: near bucket b holds keys. */
    std::array<std::uint64_t, maskWords> nonEmpty{};
    /** The bucket-block pool, in chunks that never relocate. */
    std::vector<std::unique_ptr<Block[]>> blockChunks;
    std::uint32_t blockCount = 0;       ///< blocks ever handed out
    std::uint32_t freeBlock = noBlock;  ///< free-list head
    std::size_t nearCount = 0;          ///< keys in bucket blocks
    std::vector<Key> far;               ///< 4-ary implicit min-heap

    std::size_t liveCount = 0; ///< events not yet fired
    Cycles _now = 0;
    std::uint64_t nextSeq = 0;
    std::vector<Stream> streams; ///< by id - 1
};

} // namespace virtsim

#endif // VIRTSIM_SIM_EVENT_QUEUE_HH
