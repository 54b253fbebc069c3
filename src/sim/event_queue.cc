#include "sim/event_queue.hh"

#include <algorithm>
#include <utility>

#include "sim/channel.hh"

namespace virtsim {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

ShardChannel &
EventQueue::channel(std::string name, Cycles latency)
{
    for (auto &ch : channels) {
        if (ch->_name == name) {
            ch->_latency = std::min(ch->_latency, latency);
            return *ch;
        }
    }
    channels.push_back(std::unique_ptr<ShardChannel>(
        new ShardChannel(*this, std::move(name), latency)));
    return *channels.back();
}

StreamId
EventQueue::openStream()
{
    VIRTSIM_ASSERT(streams.size() < (std::size_t{1} << tagBits) - 1,
                   "too many streams on one queue");
    streams.emplace_back();
    return static_cast<StreamId>(streams.size());
}

void
EventQueue::Stream::grow()
{
    // Unwrap into a ring twice the size; head restarts at 0.
    std::vector<HeapEntry> bigger(ring.empty() ? 16 : ring.size() * 2);
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(bigger);
    head = 0;
}

void
EventQueue::siftUp(std::size_t pos)
{
    const HeapEntry e = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / heapArity;
        if (!firesBefore(e, heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = e;
}

void
EventQueue::siftDown(std::size_t pos)
{
    const HeapEntry e = heap[pos];
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = pos * heapArity + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + heapArity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (firesBefore(heap[c], heap[best]))
                best = c;
        }
        if (!firesBefore(heap[best], e))
            break;
        heap[pos] = heap[best];
        pos = best;
    }
    heap[pos] = e;
}

void
EventQueue::popTop()
{
    const HeapEntry moved = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
        heap[0] = moved;
        siftDown(0);
    }
}

void
EventQueue::advanceStream(std::uint32_t tag)
{
    Stream &st = streams[tag - 1];
    if (st.count == 0) {
        st.inHeap = false;
        popTop();
        return;
    }
    // The successor's key is no earlier than the head's, so it can
    // only sink: the heap order is what pushing it would have given.
    heap[0] = st.pop();
    siftDown(0);
}

void
EventQueue::purgeTop()
{
    // deadCount == 0 is the common case and skips the per-pop arena
    // generation probe entirely.
    while (deadCount != 0 && !heap.empty()) {
        const HeapEntry &top = heap.front();
        if (slotAt(top.slot).gen == top.gen)
            return; // live
        popTop();
        --deadCount;
    }
}

void
EventQueue::compact()
{
    // Keep only entries whose slot generation still matches (live),
    // then rebuild heap order bottom-up (Floyd): O(n) over the live
    // population, versus O(dead * log n) to drain them via purgeTop.
    std::size_t out = 0;
    for (const HeapEntry &e : heap) {
        if (slotAt(e.slot).gen == e.gen)
            heap[out++] = e;
    }
    heap.resize(out);
    deadCount = 0;
    if (!heap.empty()) {
        for (std::size_t i = (heap.size() - 1) / heapArity + 1; i-- > 0;)
            siftDown(i);
    }
    ++_compactions;
}

std::size_t
EventQueue::runBefore(Cycles bound)
{
    std::size_t fired = 0;
    for (;;) {
        purgeTop();
        if (heap.empty() || heap.front().when >= bound)
            break;
        step();
        ++fired;
    }
    return fired;
}

Cycles
EventQueue::run()
{
    while (step()) {
    }
    return _now;
}

Cycles
EventQueue::runUntil(Cycles limit)
{
    for (;;) {
        purgeTop();
        if (heap.empty() || heap.front().when > limit)
            break;
        step();
    }
    if (_now < limit)
        _now = limit;
    return _now;
}

bool
EventQueue::step()
{
    purgeTop();
    if (heap.empty())
        return false;
    const HeapEntry top = heap.front();
    VIRTSIM_ASSERT(top.when >= _now, "event in the past");
    _now = top.when;
    if (const std::uint32_t tag = top.seq & (seqStep - 1); tag != 0)
        [[unlikely]] {
        advanceStream(tag);
    } else {
        popTop();
    }
    Slot &s = slotAt(top.slot);
    // Move the callback out and recycle the slot *before* firing so
    // the callback can freely schedule into the vacated slot.
    EventFn fn = std::move(s.fn);
    releaseSlot(top.slot, s);
    --liveCount;
    fn();
    return true;
}

void
EventQueue::clear()
{
    while (!heap.empty()) {
        const HeapEntry &e = heap.back();
        Slot &s = slotAt(e.slot);
        if (s.gen == e.gen)
            releaseSlot(e.slot, s);
        heap.pop_back();
    }
    for (Stream &st : streams) {
        while (st.count != 0) {
            const HeapEntry e = st.pop();
            releaseSlot(e.slot, slotAt(e.slot));
        }
        st.last = 0;
        st.inHeap = false;
    }
    liveCount = 0;
    deadCount = 0;
}

} // namespace virtsim
