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
    const Key k = keyOf(e);
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / heapArity;
        if (k >= keyOf(heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = e;
}

std::size_t
EventQueue::leastChild(std::size_t first, std::size_t n) const
{
    if (first + heapArity <= n) [[likely]] {
        // A two-round tournament of selects: which child wins is data,
        // not control flow, so a random heap costs no mispredictions.
        const Key k0 = keyOf(heap[first]), k1 = keyOf(heap[first + 1]);
        const Key k2 = keyOf(heap[first + 2]), k3 = keyOf(heap[first + 3]);
        const bool b01 = k1 < k0, b23 = k3 < k2;
        const std::size_t i01 = first + b01, i23 = first + 2 + b23;
        const Key k01 = b01 ? k1 : k0, k23 = b23 ? k3 : k2;
        // A mask rather than ?: here, which compilers turn back into
        // a branch.
        const std::size_t pick = -static_cast<std::size_t>(k23 < k01);
        return (i23 & pick) | (i01 & ~pick);
    }
    // The one node with fewer than four children.
    std::size_t best = first;
    for (std::size_t c = first + 1; c < n; ++c) {
        if (keyOf(heap[c]) < keyOf(heap[best]))
            best = c;
    }
    return best;
}

void
EventQueue::siftDown(std::size_t pos)
{
    const HeapEntry e = heap[pos];
    const Key k = keyOf(e);
    const std::size_t n = heap.size();
    for (;;) {
        const std::size_t first = pos * heapArity + 1;
        if (first >= n)
            break;
        const std::size_t best = leastChild(first, n);
        if (keyOf(heap[best]) >= k)
            break;
        heap[pos] = heap[best];
        pos = best;
    }
    heap[pos] = e;
}

void
EventQueue::replaceTop(const HeapEntry &e)
{
    // Floyd's bottom-up pop: walk the hole from the root to a leaf
    // along the least children without comparing against e, then
    // place e there and sift it up. A replacement usually belongs
    // near the bottom, so this does about one compare per level
    // where a plain sift-down does two.
    const std::size_t n = heap.size();
    std::size_t pos = 0;
    for (std::size_t first = 1; first < n; first = pos * heapArity + 1) {
        const std::size_t best = leastChild(first, n);
        heap[pos] = heap[best];
        pos = best;
    }
    heap[pos] = e;
    siftUp(pos);
}

void
EventQueue::popTop()
{
    const HeapEntry moved = heap.back();
    heap.pop_back();
    if (!heap.empty())
        replaceTop(moved);
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
    // The successor's key is above the head's, so the heap order is
    // what pushing it would have given.
    replaceTop(st.pop());
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
    // Fire the callback where it sits: chunks never move, so slots
    // the callback allocates (arena growth included) leave it in
    // place. Bumping gen first makes the event's own id stale, so
    // cancelling it from inside returns false; the slot joins the
    // free list only once the call is over.
    Slot &s = slotAt(top.slot);
    ++s.gen;
    --liveCount;
    s.fn();
    s.fn.reset();
    freeSlots.push_back(top.slot);
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
