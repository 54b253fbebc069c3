#include "sim/event_queue.hh"

#include <limits>
#include <utility>

namespace virtsim {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue() = default;

StreamId
EventQueue::openStream()
{
    VIRTSIM_ASSERT(streams.size() < std::numeric_limits<StreamId>::max(),
                   "too many streams on one queue");
    streams.emplace_back();
    return static_cast<StreamId>(streams.size());
}

void
EventQueue::Stream::grow()
{
    // Unwrap into a ring twice the size; head restarts at 0.
    std::vector<Key> bigger(ring.empty() ? 16 : ring.size() * 2);
    for (std::size_t i = 0; i < count; ++i)
        bigger[i] = ring[(head + i) & (ring.size() - 1)];
    ring = std::move(bigger);
    head = 0;
}

void
EventQueue::siftUp(std::size_t pos)
{
    const Key k = heap[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / heapArity;
        if (k >= heap[parent])
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = k;
}

std::size_t
EventQueue::leastChild(std::size_t first, std::size_t n) const
{
    if (first + heapArity <= n) [[likely]] {
        // A two-round tournament of selects: which child wins is data,
        // not control flow, so a random heap costs no mispredictions.
        const Key k0 = heap[first], k1 = heap[first + 1];
        const Key k2 = heap[first + 2], k3 = heap[first + 3];
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
        if (heap[c] < heap[best])
            best = c;
    }
    return best;
}

void
EventQueue::replaceTop(Key k)
{
    // Floyd's bottom-up pop: walk the hole from the root to a leaf
    // along the least children without comparing against k, then
    // place k there and sift it up. A replacement usually belongs
    // near the bottom, so this does about one compare per level
    // where a plain sift-down does two.
    const std::size_t n = heap.size();
    std::size_t pos = 0;
    for (std::size_t first = 1; first < n; first = pos * heapArity + 1) {
        const std::size_t best = leastChild(first, n);
        heap[pos] = heap[best];
        pos = best;
    }
    heap[pos] = k;
    siftUp(pos);
}

void
EventQueue::popTop()
{
    const Key moved = heap.back();
    heap.pop_back();
    if (!heap.empty())
        replaceTop(moved);
}

void
EventQueue::advanceStream(StreamId id)
{
    Stream &st = streams[id - 1];
    if (st.count == 0) {
        st.inHeap = false;
        popTop();
        return;
    }
    // The successor's key is above the head's, so the heap order is
    // what pushing it would have given.
    replaceTop(st.pop());
}

std::size_t
EventQueue::runBefore(Cycles bound)
{
    std::size_t fired = 0;
    while (!heap.empty() && whenOf(heap.front()) < bound) {
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
    while (!heap.empty() && whenOf(heap.front()) <= limit)
        step();
    if (_now < limit)
        _now = limit;
    return _now;
}

bool
EventQueue::step()
{
    if (heap.empty())
        return false;
    const Key top = heap.front();
    const Cycles when = whenOf(top);
    VIRTSIM_ASSERT(when >= _now, "event in the past");
    _now = when;
    const std::uint32_t slot = slotOf(top);
    Slot &s = slotAt(slot);
    if (s.stream != 0) [[unlikely]] {
        advanceStream(s.stream);
    } else {
        popTop();
    }
    // Fire the callback where it sits: chunks never move, so slots
    // the callback allocates (arena growth included) leave it in
    // place. The slot joins the free list only once the call is over.
    --liveCount;
    s.fn();
    s.fn.reset();
    freeSlots.push_back(slot);
    return true;
}

} // namespace virtsim
