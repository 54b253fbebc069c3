#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

namespace virtsim {

EventQueue::EventQueue()
{
    bucketHead.fill(noBlock);
    // A small world's buckets fit in the first chunk, so its first
    // events past the current bucket allocate nothing.
    blockChunks.push_back(std::make_unique<Block[]>(blockChunkBlocks));
}

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
    const Key k = far[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / heapArity;
        if (k >= far[parent])
            break;
        far[pos] = far[parent];
        pos = parent;
    }
    far[pos] = k;
}

std::size_t
EventQueue::leastChild(std::size_t first, std::size_t n) const
{
    if (first + heapArity <= n) [[likely]] {
        // A two-round tournament of selects: which child wins is data,
        // not control flow, so a random heap costs no mispredictions.
        const Key k0 = far[first], k1 = far[first + 1];
        const Key k2 = far[first + 2], k3 = far[first + 3];
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
        if (far[c] < far[best])
            best = c;
    }
    return best;
}

void
EventQueue::popTop()
{
    // Floyd's bottom-up pop: walk the hole from the root to a leaf
    // along the least children without comparing against the last
    // entry, then place that entry there and sift it up. It usually
    // belongs near the bottom, so this does about one compare per
    // level where a plain sift-down does two.
    const Key moved = far.back();
    far.pop_back();
    const std::size_t n = far.size();
    if (n == 0)
        return;
    std::size_t pos = 0;
    for (std::size_t first = 1; first < n; first = pos * heapArity + 1) {
        const std::size_t best = leastChild(first, n);
        far[pos] = far[best];
        pos = best;
    }
    far[pos] = moved;
    siftUp(pos);
}

void
EventQueue::fileFar(Key k)
{
    far.push_back(k);
    siftUp(far.size() - 1);
}

void
EventQueue::fileCurrent(Key k)
{
    // An insertion step from whichever end is nearer: the keys on
    // that side of k shift by one, and a new latest key, or a new
    // earliest one (into the slot of the key just popped), shifts
    // nothing.
    const std::size_t n = current.size() - currentHead;
    if (currentHead != 0 && n != 0 && k < current[currentHead + n / 2]) {
        std::size_t j = --currentHead;
        for (; current[j + 1] < k; ++j)
            current[j] = current[j + 1];
        current[j] = k;
        return;
    }
    current.push_back(k);
    sinkCurrent(current.size() - 1);
}

void
EventQueue::sinkCurrent(std::size_t j)
{
    const Key k = current[j];
    for (; j > currentHead && current[j - 1] > k; --j)
        current[j] = current[j - 1];
    current[j] = k;
}

std::uint32_t
EventQueue::newBlock(std::size_t b)
{
    std::uint32_t i = freeBlock;
    if (i != noBlock) {
        freeBlock = blockAt(i).next;
    } else {
        if (blockCount == blockChunks.size() * blockChunkBlocks) {
            blockChunks.push_back(
                std::make_unique<Block[]>(blockChunkBlocks));
        }
        i = blockCount++;
    }
    Block &blk = blockAt(i);
    blk.next = bucketHead[b];
    blk.count = 0;
    bucketHead[b] = i;
    nonEmpty[b / 64] |= std::uint64_t{1} << (b % 64);
    return i;
}

std::size_t
EventQueue::nextBucket() const
{
    // Scan the mask from the current bucket round the ring; its own
    // bit is clear, so the first set bit is the next bucket in time.
    const std::size_t start = windowStart & (nearBuckets - 1);
    std::size_t w = start / 64;
    std::uint64_t bits = nonEmpty[w] & (~std::uint64_t{0} << (start % 64));
    while (bits == 0) {
        w = (w + 1) % maskWords;
        bits = nonEmpty[w];
    }
    return w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

EventQueue::Key
EventQueue::leastIn(std::size_t b) const
{
    Key least = ~Key{0};
    for (std::uint32_t i = bucketHead[b]; i != noBlock;
         i = blockAt(i).next) {
        const Block &blk = blockAt(i);
        for (std::uint32_t k = 0; k < blk.count; ++k)
            least = std::min(least, blk.keys[k]);
    }
    return least;
}

Cycles
EventQueue::nextEventTimeAhead() const
{
    // Far keys lie beyond the window, so the least key is in the next
    // near bucket if there is one.
    if (nearCount != 0)
        return whenOf(leastIn(nextBucket()));
    return far.empty() ? noPendingEvent : whenOf(far.front());
}

bool
EventQueue::readyBy(Cycles last)
{
    if (currentHead != current.size()) [[likely]]
        return whenOf(current[currentHead]) <= last;
    std::uint64_t next;
    if (nearCount != 0) {
        const std::size_t b = nextBucket();
        next = windowStart + ((b - windowStart) & (nearBuckets - 1));
        const Cycles start = next << bucketShift;
        if (start > last)
            return false;
        // Only a bucket that straddles last needs its keys looked at.
        if (last - start < (Cycles{1} << bucketShift) - 1 &&
            whenOf(leastIn(b)) > last) {
            return false;
        }
    } else if (!far.empty() && whenOf(far.front()) <= last) {
        next = whenOf(far.front()) >> bucketShift;
    } else {
        return false;
    }
    windowStart = next;
    // The window now reaches further: file the far keys it covers.
    while (!far.empty() &&
           (whenOf(far.front()) >> bucketShift) - windowStart <
               nearBuckets) {
        fileNear(far.front());
        popTop();
    }
    // Gather the new current bucket, return its blocks to the pool
    // and sort it.
    const std::size_t b = windowStart & (nearBuckets - 1);
    std::uint32_t i = bucketHead[b];
    bucketHead[b] = noBlock;
    nonEmpty[b / 64] &= ~(std::uint64_t{1} << (b % 64));
    currentHead = 0;
    current.clear();
    do {
        Block &blk = blockAt(i);
        for (std::uint32_t k = 0; k < blk.count; ++k)
            current.push_back(blk.keys[k]);
        nearCount -= blk.count;
        const std::uint32_t older = blk.next;
        blk.next = freeBlock;
        freeBlock = i;
        i = older;
    } while (i != noBlock);
    if (current.size() > 16) {
        std::sort(current.begin(), current.end());
    } else {
        // Most buckets hold a few keys: an insertion sort.
        for (std::size_t n = 1; n < current.size(); ++n)
            sinkCurrent(n);
    }
    return true;
}

std::size_t
EventQueue::runBefore(Cycles bound)
{
    std::size_t fired = 0;
    while (bound != 0 && readyBy(bound - 1)) {
        fireNext();
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
    while (readyBy(limit))
        fireNext();
    if (_now < limit)
        _now = limit;
    return _now;
}

bool
EventQueue::step()
{
    if (!readyBy(noPendingEvent))
        return false;
    fireNext();
    return true;
}

void
EventQueue::fireNext()
{
    const Key top = current[currentHead++];
    if (currentHead == current.size()) {
        current.clear();
        currentHead = 0;
    } else {
        // The next event to fire is known: fetch its slot while this
        // callback runs.
        const Slot *next = &slotAt(slotOf(current[currentHead]));
        __builtin_prefetch(next);
        __builtin_prefetch(reinterpret_cast<const char *>(next) + 64);
    }
    const Cycles when = whenOf(top);
    VIRTSIM_ASSERT(when >= _now, "event in the past");
    _now = when;
    const std::uint32_t slot = slotOf(top);
    Slot &s = slotAt(slot);
    if (s.stream != 0) [[unlikely]] {
        // The successor's key is above the head's, so filing it now
        // gives the order pushing it by scheduleAt would have.
        Stream &st = streams[s.stream - 1];
        if (st.count == 0)
            st.filed = false;
        else
            file(st.pop());
    }
    // Fire the callback where it sits: chunks never move, so slots
    // the callback allocates (arena growth included) leave it in
    // place. The slot joins the free list only once the call is over.
    --liveCount;
    s.fn();
    s.fn.reset();
    freeSlots.push_back(slot);
}

} // namespace virtsim
