/**
 * @file
 * The reference kernel. Its work is fixed: the same heap operations
 * and hash-map churn on every call, in every process, on every commit.
 * Host time of a timed step divided by the time of this kernel run
 * next to it cancels most of the host's between-process drift (clock
 * and neighbour load), which raw seconds on a shared host do not.
 *
 * Deliberately independent of virtsim: a change to the simulator, its
 * library or its build flags must not change this code's duration.
 */

#include <cstdint>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench.hh"

namespace perfbench {

namespace {

// A cache-resident working set (about 100 KB). Paired in the same
// processes on a shared 4-core host, a 2^19-key table (tens of MB,
// L3-bound) left the paper pass at 12% spread between processes and a
// 2^14-key table at 7-8%, against 7% and the smallest range for this one.
constexpr int refPending = 4096;
constexpr int refSteps = 100000;
constexpr std::uint64_t refKeySpace = 1u << 10;

std::uint64_t
xorshift(std::uint64_t &s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/** Observed result; keeps the compiler from discarding the work. */
volatile std::uint64_t refSink = 0;

[[gnu::noinline]] std::uint64_t
refWork()
{
    using Ev = std::pair<std::uint64_t, std::uint64_t>;
    std::vector<Ev> storage;
    storage.reserve(refPending + 1);
    std::priority_queue<Ev, std::vector<Ev>, std::greater<Ev>> heap(
        std::greater<Ev>{}, std::move(storage));
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    table.reserve(refKeySpace);

    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < refPending; ++i)
        heap.push({xorshift(rng) % 1024, xorshift(rng) % refKeySpace});

    std::uint64_t acc = 0;
    for (int s = 0; s < refSteps; ++s) {
        const Ev ev = heap.top();
        heap.pop();
        std::uint64_t &slot = table[ev.second];
        slot += ev.first;
        if ((slot & 7) == 0)
            table.erase((ev.second * 7919) % refKeySpace);
        acc += slot;
        heap.push({ev.first + 1 + xorshift(rng) % 1024,
                   xorshift(rng) % refKeySpace});
    }
    return acc + table.size();
}

} // namespace

double
runReferenceKernel()
{
    const double t0 = wallNow();
    refSink = refWork();
    return wallNow() - t0;
}

} // namespace perfbench
