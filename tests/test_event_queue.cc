/**
 * @file
 * Unit tests for the discrete-event kernel: ordering, determinism,
 * and clock semantics — the foundation the measurement methodology
 * rests on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace virtsim;

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_EQ(eq.pending(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(30, [&] { order.push_back(3); });
    eq.scheduleAt(10, [&] { order.push_back(1); });
    eq.scheduleAt(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.scheduleAt(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    Cycles seen = 0;
    eq.scheduleAt(100, [&] {
        eq.scheduleAfter(50, [&] { seen = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            eq.scheduleAfter(1, chain);
    };
    eq.scheduleAt(0, chain);
    eq.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(eq.now(), 99u);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(10, [&] { ++fired; });
    eq.scheduleAt(20, [&] { ++fired; });
    eq.scheduleAt(30, [&] { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunUntilAdvancesClockWhenIdle)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500u);
}

TEST(EventQueue, StepFiresExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(1, [&] { ++fired; });
    eq.scheduleAt(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, RunUntilFiresEventExactlyAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleAt(100, [&] { ++fired; });
    eq.scheduleAt(101, [&] { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.runUntil(101);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameCycleFifoUnderHeavyChurn)
{
    // Interleave same-cycle scheduling with firing: each event at
    // cycle T appends two children at T+1; FIFO order within every
    // cycle must match scheduling order even as arena slots recycle.
    EventQueue eq;
    std::vector<std::pair<Cycles, int>> fired;
    int next_tag = 0;
    std::function<void(int, int)> spawn = [&](int tag, int depth) {
        fired.emplace_back(eq.now(), tag);
        if (depth >= 6)
            return;
        const int a = ++next_tag;
        const int b = ++next_tag;
        eq.scheduleAfter(1, [&spawn, a, depth] { spawn(a, depth + 1); });
        eq.scheduleAfter(1, [&spawn, b, depth] { spawn(b, depth + 1); });
    };
    for (int r = 0; r < 4; ++r) {
        const int tag = ++next_tag;
        eq.scheduleAt(1, [&spawn, tag] { spawn(tag, 0); });
    }
    eq.run();
    ASSERT_GT(fired.size(), 100u);
    // Time never goes backwards, and same-cycle tags fire in
    // scheduling (i.e. creation) order.
    for (std::size_t i = 1; i < fired.size(); ++i) {
        EXPECT_LE(fired[i - 1].first, fired[i].first);
        if (fired[i - 1].first == fired[i].first) {
            EXPECT_LT(fired[i - 1].second, fired[i].second);
        }
    }
}

TEST(EventQueueDeath, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.scheduleAt(100, [] {});
    eq.run();
    EXPECT_DEATH(eq.scheduleAt(50, [] {}), "scheduling into the past");
}

/** Property: any schedule order fires in (time, insertion) order. */
class EventQueueOrderTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EventQueueOrderTest, PermutedInsertionFiresSorted)
{
    const int seed = GetParam();
    EventQueue eq;
    // Pseudo-random times from a small LCG; deterministic per seed.
    unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
    std::vector<Cycles> fired;
    for (int i = 0; i < 200; ++i) {
        state = state * 1664525u + 1013904223u;
        const Cycles when = state % 997;
        eq.scheduleAt(when, [&fired, &eq] { fired.push_back(eq.now()); });
    }
    eq.run();
    ASSERT_EQ(fired.size(), 200u);
    for (std::size_t i = 1; i < fired.size(); ++i)
        EXPECT_LE(fired[i - 1], fired[i]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueOrderTest,
                         ::testing::Range(0, 10));

// ---------------------------------------------------------------------
// In-order streams: only a stream's earliest event sits in the heap,
// yet the merged fire order is exactly scheduleAt's (time, seq) order.
// ---------------------------------------------------------------------

namespace {

/**
 * Runs one queue through a seeded random workload: several streams
 * plus plain events, same-cycle ties, and callbacks that schedule
 * more events. With useStreams false every event goes through
 * scheduleAt, giving the reference order. Both runs draw the same
 * numbers as long as they fire in the same order.
 */
struct StreamWorkload
{
    static constexpr int nStreams = 5;

    StreamWorkload(EventQueue &eq, bool useStreams, std::uint64_t seed)
        : eq(eq), useStreams(useStreams), rng(seed)
    {
        if (useStreams) {
            for (int s = 0; s < nStreams; ++s)
                ids.push_back(eq.openStream());
        }
    }

    void
    schedule(int depth)
    {
        const int id = nextId++;
        EventFn fn = [this, id, depth] { fire(id, depth); };
        const std::uint64_t pick = rng() % (nStreams + 2);
        if (pick < nStreams) {
            // Small steps keep ties with the stream's own previous
            // event and with other streams common.
            Cycles &last = streamLast[pick];
            last = std::max(last, eq.now()) + rng() % 3;
            if (useStreams)
                eq.scheduleOn(ids[pick], last, std::move(fn));
            else
                eq.scheduleAt(last, std::move(fn));
        } else {
            eq.scheduleAt(eq.now() + rng() % 6, std::move(fn));
        }
    }

    void
    fire(int id, int depth)
    {
        log.push_back({id, eq.now()});
        if (depth < 4) {
            const std::uint64_t children = rng() % 3;
            for (std::uint64_t c = 0; c < children; ++c)
                schedule(depth + 1);
        }
    }

    struct Fired
    {
        int id;
        Cycles at;
        bool operator==(const Fired &) const = default;
    };

    EventQueue &eq;
    bool useStreams;
    std::mt19937_64 rng;
    std::vector<StreamId> ids;
    Cycles streamLast[nStreams] = {};
    int nextId = 0;
    std::vector<Fired> log;
};

} // namespace

TEST(EventQueueStream, MergedOrderMatchesPlainQueueUnderRandomLoad)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        EventQueue subject, reference;
        StreamWorkload a(subject, true, seed), b(reference, false, seed);
        for (int i = 0; i < 150; ++i) {
            a.schedule(0);
            b.schedule(0);
        }
        // Alternate the three bounded drains, then run dry; the two
        // queues must agree after every stretch, not only at the end.
        std::mt19937_64 bounds(seed * 7919);
        for (int round = 0; round < 30; ++round) {
            const Cycles bound = subject.now() + bounds() % 8;
            switch (round % 3) {
              case 0:
                EXPECT_EQ(subject.runBefore(bound),
                          reference.runBefore(bound));
                break;
              case 1:
                subject.runUntil(bound);
                reference.runUntil(bound);
                break;
              default:
                EXPECT_EQ(subject.step(), reference.step());
                break;
            }
            ASSERT_EQ(subject.now(), reference.now()) << "seed " << seed;
            ASSERT_EQ(subject.pending(), reference.pending());
            ASSERT_EQ(subject.nextEventTime(), reference.nextEventTime());
        }
        subject.run();
        reference.run();
        ASSERT_GT(a.log.size(), 300u);
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
        EXPECT_EQ(subject.pending(), 0u);
        EXPECT_EQ(subject.calendarSize(), 0u);
    }
}

TEST(EventQueueStream, BacklogStaysOutOfTheHeap)
{
    // fleet_observed's shape: 16 CPUs with a deep completion backlog
    // each, plus plain arrival events.
    constexpr std::size_t streams = 16, backlog = 2000, plain = 512;
    EventQueue eq;
    std::vector<StreamId> ids;
    for (std::size_t s = 0; s < streams; ++s)
        ids.push_back(eq.openStream());
    std::size_t maxHeap = 0;
    std::vector<Cycles> fired;
    auto probe = [&] {
        fired.push_back(eq.now());
        maxHeap = std::max(maxHeap, eq.calendarSize());
    };
    for (std::size_t i = 0; i < backlog; ++i) {
        for (std::size_t s = 0; s < streams; ++s)
            eq.scheduleOn(ids[s], i * 10 + s % 7, probe);
    }
    for (std::size_t i = 0; i < plain; ++i)
        eq.scheduleAt((i * 7919) % (backlog * 10), probe);
    EXPECT_EQ(eq.pending(), streams * backlog + plain);
    EXPECT_LE(eq.calendarSize(), streams + plain);
    eq.run();
    ASSERT_EQ(fired.size(), streams * backlog + plain);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
    EXPECT_LE(maxHeap, streams + plain);
    EXPECT_EQ(eq.calendarSize(), 0u);
}

namespace {

/** Callback that counts its live copies, to check that destroying a
 *  queue destroys every pending event. */
struct Counted
{
    explicit Counted(int *live) : live(live) { ++*live; }
    Counted(const Counted &o) noexcept : live(o.live) { ++*live; }
    ~Counted() { --*live; }
    Counted &operator=(const Counted &) = delete;
    void operator()() const {}
    int *live;
};

/** Backlog three streams and a few plain events. */
void
fillBacklog(EventQueue &eq, const std::vector<StreamId> &ids, int *live)
{
    for (Cycles t = 0; t < 40; ++t) {
        for (StreamId id : ids)
            eq.scheduleOn(id, eq.now() + t, Counted(live));
        if (t % 8 == 0)
            eq.scheduleAt(eq.now() + t, Counted(live));
    }
}

} // namespace

TEST(EventQueueStream, DestructionDestroysBackloggedCallbacks)
{
    int live = 0;
    {
        EventQueue eq;
        const std::vector<StreamId> ids{eq.openStream(), eq.openStream(),
                                        eq.openStream()};
        fillBacklog(eq, ids, &live);
        EXPECT_EQ(live, 3 * 40 + 5);
        eq.runUntil(10);
        // Stream backlogs wait outside the heap.
        EXPECT_LT(eq.calendarSize(), eq.pending());
        EXPECT_EQ(live, static_cast<int>(eq.pending()));
    }
    // Each pending capture was destroyed exactly once: a leak leaves
    // live above zero, a double destruction drives it below.
    EXPECT_EQ(live, 0);
}

TEST(EventQueue, SameCycleTiesIgnoreRecycledSlotNumbers)
{
    // Grow the arena past 65,536 slots and drain it: the free list
    // then hands slots out in descending order while the sequence
    // keeps ascending. Same-cycle ties must still fire in scheduling
    // order, so the slot bits below the sequence never decide one.
    constexpr int n = 70000;
    EventQueue eq;
    for (int i = 0; i < n; ++i)
        eq.scheduleAt(1, [] {});
    eq.run();
    std::vector<int> order;
    order.reserve(n);
    for (int i = 0; i < n; ++i)
        eq.scheduleAt(2, [&order, i] { order.push_back(i); });
    const StreamId id = eq.openStream();
    eq.scheduleOn(id, 2, [&order, n] { order.push_back(n); });
    eq.run();
    ASSERT_EQ(order.size(), static_cast<std::size_t>(n) + 1);
    for (int i = 0; i <= n; ++i)
        ASSERT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueStreamDeath, SchedulingBeforeTheStreamsLastEventPanics)
{
    EventQueue eq;
    const StreamId id = eq.openStream();
    eq.scheduleOn(id, 100, [] {});
    // Later than now() but earlier than the stream's last event.
    EXPECT_DEATH(eq.scheduleOn(id, 99, [] {}), "goes backwards");
}

// ---------------------------------------------------------------------
// Differential test against a reference that shares no code with the
// calendar: a std::set of (time, sequence) keys. The stream tests above
// compare two queues built on the same calendar, so a bug that
// misorders events would misorder both alike; here every firing must
// be the set's least key.
// ---------------------------------------------------------------------

namespace {

/** The calendar's geometry, restated: buckets of 2^10 cycles, a
 *  window of 2^10 buckets. */
constexpr Cycles bucketCycles = Cycles{1} << 10;
constexpr Cycles windowCycles = Cycles{1} << 20;

/**
 * Drives one queue through a seeded random mix of plain and stream
 * events, same-cycle ties and nested schedules from inside callbacks,
 * mirroring every pending event in a std::set keyed on (time,
 * scheduling order). A narrow workload keeps every delay inside the
 * current bucket or the next; a wide one also files into near buckets
 * across the window, at the window's end and up to eight windows out
 * (the far tier), on plain events and stream successors alike.
 */
struct DifferentialWorkload
{
    using Key = std::pair<Cycles, std::uint64_t>;
    static constexpr int nStreams = 3;

    DifferentialWorkload(std::uint64_t seed, bool wide)
        : rng(seed), wide(wide)
    {
        for (int s = 0; s < nStreams; ++s)
            streams.push_back(eq.openStream());
    }

    Cycles
    plainDelay()
    {
        if (!wide)
            return rng() % 3 == 0 ? rng() % 3 : rng() % 400;
        switch (rng() % 6) {
          case 0:
            return rng() % 3;
          case 1:
            return rng() % bucketCycles;
          case 2:
            return rng() % (64 * bucketCycles);
          case 3:
            return windowCycles - bucketCycles + rng() % (2 * bucketCycles);
          default:
            return rng() % (8 * windowCycles);
        }
    }

    Cycles
    streamStep()
    {
        if (wide && rng() % 4 == 0)
            return rng() % (2 * windowCycles);
        return rng() % 4;
    }

    /** Schedule one event, plain or on a stream. */
    void
    schedule(int depth)
    {
        const std::uint64_t pick = rng() % 8;
        if (pick < nStreams) {
            Cycles &last = streamLast[pick];
            last = std::max(last, eq.now()) + streamStep();
            const std::uint64_t seq = nextSeq++;
            eq.scheduleOn(streams[pick], last,
                          [this, seq, depth] { fire(seq, depth); });
            reference.insert({last, seq});
        } else {
            scheduleAt(eq.now() + plainDelay(), depth);
        }
    }

    /** Schedule one plain event at when. */
    void
    scheduleAt(Cycles when, int depth)
    {
        const std::uint64_t seq = nextSeq++;
        eq.scheduleAt(when, [this, seq, depth] { fire(seq, depth); });
        reference.insert({when, seq});
    }

    void
    fire(std::uint64_t seq, int depth)
    {
        ++fired;
        if (reference.empty() ||
            *reference.begin() != Key{eq.now(), seq}) {
            ++mismatches;
        }
        reference.erase({eq.now(), seq});
        if (depth < 3) {
            for (std::uint64_t c = rng() % 3; c > 0; --c)
                schedule(depth + 1);
        }
    }

    Cycles
    referenceNext() const
    {
        return reference.empty() ? noPendingEvent
                                 : reference.begin()->first;
    }

    /** The queue's observable state matches the reference's. */
    void
    expectInStep(std::uint64_t seed) const
    {
        ASSERT_EQ(eq.pending(), reference.size()) << "seed " << seed;
        ASSERT_EQ(mismatches, 0u) << "seed " << seed;
        ASSERT_EQ(eq.nextEventTime(), referenceNext()) << "seed " << seed;
    }

    EventQueue eq;
    std::mt19937_64 rng;
    bool wide;
    std::vector<StreamId> streams;
    Cycles streamLast[nStreams] = {};
    std::uint64_t nextSeq = 0;
    std::set<Key> reference;
    std::size_t fired = 0;
    std::size_t mismatches = 0;
};

/** Rounds of scheduling from outside, a bounded drain, then a peek
 *  and a schedule between now and the peeked key, which is still
 *  below every pending key. */
void
runDifferential(std::uint64_t seed, bool wide)
{
    DifferentialWorkload w(seed, wide);
    EventQueue &eq = w.eq;
    std::mt19937_64 drains(seed * 104729);
    const Cycles span = wide ? 2 * windowCycles : 200;
    for (int round = 0; round < 60; ++round) {
        for (int i = 0; i < 40; ++i)
            w.schedule(0);
        const std::size_t before = w.fired;
        const Cycles start = eq.now();
        const Cycles bound = start + drains() % span;
        switch (drains() % 3) {
          case 0: {
            const std::size_t n = eq.runBefore(bound);
            EXPECT_EQ(n, w.fired - before);
            ASSERT_TRUE(w.reference.empty() ||
                        w.reference.begin()->first >= bound);
            break;
          }
          case 1:
            eq.runUntil(bound);
            ASSERT_EQ(eq.now(), bound);
            ASSERT_TRUE(w.reference.empty() ||
                        w.reference.begin()->first > bound);
            break;
          default:
            for (int k = 0; k < 25; ++k)
                eq.step();
            break;
        }
        w.expectInStep(seed);
        const Cycles peeked = eq.nextEventTime();
        if (peeked != noPendingEvent && peeked > eq.now()) {
            w.scheduleAt(eq.now() + drains() % (peeked - eq.now()), 3);
            w.expectInStep(seed);
            ASSERT_LT(eq.nextEventTime(), peeked) << "seed " << seed;
        }
    }
    eq.run();
    w.expectInStep(seed);
    EXPECT_TRUE(w.reference.empty());
    EXPECT_EQ(eq.calendarSize(), 0u);
    EXPECT_GT(w.fired, 2000u);
    if (wide) {
        // Time ran through many windows, so the bucket ring wrapped
        // round many times and far keys moved into it.
        EXPECT_GT(eq.now(), 16 * windowCycles) << "seed " << seed;
    }
}

} // namespace

TEST(EventQueueDifferential, FiresInReferenceSetOrder)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        runDifferential(seed, false);
}

TEST(EventQueueDifferential, FarTierAndWindowWrapFireInReferenceSetOrder)
{
    for (std::uint64_t seed = 1; seed <= 12; ++seed)
        runDifferential(seed, true);
}

TEST(EventQueueDifferential, CrowdedBucketFiresInReferenceSetOrder)
{
    // Thousands of keys in one bucket, hundreds in one cycle, filed
    // while the bucket is ahead and again once it is current: each
    // must land in order among keys already sorted there, at either
    // end or in the middle.
    DifferentialWorkload w(7, false);
    EventQueue &eq = w.eq;
    const Cycles bucket = 5 * bucketCycles;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 3000; ++i)
        w.scheduleAt(bucket + rng() % bucketCycles, 3);
    for (int i = 0; i < 400; ++i)
        w.scheduleAt(bucket + 17, 3);
    eq.runUntil(bucket + 100);
    w.expectInStep(7);
    for (int i = 0; i < 2000; ++i) {
        const Cycles when = i % 4 == 0 ? eq.now()
                                       : eq.now() + rng() % (bucketCycles / 2);
        w.scheduleAt(when, 3);
        if (i % 50 == 0) {
            eq.step();
            w.expectInStep(7);
        }
    }
    eq.run();
    w.expectInStep(7);
    EXPECT_TRUE(w.reference.empty());
    EXPECT_EQ(w.fired, 5400u);
}

// ---------------------------------------------------------------------
// In-place firing: step() calls each callback where it sits in the
// arena and recycles the slot only once the call returns.
// ---------------------------------------------------------------------

TEST(EventQueueInPlace, ArenaGrowthDuringACallbackLeavesItsCaptureIntact)
{
    EventQueue eq;
    const std::array<std::uint64_t, 8> tag{1, 2, 3, 5, 8, 13, 21, 34};
    std::array<std::uint64_t, 8> seen{};
    int fired = 0;
    eq.scheduleAt(1, [&eq, &seen, &fired, tag] {
        // Far more slots than the arena holds: it grows by many
        // chunks while this capture is live.
        for (int i = 0; i < 1500; ++i)
            eq.scheduleAfter(1 + i % 3, [&fired] { ++fired; });
        seen = tag;
    });
    eq.run();
    EXPECT_EQ(seen, tag);
    EXPECT_EQ(fired, 1500);
}

namespace {

/** Counts its live copies, copies and moves, destructions and calls,
 *  and calls that found a destruction count other than one per
 *  earlier call. */
struct Tracked
{
    struct Counts
    {
        int live = 0;
        int copiesAndMoves = 0;
        int destroyed = 0;
        int calls = 0;
        int callsOutOfStep = 0;
    };

    explicit Tracked(Counts *c) : c(c) { ++c->live; }
    Tracked(const Tracked &o) noexcept : c(o.c)
    {
        ++c->live;
        ++c->copiesAndMoves;
    }
    ~Tracked()
    {
        --c->live;
        ++c->destroyed;
    }
    Tracked &operator=(const Tracked &) = delete;

    /** Every earlier callback is gone by now; this one is not. */
    void
    operator()() const
    {
        c->callsOutOfStep += c->destroyed != c->calls;
        ++c->calls;
    }

    Counts *c;
};

} // namespace

TEST(EventQueueInPlace, EachCaptureIsDestroyedOnceAfterItReturns)
{
    Tracked::Counts counts;
    EventQueue eq;
    const StreamId id = eq.openStream();
    const Tracked cb(&counts);
    for (Cycles t = 1; t <= 50; ++t) {
        eq.scheduleAt(t, cb);
        eq.scheduleOn(id, t, cb);
    }
    // Built in its slot: one copy from cb per event, never a move.
    EXPECT_EQ(counts.copiesAndMoves, 100);
    EXPECT_EQ(counts.live, 101);
    counts.destroyed = 0;
    while (eq.step()) {
        ASSERT_EQ(counts.destroyed, counts.calls)
            << "a fired callback was destroyed other than once";
    }
    EXPECT_EQ(counts.calls, 100);
    EXPECT_EQ(counts.callsOutOfStep, 0)
        << "a callback was destroyed before it ran";
    EXPECT_EQ(counts.copiesAndMoves, 100) << "firing moved a callback";
    EXPECT_EQ(counts.live, 1);
}
