/**
 * @file
 * Flight-recorder tests: sliding-window retention behind the sampling
 * clock (differentially against a compacting-ring reference model),
 * trigger capture with source merging, overwrite surfacing, the
 * fleet's incident export, the pinned saturated overload world, the
 * zero-alloc disabled stamp path, and env validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

// ---------------------------------------------------------------------
// Allocation counter (the test_latency idiom): the disabled flight
// stamp must be one predicted branch — never an allocation.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedMalloc(std::size_t size) noexcept
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedAlloc(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

// The nothrow forms too (std::stable_sort takes its buffer from
// them): every form must pair with the free() below, or a sanitizer
// runtime's own nothrow new meets this file's delete.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#include "core/fleet.hh"
#include "sim/flight.hh"
#include "sim/probe.hh"
#include "sim/random.hh"

using namespace virtsim;

namespace {

/** Scoped environment override; restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *prev = std::getenv(name);
        if (prev)
            saved = prev;
        had = prev != nullptr;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            ::setenv(name, saved.c_str(), 1);
        else
            ::unsetenv(name);
    }

  private:
    const char *name;
    std::string saved;
    bool had = false;
};

TraceRecord
rec(Cycles when, TraceKind kind = TraceKind::Instant,
    std::uint16_t track = 0)
{
    static const TapId tap = internTap("test.flight.tap");
    return TraceRecord{when, 0, tap, track, kind, TraceCat::Op};
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

FleetConfig
overloadFleet()
{
    // The FleetSlo overload shape: open-loop arrivals far past the
    // per-CPU service capacity, a tight objective, 1 ms burn windows
    // — every run trips the SLO and freezes at least one incident.
    FleetConfig cfg;
    cfg.nCpus = 4;
    cfg.connsPerCpu = 8;
    cfg.transactionsPerConn = 60;
    cfg.latency = true;
    cfg.openLoop = true;
    cfg.meanInterarrivalUs = 20.0;
    SloSpec spec;
    spec.name = "rtt_p99";
    spec.thresholdCycles = 240000; // 100 us at 2.4 GHz
    spec.maxViolationFraction = 0.01;
    spec.burnWindow = 2400000; // 1 ms windows
    cfg.slos.push_back(spec);
    return cfg;
}

/**
 * Reference model for retention: one ring with the plain
 * order-preserving O(ring) compaction — the simplest statement of the
 * eviction semantics. The expiry-indexed recorder must match it
 * record for record.
 */
struct RefRing
{
    static constexpr std::size_t cap = FlightRecorder::windowCapacity;
    std::vector<TraceRecord> ring = std::vector<TraceRecord>(cap);
    std::size_t head = 0;
    std::size_t count = 0;
    std::uint64_t total = 0;
    std::uint64_t forced = 0;
    Cycles maxForcedWhen = 0;
    std::uint64_t compactions = 0;

    void
    push(const TraceRecord &r)
    {
        constexpr std::size_t mask = cap - 1;
        if (count == cap) {
            const TraceRecord &old = ring[head];
            ++forced;
            if (old.when > maxForcedWhen)
                maxForcedWhen = old.when;
            --count;
        }
        ring[head] = r;
        head = (head + 1) & mask;
        ++count;
        ++total;
    }

    void
    evict(Cycles now, Cycles retention)
    {
        if (now <= retention)
            return;
        const Cycles cut = now - retention;
        constexpr std::size_t mask = cap - 1;
        while (count > 0) {
            const std::size_t tail = (head + cap - count) & mask;
            if (ring[tail].when >= cut)
                break;
            --count;
        }
        if (count >= cap - cap / 4) {
            ++compactions;
            const std::size_t start = (head + cap - count) & mask;
            std::size_t kept = 0;
            for (std::size_t i = 0; i < count; ++i) {
                const TraceRecord &r = ring[(start + i) & mask];
                if (r.when < cut)
                    continue;
                ring[(start + kept) & mask] = r;
                ++kept;
            }
            head = (start + kept) & mask;
            count = kept;
        }
    }

    struct Ref
    {
        TraceRecord rec;
        std::uint64_t pos;
    };

    void
    collect(Cycles begin, Cycles end, std::vector<Ref> &out) const
    {
        constexpr std::size_t mask = cap - 1;
        for (std::size_t i = 0; i < count; ++i) {
            const TraceRecord &r = ring[(head + cap - count + i) & mask];
            if (r.when >= begin && r.when <= end)
                out.push_back(Ref{r, total - count + i});
        }
    }
};

/** The reference canonical order over a RefRing's window. */
std::vector<TraceRecord>
refWindow(const RefRing &ring, Cycles begin, Cycles end)
{
    std::vector<RefRing::Ref> refs;
    ring.collect(begin, end, refs);
    std::sort(refs.begin(), refs.end(),
              [](const RefRing::Ref &a, const RefRing::Ref &b) {
                  const int ka = a.rec.kind == TraceKind::EdgeOut ? 0 : 1;
                  const int kb = b.rec.kind == TraceKind::EdgeOut ? 0 : 1;
                  return std::tie(a.rec.when, ka, a.rec.track, a.pos) <
                         std::tie(b.rec.when, kb, b.rec.track, b.pos);
              });
    std::vector<TraceRecord> out;
    for (const RefRing::Ref &r : refs)
        out.push_back(r.rec);
    return out;
}

bool
sameRecords(const std::vector<TraceRecord> &a,
            const std::vector<TraceRecord> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].when != b[i].when || a[i].arg != b[i].arg ||
            a[i].tap != b[i].tap || a[i].track != b[i].track ||
            a[i].kind != b[i].kind || a[i].cat != b[i].cat)
            return false;
    }
    return true;
}

/** 64-bit FNV-1a over a byte string. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

} // namespace

// ---------------------------------------------------------------------
// Retention
// ---------------------------------------------------------------------

TEST(FlightRetention, EvictsOnTheBarrierClockOnly)
{
    FlightRecorder fr;
    fr.configure(/*windowHalf=*/500, /*period=*/100,
                 /*incidentCap=*/4);
    fr.enable();
    // R = 2W + 8 * period = 1800.
    EXPECT_EQ(fr.retention(), 1800u);

    for (Cycles t = 0; t < 1000; t += 100)
        fr.record(rec(t));
    ASSERT_EQ(fr.retainedRecords(), 10u);

    // A barrier tick inside the retention horizon evicts nothing...
    fr.onSample(1000);
    EXPECT_EQ(fr.retainedRecords(), 10u);

    // ...one far past it drops every record behind now - R.
    fr.onSample(3000);
    EXPECT_EQ(fr.retainedRecords(), 0u);
}

TEST(FlightRetention, OutOfOrderStampsStayUntilStale)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();

    // A young-stamped record written first blocks the tail fast
    // path; the stale records behind it must still go once the
    // segment nears capacity (the compaction path), and the young
    // record itself must survive.
    fr.record(rec(100000));
    const std::size_t fill = FlightRecorder::windowCapacity -
                             FlightRecorder::windowCapacity / 4 + 8;
    for (std::size_t i = 1; i < fill; ++i)
        fr.record(rec(10));
    ASSERT_EQ(fr.retainedRecords(), fill);

    fr.onSample(50000); // cut = 48200: everything but the young one
    EXPECT_EQ(fr.retainedRecords(), 1u);
}

TEST(FlightRetention, ExpiryIndexMatchesCompactingRing)
{
    // Driven with in-order stamps, stamps back-dated past retention,
    // and stamps future-dated beyond the expiry wheel (which keep the
    // ring saturated and force overwrites). After
    // every tick the recorder must hold exactly the reference's
    // records in the same canonical order, and every captured window
    // must agree on truncation.
    constexpr Cycles W = 500, P = 100;
    FlightRecorder fr;
    fr.configure(W, P, /*incidentCap=*/1000);
    fr.enable();
    const Cycles R = fr.retention();
    // Bucket width is 64 cycles here (largest power of two <= P).
    const Cycles wheelSpan = FlightRecorder::wheelBuckets * 64;
    RefRing ref;

    Random rng(2024);
    static const TapId taps[] = {internTap("test.flight.diff.a"),
                                 internTap("test.flight.diff.b")};
    Cycles now = 0;
    std::uint64_t seq = 0;
    std::size_t captured = 0;
    bool sawForced = false;
    for (int tick = 0; tick < 300; ++tick) {
        for (int i = 0; i < 700; ++i) {
            Cycles when;
            const double u = rng.uniform();
            if (u < 0.62) {
                when = now + rng.below(300);
            } else if (u < 0.72) {
                const Cycles back = R + rng.below(6000);
                when = now > back ? now - back : rng.below(50);
            } else if (u < 0.86) {
                when = now + wheelSpan + rng.below(4 * wheelSpan);
            } else {
                when = now + rng.below(60000);
            }
            when -= when % 10; // coarse stamps: plenty of key ties
            const TraceRecord r{
                when, ++seq, taps[rng.below(2)],
                static_cast<std::uint16_t>(rng.below(3)),
                rng.chance(0.3) ? TraceKind::EdgeOut : TraceKind::Instant,
                TraceCat::Op};
            fr.record(r);
            ref.push(r);
        }
        // Mostly period-aligned ticks; some off-grid, one long jump
        // past a whole wheel turn, and one step backwards.
        if (tick == 240)
            now += 3 * wheelSpan;
        else if (tick == 270)
            now -= 40 * P;
        else
            now += P + (tick % 7 == 3 ? rng.below(P) : 0);
        if (tick % 9 == 0)
            fr.trigger(now, "tick");
        fr.onSample(now);
        ref.evict(now, R);
        sawForced = sawForced || ref.forced > 0;
        ASSERT_EQ(fr.retainedRecords(), ref.count) << "tick " << tick;
        ASSERT_TRUE(sameRecords(fr.collectWindow(0, UINT64_MAX),
                                refWindow(ref, 0, UINT64_MAX)))
            << "tick " << tick;
        for (; captured < fr.incidentCount(); ++captured) {
            const FlightIncident &inc = fr.incident(captured);
            const bool truncated =
                ref.forced > 0 && ref.maxForcedWhen >= inc.begin;
            EXPECT_EQ(inc.truncated, truncated) << "tick " << tick;
            EXPECT_TRUE(sameRecords(
                inc.records, refWindow(ref, inc.begin, inc.end)))
                << "tick " << tick;
        }
    }
    // The drive really compacted, saturated and captured windows.
    EXPECT_GT(ref.compactions, 50u);
    EXPECT_TRUE(sawForced);
    EXPECT_GT(captured, 10u);
}

// ---------------------------------------------------------------------
// Trigger capture
// ---------------------------------------------------------------------

TEST(FlightCapture, FreezesWindowAroundTriggerAndMergesSources)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();

    fr.record(rec(1400)); // outside [1500, 2500]
    fr.record(rec(1600));
    fr.record(rec(2400));
    fr.record(rec(2600)); // outside

    fr.trigger(2000, "slo.rtt_p99.burn");
    fr.onAnomaly(2000, "slo.rtt_p99", true);
    fr.trigger(2000, "slo.rtt_p99.burn"); // duplicate: deduped

    // The window's post-trigger half has not elapsed yet.
    fr.onSample(2100);
    EXPECT_EQ(fr.incidentCount(), 0u);

    fr.onSample(2600);
    ASSERT_EQ(fr.incidentCount(), 1u);
    const FlightIncident &inc = fr.incident(0);
    EXPECT_EQ(inc.triggerAt, 2000u);
    EXPECT_EQ(inc.begin, 1500u);
    EXPECT_EQ(inc.end, 2500u);
    EXPECT_FALSE(inc.clipped);
    EXPECT_FALSE(inc.truncated);
    EXPECT_EQ(inc.records.size(), 2u);
    ASSERT_EQ(inc.sources.size(), 2u); // sorted, deduplicated
    EXPECT_EQ(inc.sources[0], "slo.rtt_p99.burn");
    EXPECT_EQ(inc.sources[1], "watchdog.slo.rtt_p99.open");

    const std::string json =
        fr.renderIncidentJson(0, Frequency(2.4), "test");
    EXPECT_NE(json.find("\"schema\":\"virtsim-incident-1\""),
              std::string::npos);
    EXPECT_NE(json.find("slo.rtt_p99.burn"), std::string::npos);
    EXPECT_NE(json.find("\"blame_diff\""), std::string::npos);
}

TEST(FlightCapture, FinalizeClipsPendingWindows)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    fr.record(rec(1900));
    fr.trigger(2000, "watchdog.x.open");
    fr.finalize(2200); // run ended before 2500
    ASSERT_EQ(fr.incidentCount(), 1u);
    EXPECT_TRUE(fr.incident(0).clipped);
    EXPECT_EQ(fr.incident(0).end, 2200u);
    EXPECT_EQ(fr.incident(0).records.size(), 1u);
}

TEST(FlightCapture, CapCountsDroppedTriggers)
{
    FlightRecorder fr;
    fr.configure(500, 100, /*incidentCap=*/2);
    fr.enable();
    fr.trigger(1000, "a");
    fr.trigger(2000, "b");
    fr.trigger(3000, "c"); // past the cap
    fr.trigger(3000, "d"); // merges would exceed too: dropped
    EXPECT_EQ(fr.incidentsDropped(), 2u);
    fr.finalize(4000);
    EXPECT_EQ(fr.incidentCount(), 2u);
}

TEST(FlightCapture, RingOverwriteSurfacesAsTruncated)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    // The ring holds windowCapacity records; pushing past that with
    // in-window stamps forces overwrites which must mark the window.
    for (std::size_t i = 0; i < FlightRecorder::windowCapacity + 64; ++i)
        fr.record(rec(5000));
    fr.trigger(5000, "watchdog.x.open");
    fr.onSample(5600);
    ASSERT_EQ(fr.incidentCount(), 1u);
    EXPECT_TRUE(fr.incident(0).truncated);
}

// ---------------------------------------------------------------------
// Fleet integration: determinism and export
// ---------------------------------------------------------------------

TEST(FlightFleet, IncidentReportNamesRuleAndIsDeterministic)
{
    const std::string dir = ::testing::TempDir() + "flight_inc";
    const std::string file = dir + "/incident.fleet.000.json";
    ScopedEnv e("VIRTSIM_INCIDENTS", dir.c_str());
    const FleetConfig cfg = overloadFleet();

    std::remove(file.c_str());
    const FleetResult first = runNetperfRrFleet(cfg);
    const std::string ref = slurp(file);
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("\"schema\":\"virtsim-incident-1\""),
              std::string::npos);
    EXPECT_NE(ref.find("slo.rtt_p99"), std::string::npos);
    // A saturated fleet has a nonempty latency-critical chain.
    EXPECT_EQ(ref.find("\"steps\":[]"), std::string::npos);

    std::remove(file.c_str());
    const FleetResult again = runNetperfRrFleet(cfg);
    EXPECT_TRUE(first.sameModelledResult(again));
    EXPECT_EQ(slurp(file), ref);
    std::remove(file.c_str());
}

TEST(FlightFleet, SaturatedOverloadWorldIsPinned)
{
    // The 16-VM open-loop overload world (60 us mean interarrival, 4x
    // bursts, 150 transactions per connection, arrival seed 168),
    // with incidents and latency exported. It fills the
    // flight ring and tracks 16 CPUs; the digests pin both exports
    // byte for byte. A change that alters them on purpose updates the
    // values and says why.
    const std::string dir = ::testing::TempDir() + "flight_pin";
    const std::string latency = ::testing::TempDir() + "flight_pin.json";
    const std::string latencyFile =
        ::testing::TempDir() + "flight_pin.fleet.json";
    const std::string incident = dir + "/incident.fleet.000.json";
    ScopedEnv inc("VIRTSIM_INCIDENTS", dir.c_str());
    ScopedEnv lat("VIRTSIM_LATENCY", latency.c_str());
    ScopedEnv vms("VIRTSIM_FLEET_VMS", nullptr);
    std::remove(incident.c_str());
    std::remove((dir + "/incident.fleet.001.json").c_str());
    std::remove(latencyFile.c_str());

    FleetConfig cfg;
    cfg.nVms = 16;
    cfg.transactionsPerConn = 150;
    cfg.openLoop = true;
    cfg.meanInterarrivalUs = 60.0;
    cfg.burstRateFactor = 4.0;
    cfg.latency = true;
    cfg.arrivalSeed = 168;
    const FleetResult r = runNetperfRrFleet(cfg);
    EXPECT_EQ(r.transactions, 76800u);
    EXPECT_EQ(r.sloBreaches, 1u);

    const std::string incJson = slurp(incident);
    const std::string latJson = slurp(latencyFile);
    ASSERT_FALSE(incJson.empty());
    ASSERT_FALSE(latJson.empty());
    EXPECT_FALSE(
        std::filesystem::exists(dir + "/incident.fleet.001.json"));
    // The ring saturates: the window lost live records to overwrite.
    EXPECT_NE(incJson.find("\"truncated\":true"), std::string::npos);
    EXPECT_EQ(fnv1a(incJson), 0xfce6be34514508b7ULL);
    EXPECT_EQ(fnv1a(latJson), 0xda8e999e63566987ULL);
    std::remove(incident.c_str());
    std::remove(latencyFile.c_str());
}

// ---------------------------------------------------------------------
// Fast path
// ---------------------------------------------------------------------

TEST(FlightFastPath, DisabledStampAllocatesNothing)
{
    FlightRecorder fr; // never enabled
    const TraceRecord r = rec(123);
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 4096; ++i)
        fr.record(r);
    EXPECT_EQ(g_news.load(), before);
    EXPECT_EQ(fr.retainedRecords(), 0u);
}

TEST(FlightFastPath, EnabledStampAllocatesNothing)
{
    FlightRecorder fr;
    fr.configure(500, 100, 4);
    fr.enable();
    const TraceRecord r = rec(123);
    fr.record(r); // first touch
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 4096; ++i)
        fr.record(r);
    EXPECT_EQ(g_news.load(), before);
}
