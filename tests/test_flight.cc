/**
 * @file
 * Flight-recorder tests: trigger capture with source merging over a
 * small trace ring, windows and truncation differentially against a
 * model that keeps every pushed record, the stderr incident summary,
 * the fleet's incident export and the pinned saturated overload world.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/fleet.hh"
#include "core/report.hh"
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

TapId
testTap()
{
    static const TapId tap = internTap("test.flight.tap");
    return tap;
}

/** A recorder bound to a small trace ring, the way core/observe binds
 *  one to the machine's sink: W = 500, period 100. */
struct Rig
{
    TraceSink sink;
    FlightRecorder fr;

    explicit Rig(std::uint32_t incidentCap = 4)
    {
        sink.setCapacity(1024);
        sink.enable();
        fr.configure(/*windowHalf=*/500, /*period=*/100, incidentCap);
        fr.bind(&sink, nullptr, nullptr);
        fr.enable();
    }

    void
    stamp(Cycles when)
    {
        sink.instant(when, testTap(), TraceCat::Op, 0);
    }
};

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
 * Reference model: keeps every record pushed into a ring of `cap`
 * slots. The ring retains the last `cap` writes, so a window is those
 * writes stamped in [begin, end] in canonical order (when,
 * EdgeOut-first, track, absolute write index), and it is truncated
 * iff an earlier, overwritten write was stamped at or after begin.
 */
struct FullHistory
{
    std::size_t cap = 0;
    std::vector<TraceRecord> all;

    std::size_t
    firstRetained() const
    {
        return all.size() > cap ? all.size() - cap : 0;
    }

    std::vector<TraceRecord>
    window(Cycles begin, Cycles end) const
    {
        std::vector<std::size_t> idx;
        for (std::size_t i = firstRetained(); i < all.size(); ++i)
            if (all[i].when >= begin && all[i].when <= end)
                idx.push_back(i);
        auto key = [this](std::size_t i) {
            const TraceRecord &r = all[i];
            return std::make_tuple(
                r.when, r.kind == TraceKind::EdgeOut ? 0 : 1, r.track,
                i);
        };
        std::sort(idx.begin(), idx.end(),
                  [&key](std::size_t a, std::size_t b) {
                      return key(a) < key(b);
                  });
        std::vector<TraceRecord> out;
        for (std::size_t i : idx)
            out.push_back(all[i]);
        return out;
    }

    bool
    truncated(Cycles begin) const
    {
        for (std::size_t i = 0; i < firstRetained(); ++i)
            if (all[i].when >= begin)
                return true;
        return false;
    }
};

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
// Trigger capture
// ---------------------------------------------------------------------

TEST(FlightCapture, FreezesWindowAroundTriggerAndMergesSources)
{
    Rig rig;
    FlightRecorder &fr = rig.fr;
    rig.stamp(1400); // outside [1500, 2500]
    rig.stamp(1600);
    rig.stamp(2400);
    rig.stamp(2600); // outside

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
    Rig rig;
    FlightRecorder &fr = rig.fr;
    rig.stamp(1900);
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
    // Fill the ring with `writes` records stamped `at`, then capture
    // the window around `trigger`; W = 500.
    auto capture = [](Cycles at, std::size_t writes, Cycles trigger) {
        Rig rig;
        for (std::size_t i = 0; i < writes; ++i)
            rig.stamp(at);
        rig.fr.trigger(trigger, "watchdog.x.open");
        rig.fr.onSample(trigger + 600);
        EXPECT_EQ(rig.fr.incidentCount(), 1u);
        return rig.fr.incident(0);
    };
    const std::size_t over = 1024 + 64;
    // Overwritten stamps before begin (4500) cost the window nothing;
    // one at begin or later marks it.
    EXPECT_FALSE(capture(4499, over, 5000).truncated);
    EXPECT_TRUE(capture(4500, over, 5000).truncated);
    const FlightIncident live = capture(5000, over, 5000);
    EXPECT_TRUE(live.truncated);
    EXPECT_EQ(live.records.size(), 1024u);
    // A window starting at 0 is clean while nothing was overwritten.
    EXPECT_FALSE(capture(0, 1024, 100).truncated);
}

TEST(FlightCapture, WindowsMatchFullHistoryModel)
{
    // In-order, back-dated and future-dated stamps, in busy stretches
    // that wrap the ring inside a window and quiet ones that do not,
    // with a trigger every 9 ticks. Every captured incident must hold
    // exactly the model's window and agree on truncation.
    Rig rig(/*incidentCap=*/1000);
    TraceSink &sink = rig.sink;
    FlightRecorder &fr = rig.fr;
    FullHistory ref;
    ref.cap = sink.capacity();

    Random rng(2024);
    static const TapId taps[] = {internTap("test.flight.diff.a"),
                                 internTap("test.flight.diff.b")};
    Cycles now = 0;
    std::size_t captured = 0, truncated = 0;
    for (int tick = 0; tick < 400; ++tick) {
        const int pushes = (tick / 40) % 2 == 0 ? 250 : 12;
        for (int i = 0; i < pushes; ++i) {
            Cycles when;
            const double u = rng.uniform();
            if (u < 0.7) {
                when = now + rng.below(300);
            } else if (u < 0.85) {
                const Cycles back = rng.below(3000);
                when = now > back ? now - back : 0;
            } else {
                when = now + rng.below(3000);
            }
            when -= when % 10; // coarse stamps: plenty of key ties
            const TapId tap = taps[rng.below(2)];
            const auto track = static_cast<std::uint16_t>(rng.below(3));
            if (rng.chance(0.3)) {
                const std::uint64_t token =
                    sink.edgeOut(when, tap, TraceCat::Op, track);
                ref.all.push_back(TraceRecord{when, token, tap, track,
                                              TraceKind::EdgeOut,
                                              TraceCat::Op});
            } else {
                const std::uint64_t arg = rng.next();
                sink.instant(when, tap, TraceCat::Op, track, arg);
                ref.all.push_back(TraceRecord{when, arg, tap, track,
                                              TraceKind::Instant,
                                              TraceCat::Op});
            }
        }
        now += 100; // the period
        if (tick % 9 == 0)
            fr.trigger(now, "tick");
        fr.onSample(now);
        for (; captured < fr.incidentCount(); ++captured) {
            const FlightIncident &inc = fr.incident(captured);
            EXPECT_EQ(inc.truncated, ref.truncated(inc.begin))
                << "tick " << tick;
            EXPECT_TRUE(sameRecords(inc.records,
                                    ref.window(inc.begin, inc.end)))
                << "tick " << tick;
            truncated += inc.truncated ? 1 : 0;
        }
    }
    // The drive wrapped the ring and captured windows both ways.
    EXPECT_GT(sink.dropped(), 0u);
    EXPECT_GT(captured, 30u);
    EXPECT_GT(truncated, 0u);
    EXPECT_LT(truncated, captured);
}

// ---------------------------------------------------------------------
// Incident summary
// ---------------------------------------------------------------------

TEST(IncidentSummary, AllShrunkDiffNamesNoTerm)
{
    // The reference window holds a 900-cycle span, the incident window
    // a 100-cycle one: every blame-diff row is negative, so there is no
    // growth to headline.
    Rig rig;
    const TapId busy = internTap("test.flight.busy");
    rig.sink.span(0, 900, busy, TraceCat::Op, 0);
    rig.fr.onSample(1000); // seals the reference over [0, 1000]
    rig.sink.span(2600, 2700, busy, TraceCat::Op, 0);
    rig.fr.trigger(3000, "watchdog.x.open");
    rig.fr.onSample(3600);
    ASSERT_EQ(rig.fr.incidentCount(), 1u);

    const std::string s =
        renderIncidentSummary(rig.fr, Frequency(2.4));
    EXPECT_EQ(s.find("+-"), std::string::npos) << s;
    EXPECT_EQ(s.find("test.flight.busy"), std::string::npos) << s;
    EXPECT_NE(s.find(" -  watchdog.x.open"), std::string::npos) << s;
    EXPECT_EQ(s.find("truncated"), std::string::npos) << s;
    EXPECT_EQ(s.find("VIRTSIM_TRACE_CAPACITY"), std::string::npos) << s;
}

TEST(IncidentSummary, MarksTruncatedWindowsAndNamesTheRingSize)
{
    Rig rig;
    for (std::size_t i = 0; i < rig.sink.capacity() + 64; ++i)
        rig.stamp(5000);
    rig.fr.trigger(5000, "watchdog.x.open");
    rig.fr.onSample(5600);
    const std::string s =
        renderIncidentSummary(rig.fr, Frequency(2.4));
    EXPECT_NE(s.find("1024 (truncated)"), std::string::npos) << s;
    EXPECT_NE(s.find("raise VIRTSIM_TRACE_CAPACITY"), std::string::npos)
        << s;
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
    // trace ring and tracks 16 CPUs; the digests pin both exports
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
