/**
 * @file
 * Request-latency observability (sim/latency, sim/slo): histogram
 * bucket math and error bounds, exact merges, lane-partitioned
 * tracking, the zero-allocation stamp path, fleet export determinism
 * across lane counts, SLO breach detection, and the validated env
 * knobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <vector>

#include "core/fleet.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "sim/env.hh"
#include "sim/lane.hh"
#include "sim/latency.hh"
#include "sim/random.hh"
#include "sim/slo.hh"
#include "sim/stats.hh"

// ---------------------------------------------------------------------
// Binary-wide allocation counter (the test_probe.cc idiom): the
// latency stamp path must not allocate — one predicted branch when
// disabled, pre-sized bucket increments when enabled.
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
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

FleetConfig
smallFleet()
{
    FleetConfig cfg;
    cfg.nCpus = 4;
    cfg.connsPerCpu = 8;
    cfg.transactionsPerConn = 40;
    return cfg;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/**
 * Reference reads: a plain bucket array with exact count/min/max and
 * full-axis walks. It shares only the bucket scheme (bucketOf /
 * bucketLow / bucketHigh) with LatencyHistogram, so a wrong group
 * summary or a wrong all-CPU row cannot hide behind it.
 */
struct RefHist
{
    std::vector<std::uint64_t> b =
        std::vector<std::uint64_t>(LatencyHistogram::numBuckets);
    std::uint64_t count = 0;
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;

    void
    add(std::uint64_t v)
    {
        ++b[LatencyHistogram::bucketOf(v)];
        ++count;
        lo = std::min(lo, v);
        hi = std::max(hi, v);
    }

    void
    fold(const RefHist &o)
    {
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] += o.b[i];
        count += o.count;
        lo = std::min(lo, o.lo);
        hi = std::max(hi, o.hi);
    }

    std::uint64_t
    quantile(double q) const
    {
        if (count == 0)
            return 0;
        if (q <= 0.0)
            return lo;
        if (q >= 1.0)
            return hi;
        const std::uint64_t rank = std::clamp<std::uint64_t>(
            static_cast<std::uint64_t>(
                std::ceil(q * static_cast<double>(count))),
            1, count);
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            cum += b[i];
            if (cum >= rank)
                return std::clamp(LatencyHistogram::bucketHigh(i), lo,
                                  hi);
        }
        return hi;
    }

    /** Mass of every bucket whose low bound exceeds `threshold`. */
    std::uint64_t
    countAbove(std::uint64_t threshold) const
    {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < b.size(); ++i)
            if (LatencyHistogram::bucketLow(i) > threshold)
                n += b[i];
        return n;
    }
};

constexpr double kProbeQuantiles[] = {0.0, 1e-9, 0.5, 0.99, 0.999, 1.0};

/** Thresholds in the exact region, on bucket and group boundaries,
 *  around recorded values, and inside the saturating top bucket. */
std::vector<std::uint64_t>
probeThresholds(const std::vector<std::uint64_t> &values)
{
    constexpr std::size_t n = LatencyHistogram::numBuckets;
    constexpr std::size_t sub = LatencyHistogram::subBuckets;
    std::vector<std::uint64_t> t = {0,   1,   100, 127, 128,
                                    255, 256, 257, UINT64_MAX - 1,
                                    UINT64_MAX};
    for (std::size_t i : {sub - 1, sub, 2 * sub - 1, 2 * sub,
                          2 * sub + 1, 5 * sub - 1, 5 * sub, 20 * sub,
                          20 * sub + 77, n - sub - 1, n - sub, n - 2,
                          n - 1}) {
        t.push_back(LatencyHistogram::bucketLow(i));
        t.push_back(LatencyHistogram::bucketHigh(i));
    }
    for (std::size_t i = 0; i < values.size(); i += 97) {
        t.push_back(values[i]);
        t.push_back(values[i] - 1);
        t.push_back(values[i] + 1);
    }
    return t;
}

/** Uniform integer in [lo, hi]. */
std::uint64_t
pick(Random &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng.below(hi - lo + 1);
}

/** Values spanning the exact region, mid octaves and the top bucket. */
std::uint64_t
spreadValue(Random &rng)
{
    switch (pick(rng, 0, 5)) {
      case 0:
        return pick(rng, 0, 300);
      case 1:
        return static_cast<std::uint64_t>(rng.exponential(50000.0));
      case 2:
        return static_cast<std::uint64_t>(rng.exponential(3e6)) + 1;
      case 3:
        return LatencyHistogram::bucketLow(static_cast<std::size_t>(
            pick(rng, 0, LatencyHistogram::numBuckets - 1)));
      case 4:
        return UINT64_MAX - pick(rng, 0, 1000);
      default:
        return std::uint64_t{1} << pick(rng, 0, 63);
    }
}

} // namespace

// ---------------------------------------------------------------------
// Bucket math
// ---------------------------------------------------------------------

TEST(LatencyHistogramBuckets, ExactRegionIsOneBucketPerValue)
{
    for (std::uint64_t v = 0; v < LatencyHistogram::exactLimit; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketOf(v),
                  static_cast<std::size_t>(v));
        EXPECT_EQ(LatencyHistogram::bucketLow(v), v);
        EXPECT_EQ(LatencyHistogram::bucketHigh(v), v);
    }
}

TEST(LatencyHistogramBuckets, BoundsBracketEveryMagnitude)
{
    // Walk values across the full 64-bit range: each must land in a
    // bucket whose [low, high] range contains it, with relative width
    // under 2^-subBucketBits (the advertised quantile error bound).
    for (std::uint64_t v = 1; v != 0 && v < (UINT64_MAX / 3); v *= 3) {
        for (std::uint64_t d : {std::uint64_t{0}, v / 7, v / 2}) {
            const std::uint64_t s = v + d;
            const std::size_t i = LatencyHistogram::bucketOf(s);
            ASSERT_LT(i, LatencyHistogram::numBuckets);
            const std::uint64_t lo = LatencyHistogram::bucketLow(i);
            const std::uint64_t hi = LatencyHistogram::bucketHigh(i);
            ASSERT_LE(lo, s);
            ASSERT_GE(hi, s);
            // Integer compare (doubles lose integer precision up
            // here); the saturating top bucket is exempt by design.
            if (s >= LatencyHistogram::exactLimit &&
                hi != UINT64_MAX) {
                EXPECT_LT(hi - lo,
                          lo / LatencyHistogram::subBuckets);
            }
        }
    }
    // The top bucket saturates instead of overflowing.
    const std::size_t top = LatencyHistogram::bucketOf(UINT64_MAX);
    ASSERT_LT(top, LatencyHistogram::numBuckets);
    EXPECT_EQ(LatencyHistogram::bucketHigh(top), UINT64_MAX);
}

TEST(LatencyHistogramBuckets, BucketIndexIsMonotone)
{
    std::size_t prev = 0;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << 40); v *= 2) {
        for (std::uint64_t s : {v, v + v / 3}) {
            const std::size_t i = LatencyHistogram::bucketOf(s);
            EXPECT_GE(i, prev);
            prev = i;
        }
    }
}

// ---------------------------------------------------------------------
// Quantile accuracy against an exact reference
// ---------------------------------------------------------------------

TEST(LatencyHistogramQuantiles, WithinRelativeErrorOfExact)
{
    // Same stream into the exact-but-unbounded SampleStat world
    // (nearest-rank reference) and the bounded histogram; the
    // histogram's quantiles must stay within the 2^-7 relative error
    // bound at every magnitude.
    Random rng(1234);
    LatencyHistogram h;
    std::vector<std::uint64_t> all;
    for (int i = 0; i < 20000; ++i) {
        // Log-uniform-ish spread: exponential means from 1 us to 1 ms
        // at 2.4 GHz so every octave gets mass.
        const double mean = (i % 3 == 0) ? 2400.0
                            : (i % 3 == 1) ? 240000.0
                                           : 2400000.0;
        const auto v =
            static_cast<std::uint64_t>(rng.exponential(mean)) + 1;
        h.add(v);
        all.push_back(v);
    }
    std::sort(all.begin(), all.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(all.size())));
        const std::uint64_t exact = all[rank - 1];
        const std::uint64_t approx = h.quantile(q);
        const double tol =
            static_cast<double>(exact) /
                LatencyHistogram::subBuckets +
            1.0;
        EXPECT_NEAR(static_cast<double>(approx),
                    static_cast<double>(exact), tol)
            << "q=" << q;
    }
    // Extrema and moments are exact, not bucket-resolution.
    EXPECT_EQ(h.min(), all.front());
    EXPECT_EQ(h.max(), all.back());
    EXPECT_EQ(h.quantile(0.0), all.front());
    EXPECT_EQ(h.quantile(1.0), all.back());
    std::uint64_t sum = 0;
    for (std::uint64_t v : all)
        sum += v;
    EXPECT_EQ(h.sum(), sum);
    EXPECT_EQ(h.count(), all.size());
}

TEST(LatencyHistogramQuantiles, CountAboveExactInExactRegion)
{
    LatencyHistogram h;
    for (std::uint64_t v = 0; v < 200; ++v)
        h.add(v);
    // Strictly-above semantics, exact below exactLimit.
    EXPECT_EQ(h.countAbove(100), 99u);
    EXPECT_EQ(h.countAbove(0), 199u);
    EXPECT_EQ(h.countAbove(199), 0u);
    EXPECT_EQ(h.countAbove(UINT64_MAX), 0u);
}

TEST(LatencyHistogramQuantiles, GroupSummaryMatchesFullBucketWalk)
{
    Random rng(4242);
    LatencyHistogram empty;
    const RefHist emptyRef;
    for (double q : kProbeQuantiles)
        EXPECT_EQ(empty.quantile(q), emptyRef.quantile(q));
    EXPECT_EQ(empty.countAbove(0), 0u);

    // Single adds, then the same data folded by merge(): both must
    // keep the group summary in step with the buckets.
    LatencyHistogram h, folded;
    RefHist ref;
    std::vector<std::uint64_t> values;
    for (int part = 0; part < 4; ++part) {
        LatencyHistogram piece;
        for (int i = 0; i < 2500; ++i) {
            const std::uint64_t v = spreadValue(rng);
            h.add(v);
            piece.add(v);
            ref.add(v);
            values.push_back(v);
        }
        folded.merge(piece);
        for (const LatencyHistogram *x : {&h, &folded}) {
            for (double q : kProbeQuantiles)
                ASSERT_EQ(x->quantile(q), ref.quantile(q))
                    << "q=" << q << " part=" << part;
        }
    }
    for (std::uint64_t t : probeThresholds(values)) {
        ASSERT_EQ(h.countAbove(t), ref.countAbove(t)) << "t=" << t;
        ASSERT_EQ(folded.countAbove(t), ref.countAbove(t)) << "t=" << t;
    }
    for (std::size_t g = 0; g < LatencyHistogram::numGroups; ++g) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < LatencyHistogram::subBuckets; ++i)
            n += h.bucketCount(g * LatencyHistogram::subBuckets + i);
        ASSERT_EQ(h.groupCount(g), n) << "group " << g;
        ASSERT_EQ(folded.groupCount(g), n) << "group " << g;
    }

    // Dense exact-region data: every rank lands in the first groups.
    LatencyHistogram small;
    RefHist smallRef;
    for (std::uint64_t v = 0; v < 300; ++v) {
        small.add(v);
        smallRef.add(v);
    }
    for (double q : kProbeQuantiles)
        EXPECT_EQ(small.quantile(q), smallRef.quantile(q)) << q;
    for (std::uint64_t t : probeThresholds({1, 150, 299}))
        EXPECT_EQ(small.countAbove(t), smallRef.countAbove(t)) << t;

    h.reset();
    for (std::size_t g = 0; g < LatencyHistogram::numGroups; ++g)
        ASSERT_EQ(h.groupCount(g), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
}

// ---------------------------------------------------------------------
// Merge exactness
// ---------------------------------------------------------------------

TEST(LatencyHistogramMerge, ShardedMergeEqualsSerial)
{
    Random rng(99);
    LatencyHistogram serial;
    LatencyHistogram shards[4];
    for (int i = 0; i < 10000; ++i) {
        const auto v =
            static_cast<std::uint64_t>(rng.exponential(50000.0));
        serial.add(v);
        shards[i % 4].add(v);
    }
    LatencyHistogram folded;
    // Fold in non-sequential order: merge is commutative.
    folded.merge(shards[2]);
    folded.merge(shards[0]);
    folded.merge(shards[3]);
    folded.merge(shards[1]);
    EXPECT_EQ(folded.count(), serial.count());
    EXPECT_EQ(folded.sum(), serial.sum());
    EXPECT_EQ(folded.min(), serial.min());
    EXPECT_EQ(folded.max(), serial.max());
    for (std::size_t i = 0; i < LatencyHistogram::numBuckets; ++i)
        ASSERT_EQ(folded.bucketCount(i), serial.bucketCount(i))
            << "bucket " << i;
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(folded.quantile(q), serial.quantile(q));
}

// ---------------------------------------------------------------------
// RequestTracker
// ---------------------------------------------------------------------

TEST(RequestTracker, RecordsPerCpuPerPhaseAndAggregates)
{
    RequestTracker t;
    t.configure(2);
    t.prepareForParallel(3);
    t.enable();
    // Setup-thread records clamp into segment 0; the read side folds
    // all segments, so the numbers must come out regardless.
    t.record(0, LatencyPhase::Rtt, 100);
    t.record(0, LatencyPhase::Rtt, 300);
    t.record(1, LatencyPhase::Rtt, 200);
    t.record(1, LatencyPhase::Service, 40);

    EXPECT_EQ(t.merged(0, LatencyPhase::Rtt).count(), 2u);
    EXPECT_EQ(t.merged(1, LatencyPhase::Rtt).count(), 1u);
    const LatencyHistogram agg = t.aggregate(LatencyPhase::Rtt);
    EXPECT_EQ(agg.count(), 3u);
    EXPECT_EQ(agg.sum(), 600u);
    EXPECT_EQ(t.totalCount(LatencyPhase::Rtt), 3u);
    EXPECT_EQ(t.totalCount(LatencyPhase::Rtt, 1), 1u);
    EXPECT_EQ(t.totalAbove(LatencyPhase::Rtt, 150), 2u);
    // Streaming quantile == materialized aggregate quantile.
    for (double q : {0.5, 0.99})
        EXPECT_EQ(t.quantileAcross(LatencyPhase::Rtt, q),
                  agg.quantile(q));

    // Random data spread over every lane segment, checked against
    // plain bucket walks the test keeps itself. CPU 3 stays empty.
    RequestTracker r;
    r.configure(4);
    r.prepareForParallel(3);
    r.enable();
    constexpr int kCpus = 4;
    std::vector<RefHist> ref(kCpus * numLatencyPhases);
    std::vector<std::uint64_t> values;
    Random rng(77);
    for (int i = 0; i < 6000; ++i) {
        const int lane = static_cast<int>(pick(rng, 0, 2));
        const int cpu = static_cast<int>(pick(rng, 0, 2));
        const auto phase = static_cast<LatencyPhase>(
            pick(rng, 0, numLatencyPhases - 1));
        const std::uint64_t v = spreadValue(rng);
        LaneScope scope(lane);
        r.record(cpu, phase, v);
        ref[cpu * numLatencyPhases + static_cast<std::size_t>(phase)]
            .add(v);
        values.push_back(v);
    }
    const std::vector<std::uint64_t> thresholds =
        probeThresholds(values);
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        const auto phase = static_cast<LatencyPhase>(p);
        RefHist all;
        for (int c = 0; c < kCpus; ++c)
            all.fold(ref[c * numLatencyPhases + p]);
        for (int cpu = -1; cpu < kCpus; ++cpu) {
            const RefHist &want =
                cpu < 0 ? all : ref[cpu * numLatencyPhases + p];
            EXPECT_EQ(r.totalCount(phase, cpu), want.count);
            for (double q : kProbeQuantiles)
                ASSERT_EQ(r.quantileAcross(phase, q, cpu),
                          want.quantile(q))
                    << "phase=" << p << " cpu=" << cpu << " q=" << q;
            for (std::uint64_t th : thresholds)
                ASSERT_EQ(r.totalAbove(phase, th, cpu),
                          want.countAbove(th))
                    << "phase=" << p << " cpu=" << cpu << " t=" << th;
        }
        const LatencyHistogram merged = r.aggregate(phase);
        for (std::size_t i = 0; i < LatencyHistogram::numBuckets; ++i)
            ASSERT_EQ(merged.bucketCount(i), all.b[i]) << "bucket " << i;
    }

    // reset() zeroes data but keeps configuration and arming.
    t.reset();
    EXPECT_TRUE(t.enabled());
    EXPECT_EQ(t.cpus(), 2);
    EXPECT_EQ(t.totalCount(LatencyPhase::Rtt), 0u);

    // clear() drops everything.
    t.clear();
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.cpus(), 0);
}

TEST(RequestTrackerDeath, OutOfRangeCpuReadsDie)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    RequestTracker t;
    t.configure(2);
    t.enable();
    t.record(1, LatencyPhase::Rtt, 100);
    // -1 (all CPUs) through cpus() - 1 are valid; anything else used
    // to read as 0 and must now fail loudly.
    EXPECT_EQ(t.totalCount(LatencyPhase::Rtt, -1), 1u);
    EXPECT_EQ(t.totalCount(LatencyPhase::Rtt, 1), 1u);
    EXPECT_DEATH((void)t.totalCount(LatencyPhase::Rtt, 2),
                 "out of range");
    EXPECT_DEATH((void)t.totalSum(LatencyPhase::Rtt, -2),
                 "out of range");
    EXPECT_DEATH((void)t.totalAbove(LatencyPhase::Rtt, 10, 5),
                 "out of range");
    EXPECT_DEATH((void)t.quantileAcross(LatencyPhase::Rtt, 0.5, 2),
                 "out of range");
    EXPECT_DEATH((void)t.merged(2, LatencyPhase::Rtt), "out of range");
}

TEST(RequestTrackerFastPath, DisabledStampAllocatesNothing)
{
    RequestTracker t;
    t.configure(4);
    ASSERT_FALSE(t.enabled());
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i)
        t.record(i & 3, LatencyPhase::Rtt,
                 static_cast<Cycles>(i) * 97);
    EXPECT_EQ(g_news.load(), before);
}

TEST(RequestTrackerFastPath, EnabledStampAllocatesNothing)
{
    // configure() pays the storage up front; stamping afterwards is
    // pre-sized bucket increments only.
    RequestTracker t;
    t.configure(4);
    t.prepareForParallel(2);
    t.enable();
    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i)
        t.record(i & 3,
                 static_cast<LatencyPhase>(i % numLatencyPhases),
                 static_cast<Cycles>(i) * 1337);
    EXPECT_EQ(g_news.load(), before);
}

// ---------------------------------------------------------------------
// SLO engine
// ---------------------------------------------------------------------

TEST(SloEngine, JudgesQuantileAndFraction)
{
    RequestTracker t;
    t.configure(1);
    t.enable();
    // 99 fast requests, 1 slow one: p99 lands on the fast mass.
    for (int i = 0; i < 99; ++i)
        t.record(0, LatencyPhase::Rtt, 100);
    t.record(0, LatencyPhase::Rtt, 10000);

    SloEngine eng;
    SloSpec spec;
    spec.name = "rtt_p99";
    spec.quantile = 0.99;
    spec.thresholdCycles = 150;
    spec.maxViolationFraction = 0.02; // 1/100 tolerated
    eng.addSpec(spec);
    eng.bind(&t);

    auto verdicts = eng.judge();
    ASSERT_EQ(verdicts.size(), 1u);
    EXPECT_EQ(verdicts[0].requests, 100u);
    EXPECT_EQ(verdicts[0].violations, 1u);
    EXPECT_TRUE(verdicts[0].pass());
    EXPECT_EQ(eng.breaches(), 0u);

    // Shrink the tolerated fraction: same data now breaches.
    SloEngine strict;
    spec.name = "rtt_strict";
    spec.maxViolationFraction = 0.0;
    strict.addSpec(spec);
    strict.bind(&t);
    EXPECT_EQ(strict.breaches(), 1u);
    const auto v = strict.judge();
    EXPECT_FALSE(v[0].fractionOk());
    EXPECT_TRUE(v[0].quantileOk());
}

TEST(SloEngine, VerdictsJsonWellFormed)
{
    RequestTracker t;
    t.configure(1);
    t.enable();
    t.record(0, LatencyPhase::Rtt, 500);
    SloEngine eng;
    SloSpec spec;
    spec.thresholdCycles = 100;
    eng.addSpec(spec);
    eng.bind(&t);
    const std::string json = eng.verdictsJson(Frequency(2.4));
    EXPECT_NE(json.find("\"name\":\"rtt_p99\""), std::string::npos);
    EXPECT_NE(json.find("\"pass\":false"), std::string::npos);
    EXPECT_NE(json.find("\"requests\":1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Fleet integration: export determinism and SLO breaches
// ---------------------------------------------------------------------

TEST(FleetLatencyExport, ByteIdenticalAcrossLaneCounts)
{
    const std::string base =
        ::testing::TempDir() + "test_latency_fleet.json";
    // The fleet inserts ".fleet" before the extension.
    const std::string path =
        ::testing::TempDir() + "test_latency_fleet.fleet.json";
    ScopedEnv e("VIRTSIM_LATENCY", base.c_str());
    const FleetConfig cfg = smallFleet();

    FleetResult serial = runNetperfRrFleet(cfg, 1);
    const std::string ref = slurp(path);
    ASSERT_FALSE(ref.empty());
    EXPECT_NE(ref.find("virtsim-latency-1"), std::string::npos);
    EXPECT_NE(ref.find("\"name\":\"rtt_p99\""), std::string::npos);
    // The nominal fleet meets the default objective.
    EXPECT_NE(ref.find("\"pass\":true"), std::string::npos);
    EXPECT_EQ(serial.sloBreaches, 0u);
    EXPECT_EQ(serial.anomalies, 0u);

    for (int lanes : {2, 8}) {
        std::remove(path.c_str());
        const FleetResult r = runNetperfRrFleet(cfg, lanes);
        EXPECT_TRUE(serial.sameModelledResult(r))
            << "lanes=" << lanes;
        EXPECT_EQ(slurp(path), ref) << "lanes=" << lanes;
    }
    std::remove(path.c_str());
}

TEST(FleetSlo, OverloadTripsBreachAndAnomaly)
{
    // Open-loop arrivals far beyond per-CPU service capacity: queues
    // grow without bound, the RTT tail explodes past the objective,
    // burn windows violate, and the watchdog rule turns the burn
    // gauge into a named anomaly.
    FleetConfig cfg = smallFleet();
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

    const FleetResult r = runNetperfRrFleet(cfg, 2);
    EXPECT_GE(r.sloBreaches, 1u);
    EXPECT_GE(r.anomalies, 1u);

    // Determinism holds under overload too (breach counts included:
    // sameModelledResult compares them).
    const FleetResult r2 = runNetperfRrFleet(cfg, 1);
    EXPECT_TRUE(r.sameModelledResult(r2));
}

// ---------------------------------------------------------------------
// Testbed integration
// ---------------------------------------------------------------------

TEST(TestbedLatency, NetperfMeetsDefaultObjective)
{
    TestbedConfig tc;
    tc.kind = SutKind::KvmArm;
    Testbed tb(tc);
    tb.enableLatency();
    runNetperfRr(tb);
    EXPECT_GT(
        tb.latency().totalCount(LatencyPhase::Rtt), 0u);
    EXPECT_GT(
        tb.latency().totalCount(LatencyPhase::WireFlight), 0u);
    // Paper-config round trips sit far below the 500 us default.
    EXPECT_EQ(tb.sloBreaches(), 0u);
    // RTT decomposition: wire + queue + service legs never exceed
    // the measured round trip.
    const Frequency f = tb.freq();
    const double rtt =
        tb.latency().aggregate(LatencyPhase::Rtt).mean();
    const double parts =
        tb.latency().aggregate(LatencyPhase::ServerQueue).mean() +
        tb.latency().aggregate(LatencyPhase::Service).mean();
    EXPECT_LT(parts, rtt);
    (void)f;
}

// ---------------------------------------------------------------------
// Env knob validation and the SampleStat ceiling
// ---------------------------------------------------------------------

TEST(LatencyEnvDeath, RejectsGarbageAndOutOfRange)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    {
        ScopedEnv e("VIRTSIM_SLO_P99_US", "banana");
        EXPECT_DEATH((void)envPositiveReal("VIRTSIM_SLO_P99_US"),
                     "must be a positive number");
    }
    {
        ScopedEnv e("VIRTSIM_SLO_P99_US", "-3.5");
        EXPECT_DEATH((void)envPositiveReal("VIRTSIM_SLO_P99_US"),
                     "must be a positive number");
    }
    {
        ScopedEnv e("VIRTSIM_SLO_P99_US", "0");
        EXPECT_DEATH((void)envPositiveReal("VIRTSIM_SLO_P99_US"),
                     "must be positive");
    }
    {
        ScopedEnv e("VIRTSIM_SLO_MAX_VIOLATION", "2.0");
        EXPECT_DEATH(
            (void)envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION"),
            "must be a fraction");
    }
    {
        ScopedEnv e("VIRTSIM_SLO_MAX_VIOLATION", "0.5x");
        EXPECT_DEATH(
            (void)envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION"),
            "must be a fraction");
    }
}

TEST(LatencyEnv, ParsesCleanValues)
{
    {
        ScopedEnv e("VIRTSIM_SLO_P99_US", nullptr);
        EXPECT_FALSE(envPositiveReal("VIRTSIM_SLO_P99_US"));
    }
    {
        ScopedEnv e("VIRTSIM_SLO_P99_US", "123.5");
        const auto v = envPositiveReal("VIRTSIM_SLO_P99_US");
        ASSERT_TRUE(v);
        EXPECT_DOUBLE_EQ(*v, 123.5);
    }
    {
        ScopedEnv e("VIRTSIM_SLO_MAX_VIOLATION", "0");
        const auto v = envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION");
        ASSERT_TRUE(v);
        EXPECT_DOUBLE_EQ(*v, 0.0);
    }
}

TEST(FleetEnvDeath, RejectsGarbageBurstFactor)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    ScopedEnv e("VIRTSIM_FLEET_BURST_FACTOR", "fast");
    FleetConfig cfg = smallFleet();
    EXPECT_DEATH((void)runNetperfRrFleet(cfg, 1),
                 "must be a positive number");
}

TEST(SampleStatDeath, UnboundedFeedHitsTheCeiling)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            SampleStat s;
            for (std::size_t i = 0; i <= SampleStat::maxSamples;
                 ++i)
                s.add(1.0);
        },
        "bounded-memory LatencyHistogram");
}
