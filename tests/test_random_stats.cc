/**
 * @file
 * Unit and property tests for the PRNG, the statistics accumulators
 * and the machine's counter domain.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "hw/machine.hh"
#include "sim/random.hh"
#include "sim/stats.hh"

using namespace virtsim;

TEST(Random, DeterministicPerSeed)
{
    Random a(123), b(123), c(124);
    bool any_differ = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            any_differ = true;
    }
    EXPECT_TRUE(any_differ);
}

TEST(Random, UniformInUnitInterval)
{
    Random r(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformRangeRespectsBounds)
{
    Random r(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = r.uniform(5.0, 9.0);
        EXPECT_GE(u, 5.0);
        EXPECT_LT(u, 9.0);
    }
}

TEST(Random, BelowRespectsBound)
{
    Random r(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
}

TEST(Random, ExponentialMeanRoughlyCorrect)
{
    Random r(11);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.5);
}

TEST(Random, NormalNeverNegative)
{
    Random r(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(r.normal(1.0, 5.0), 0.0);
}

TEST(Random, ChanceExtremes)
{
    Random r(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.chance(0.0));
        EXPECT_TRUE(r.chance(1.0));
    }
}

TEST(CycleSummary, ExactMomentsAndReset)
{
    CycleSummary s;
    EXPECT_TRUE(s.empty());
    s.add(42);
    EXPECT_EQ(s.min(), 42u);
    EXPECT_EQ(s.max(), 42u);
    EXPECT_DOUBLE_EQ(s.mean(), 42.0);
    for (std::uint64_t v : {3u, 0u, 1000u, 1u, 2u})
        s.add(v);
    EXPECT_EQ(s.count(), 6u);
    EXPECT_EQ(s.sum(), 1048u);
    EXPECT_EQ(s.min(), 0u);
    EXPECT_EQ(s.max(), 1000u);
    EXPECT_DOUBLE_EQ(s.mean(), 1048.0 / 6.0);
    // reset() empties the summary and starts a fresh envelope.
    s.reset();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0u);
    s.add(5);
    EXPECT_EQ(s.min(), 5u);
    EXPECT_EQ(s.max(), 5u);
}

TEST(CycleSummaryDeath, EmptyMeanPanics)
{
    CycleSummary s;
    EXPECT_DEATH((void)s.mean(), "mean of empty");
}

TEST(Counter, IncrementAndReset)
{
    Counter c;
    c.inc();
    c.inc(5);
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

namespace {

/** The machine's counter domain as (tap name, value) rows. */
std::map<std::string, std::uint64_t>
counterRows(const Machine &m)
{
    std::map<std::string, std::uint64_t> rows;
    m.counters().forEachCounter([&rows](TapId tap, std::uint64_t v) {
        rows[tapName(tap)] = v;
    });
    return rows;
}

} // namespace

TEST(MachineCounters, CreatesOnFirstUse)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    const TapId a = internTap("test.machine_counters.a");
    EXPECT_EQ(counterRows(m).count("test.machine_counters.a"), 0u);
    m.counters().counter(a).inc(3);
    EXPECT_EQ(m.counters().value(a), 3u);
    EXPECT_EQ(counterRows(m).at("test.machine_counters.a"), 3u);
    // Private to the machine: the metrics export never lists it.
    EXPECT_EQ(m.metrics().snapshot().render().find(
                  "test.machine_counters.a"),
              std::string::npos);
}

TEST(MachineCounters, UntouchedTapReadsZero)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    m.counters().counter(internTap("test.machine_counters.exits")).inc(7);
    const TapId untouched = internTap("test.machine_counters.untouched");
    EXPECT_EQ(m.counters().value(untouched), 0u);
    // Reading registers nothing; every touched tap is listed.
    const auto rows = counterRows(m);
    EXPECT_EQ(rows.count("test.machine_counters.untouched"), 0u);
    EXPECT_EQ(rows.at("test.machine_counters.exits"), 7u);
}
