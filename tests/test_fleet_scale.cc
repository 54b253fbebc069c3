/**
 * @file
 * Fleet-scale tests: the VM-count axis (VIRTSIM_FLEET_VMS) and its
 * validation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/fleet.hh"

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

} // namespace

TEST(FleetVmsEnv, OverridesVmCount)
{
    FleetConfig cfg;
    cfg.connsPerCpu = 2;
    cfg.transactionsPerConn = 5;
    ScopedEnv e("VIRTSIM_FLEET_VMS", "16");
    const FleetResult r = runNetperfRrFleet(cfg);
    EXPECT_EQ(r.transactions, 16u * 2u * 5u);
}

TEST(FleetVmsEnvDeath, RejectsGarbageZeroAndOverflow)
{
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    FleetConfig cfg;
    cfg.connsPerCpu = 1;
    cfg.transactionsPerConn = 1;
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "lots");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg),
                     "positive integer");
    }
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "0");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg),
                     "must be positive");
    }
    {
        // One past the documented ceiling: a fat-fingered VM count
        // must be a loud failure, not a melted host.
        ScopedEnv e("VIRTSIM_FLEET_VMS", "257");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg),
                     "out of range \\(max 256\\)");
    }
    {
        ScopedEnv e("VIRTSIM_FLEET_VMS", "99999999999999999999");
        EXPECT_DEATH((void)runNetperfRrFleet(cfg),
                     "out of range");
    }
}
