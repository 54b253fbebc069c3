/**
 * @file
 * Tests for the observability harness (core/observe): export-path
 * tagging and the tag every export of one world shares.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "core/observe.hh"
#include "core/testbed.hh"
#include "hw/machine.hh"

using namespace virtsim;

namespace {

/** Scoped environment override; restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *prev = std::getenv(name);
        had = prev != nullptr;
        if (had)
            saved = prev;
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

TEST(TaggedPath, CoversEveryPathShape)
{
    struct Case
    {
        std::string path;
        std::string label;
        std::string want;
    };
    const Case cases[] = {
        {"out.json", "fleet", "out.fleet.json"},
        {"out", "fleet", "out.fleet"},
        {"a.d/out", "fleet", "a.d/out.fleet"},
        {"t.csv", "KVM ARM", "t.kvm_arm.csv"},
        {"dir/rr.json", "Native x86", "dir/rr.native_x86.json"},
        {"out.json", to_string(SutKind::KvmArmVhe),
         "out.kvm_arm__vhe_.json"},
    };
    for (const Case &c : cases)
        EXPECT_EQ(taggedPath(c.path, fileTag(c.label)), c.want)
            << c.path << " + " << c.label;
}

TEST(TaggedPath, IncidentAndFileTagsComeFromOneSanitiser)
{
    // One world, labelled like the VHE testbed: an SLO it cannot meet
    // trips the flight recorder, and the incident report and the
    // latency export must carry the same tag.
    const std::string dir = ::testing::TempDir() + "observe_tags";
    const std::string lat = dir + "/lat.json";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    ScopedEnv inc("VIRTSIM_INCIDENTS", dir.c_str());
    ScopedEnv latency("VIRTSIM_LATENCY", lat.c_str());

    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    ObserveConfig oc;
    oc.label = to_string(SutKind::KvmArmVhe);
    SloSpec tight;
    tight.name = "rtt_p99";
    tight.thresholdCycles = 1;
    tight.maxViolationFraction = 0.0;
    tight.burnWindow = m.freq().cycles(50.0);
    oc.slos.push_back(tight);
    Observability obs(m, std::move(oc));

    for (int i = 0; i < 8; ++i) {
        eq.scheduleAt(m.freq().cycles(20.0 * (i + 1)), [&m] {
            m.probe().latency.record(0, LatencyPhase::Rtt, 1000);
        });
    }
    obs.drain();
    EXPECT_GE(obs.sloBreaches(), 1u);
    obs.finish(eq.now());

    const std::string tag = fileTag(to_string(SutKind::KvmArmVhe));
    EXPECT_EQ(tag, "kvm_arm__vhe_");
    EXPECT_TRUE(std::filesystem::exists(dir + "/lat." + tag + ".json"));
    EXPECT_TRUE(
        std::filesystem::exists(dir + "/incident." + tag + ".000.json"));
    std::filesystem::remove_all(dir);
}
