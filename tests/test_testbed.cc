/**
 * @file
 * Tests for the testbed layer: configuration wiring, the uniform
 * workload surface, and the native baseline paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"

using namespace virtsim;

TEST(Testbed, KindProperties)
{
    EXPECT_FALSE(isVirtualized(SutKind::Native));
    EXPECT_FALSE(isVirtualized(SutKind::NativeX86));
    EXPECT_TRUE(isVirtualized(SutKind::KvmArm));
    EXPECT_EQ(archOf(SutKind::XenArm), Arch::Arm);
    EXPECT_EQ(archOf(SutKind::XenX86), Arch::X86);
    EXPECT_EQ(archOf(SutKind::NativeX86), Arch::X86);
    EXPECT_EQ(to_string(SutKind::KvmArmVhe), "KVM ARM (VHE)");
}

TEST(Testbed, VirtualizedConfigsHaveGuestAndHypervisor)
{
    for (SutKind k : {SutKind::KvmArm, SutKind::XenArm, SutKind::KvmX86,
                      SutKind::XenX86, SutKind::KvmArmVhe}) {
        Testbed tb(TestbedConfig{.kind = k});
        ASSERT_NE(tb.hypervisor(), nullptr) << to_string(k);
        ASSERT_NE(tb.guest(), nullptr) << to_string(k);
        EXPECT_EQ(tb.guest()->numVcpus(), 4) << to_string(k);
        // One VCPU per dedicated PCPU (Section III).
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ(tb.guest()->vcpu(i).pcpu(), i);
    }
}

TEST(Testbed, NativeHasNoHypervisor)
{
    Testbed tb(TestbedConfig{.kind = SutKind::Native});
    EXPECT_EQ(tb.hypervisor(), nullptr);
    EXPECT_EQ(tb.guest(), nullptr);
    EXPECT_FALSE(tb.virtualized());
}

TEST(Testbed, ChargeAccountsOnTheRightCpu)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    const Cycles end = tb.charge(0, 2, 1000);
    EXPECT_EQ(end, 1000u);
    EXPECT_EQ(tb.machine().cpu(2).busyCycles(), 1000u);
    EXPECT_EQ(tb.frontier(2), 1000u);
    EXPECT_EQ(tb.machine().cpu(0).busyCycles(), 0u);
}

TEST(Testbed, NativeSendReachesClientThroughWire)
{
    Testbed tb(TestbedConfig{.kind = SutKind::Native});
    Packet p;
    p.flow = 1;
    p.bytes = 1500;
    Cycles datalink_tx = 0, client_rx = 0;
    tb.onClientRx = [&](Cycles t, const Packet &) { client_rx = t; };
    tb.send(0, 0, p, [&](Cycles t) { datalink_tx = t; });
    tb.run();
    EXPECT_GT(datalink_tx, 0u);
    EXPECT_GT(client_rx, datalink_tx + tb.wireLatency());
}

TEST(Testbed, NativeClientSendReachesServerTaps)
{
    Testbed tb(TestbedConfig{.kind = SutKind::Native});
    Packet p;
    p.flow = 1;
    p.bytes = 1500;
    Cycles host_rx = 0, vm_rx = 0;
    tb.onHostRx = [&](Cycles t, const Packet &) { host_rx = t; };
    tb.onVmRx = [&](Cycles t, const Packet &) { vm_rx = t; };
    tb.clientSend(0, p);
    tb.run();
    EXPECT_GT(host_rx, tb.wireLatency());
    EXPECT_EQ(vm_rx, host_rx); // same tap natively
}

TEST(Testbed, NativeIpiDeliversToReceiver)
{
    Testbed tb(TestbedConfig{.kind = SutKind::Native});
    Cycles handled = 0;
    tb.sendIpi(0, 0, 3, [&](Cycles t) { handled = t; });
    tb.run();
    EXPECT_GT(handled, tb.machine().costs().ipiFlight);
    // Far cheaper than any virtualized IPI (Table II vs native).
    EXPECT_LT(handled, 3000u);
}

TEST(Testbed, VirtualIpiCostsMoreThanNative)
{
    Testbed nat(TestbedConfig{.kind = SutKind::Native});
    Cycles nat_at = 0;
    nat.sendIpi(0, 0, 1, [&](Cycles t) { nat_at = t; });
    nat.run();

    Testbed kvm(TestbedConfig{.kind = SutKind::KvmArm});
    Cycles kvm_at = 0;
    kvm.sendIpi(0, 0, 1, [&](Cycles t) { kvm_at = t; });
    kvm.run();
    EXPECT_GT(kvm_at, 5 * nat_at);
}

TEST(Testbed, TsoRegressionOnlyAffectsXen)
{
    const std::uint32_t full = 64 * 1024;
    for (SutKind k : {SutKind::Native, SutKind::KvmArm,
                      SutKind::KvmArmVhe}) {
        Testbed tb(TestbedConfig{.kind = k});
        EXPECT_EQ(tb.tsoBytes(), full) << to_string(k);
    }
    Testbed xen(TestbedConfig{.kind = SutKind::XenArm});
    EXPECT_LT(xen.tsoBytes(), full);

    TestbedConfig fixed;
    fixed.kind = SutKind::XenArm;
    fixed.tsoRegression = false;
    Testbed xen_fixed(fixed);
    EXPECT_EQ(xen_fixed.tsoBytes(), full);
}

TEST(Testbed, SetIdleBlocksAndWakes)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    tb.setIdle(0, true);
    EXPECT_EQ(tb.guest()->vcpu(0).state(), VcpuState::Idle);
    tb.setIdle(0, false);
    EXPECT_EQ(tb.guest()->vcpu(0).state(), VcpuState::Running);
}

TEST(Testbed, DeterministicAcrossIdenticalRuns)
{
    auto run_once = [] {
        Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
        Cycles at = 0;
        tb.hypervisor()->virtualIpi(0, tb.guest()->vcpu(0),
                                    tb.guest()->vcpu(1),
                                    [&](Cycles t) { at = t; });
        tb.run();
        return at;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Testbed, CompleteVirqMatchesArchitecture)
{
    Testbed arm(TestbedConfig{.kind = SutKind::KvmArm});
    arm.machine().gic().injectVirq(0, 0, spiNicIrq);
    arm.machine().gic().guestAckVirq(0);
    Cycles arm_at = 0;
    arm.completeVirq(0, 0, [&](Cycles t) { arm_at = t; });
    arm.run();

    Testbed x86(TestbedConfig{.kind = SutKind::KvmX86});
    Cycles x86_at = 0;
    x86.completeVirq(0, 0, [&](Cycles t) { x86_at = t; });
    x86.run();

    EXPECT_EQ(arm_at, 71u);
    EXPECT_GT(x86_at, 10 * arm_at); // the Table II contrast
}

// ---------------------------------------------------------------------
// Testbed reset and the per-worker cache (core/testbed acquireTestbed).
// Reset must be *fresh-equivalent*: a recycled world runs any workload
// to byte-identical results, which is what keeps sweep output
// independent of VIRTSIM_JOBS and VIRTSIM_POOL_CACHE.
// ---------------------------------------------------------------------

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
            ::setenv(name.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }

  private:
    std::string name;
    std::string saved;
    bool had = false;
};

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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
}

} // namespace

TEST(TestbedReset, VirtualizedResetMatchesFreshConstruction)
{
    const TestbedConfig tc{.kind = SutKind::KvmArm, .seed = 1234};

    // Dirty a testbed thoroughly (the full suite creates a second VM,
    // switches worlds, exercises the backend), then reset it.
    Testbed recycled(tc);
    {
        MicrobenchSuite dirty(recycled);
        (void)dirty.runAll(5);
    }
    recycled.reset();

    Testbed fresh(tc);
    MicrobenchSuite a(recycled);
    MicrobenchSuite b(fresh);
    const auto ra = a.runAll(10);
    const auto rb = b.runAll(10);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
        SCOPED_TRACE(to_string(ra[i].op));
        EXPECT_EQ(ra[i].cycles.count(), rb[i].cycles.count());
        EXPECT_EQ(ra[i].cycles.mean(), rb[i].cycles.mean());
        EXPECT_EQ(ra[i].cycles.min(), rb[i].cycles.min());
        EXPECT_EQ(ra[i].cycles.max(), rb[i].cycles.max());
    }
    EXPECT_EQ(recycled.queue().now(), fresh.queue().now());
    EXPECT_EQ(recycled.metrics().snapshot().toJson(),
              fresh.metrics().snapshot().toJson());
}

TEST(TestbedReset, NativeResetMatchesFreshConstruction)
{
    const TestbedConfig tc{.kind = SutKind::Native, .seed = 99};

    Testbed recycled(tc);
    (void)runNetperfRr(recycled); // dirty pass
    recycled.reset();

    Testbed fresh(tc);
    const NetperfRrResult r1 = runNetperfRr(recycled);
    const NetperfRrResult r2 = runNetperfRr(fresh);
    EXPECT_EQ(r1.transPerSec, r2.transPerSec);
    EXPECT_EQ(r1.timePerTransUs, r2.timePerTransUs);
    EXPECT_EQ(recycled.queue().now(), fresh.queue().now());
    EXPECT_EQ(recycled.metrics().snapshot().toJson(),
              fresh.metrics().snapshot().toJson());
}

TEST(TestbedCache, ReusesIdleEntryOfEqualConfig)
{
    ASSERT_TRUE(testbedCacheEnabled());
    const TestbedConfig tc{.kind = SutKind::KvmArm, .seed = 777};
    const TestbedCacheStats before = testbedCacheStats();
    Testbed *first = nullptr;
    {
        TestbedLease l = acquireTestbed(tc);
        first = l.get();
        ASSERT_NE(first, nullptr);
    }
    {
        TestbedLease l = acquireTestbed(tc);
        EXPECT_EQ(l.get(), first); // same world, reset and reissued
    }
    const TestbedCacheStats after = testbedCacheStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
}

TEST(TestbedCache, RecycledCountersMatchColdBuild)
{
    // The hw/hv counters of a world reissued by the cache must read
    // exactly like a cold-built world's after the same workload: same
    // taps registered, same values.
    ASSERT_TRUE(testbedCacheEnabled());
    for (const SutKind kind : {SutKind::KvmArm, SutKind::XenArm}) {
        SCOPED_TRACE(to_string(kind));
        const TestbedConfig tc{.kind = kind, .seed = 4242};
        Testbed *first = nullptr;
        {
            TestbedLease l = acquireTestbed(tc);
            first = l.get();
            // Dirty pass with a different workload, so counters the
            // measured run never touches are registered too.
            MicrobenchSuite dirty(*l);
            (void)dirty.runAll(2);
        }
        std::map<std::string, std::uint64_t> recycled;
        {
            TestbedLease l = acquireTestbed(tc);
            ASSERT_EQ(l.get(), first); // reset and reissued
            (void)runNetperfRr(*l);
            recycled = counterRows(l->machine());
        }
        Testbed cold(tc);
        (void)runNetperfRr(cold);
        const auto fresh = counterRows(cold.machine());
        EXPECT_EQ(recycled, fresh);
        EXPECT_GT(fresh.at("nic.rx_packets"), 0u);
        EXPECT_GT(fresh.at(kind == SutKind::KvmArm ? "kvm.vm_exits"
                                                   : "xen.traps"),
                  0u);
    }
}

TEST(TestbedCache, ConcurrentLeasesGetDistinctWorlds)
{
    // A leased entry must never be handed out again before release —
    // aliasing two users onto one EventQueue would corrupt both.
    const TestbedConfig tc{.kind = SutKind::XenArm, .seed = 778};
    TestbedLease a = acquireTestbed(tc);
    TestbedLease b = acquireTestbed(tc);
    EXPECT_NE(a.get(), b.get());
}

TEST(TestbedCache, DistinctConfigsGetDistinctWorlds)
{
    TestbedConfig a{.kind = SutKind::XenArm, .seed = 779};
    TestbedConfig b = a;
    b.zeroCopyGrants = true;
    TestbedLease la = acquireTestbed(a);
    TestbedLease lb = acquireTestbed(b);
    EXPECT_NE(la.get(), lb.get());
}

TEST(TestbedCache, EnvKnobsDisableCaching)
{
    {
        ScopedEnv e("VIRTSIM_POOL_CACHE", "0");
        EXPECT_FALSE(testbedCacheEnabled());
    }
    // Observability no longer bypasses the cache: exports flush at
    // lease release and reset() restores every sink, so cached runs
    // export byte-identically to cold builds (see
    // ObservabilityExportsMatchColdBuilds below).
    {
        ScopedEnv e("VIRTSIM_TRACE", "/tmp/trace.json");
        EXPECT_TRUE(testbedCacheEnabled());
    }
    {
        ScopedEnv e("VIRTSIM_METRICS", "/tmp/metrics.json");
        EXPECT_TRUE(testbedCacheEnabled());
    }
    {
        ScopedEnv e("VIRTSIM_FLAME", "/tmp/flame.folded");
        EXPECT_TRUE(testbedCacheEnabled());
    }
    EXPECT_TRUE(testbedCacheEnabled());
}

TEST(TestbedCache, ObservabilityExportsMatchColdBuilds)
{
    // The cache no longer auto-bypasses when a sink is armed; the
    // lease flushes exports on release and reset() re-arms them, so a
    // cached world must produce the same export bytes as a cold one.
    ScopedEnv m("VIRTSIM_METRICS", "/tmp/tb_obs_metrics.json");
    ScopedEnv t("VIRTSIM_TIMELINE", "/tmp/tb_obs_timeline.json");

    // Unique seed: an earlier test's cached world for this config
    // would have been built without the sinks armed.
    const TestbedConfig tc{.kind = SutKind::KvmArm, .seed = 79001};
    NetperfRrConfig nc;
    nc.transactions = 25;

    struct Exports
    {
        std::string metrics, timeline;
        bool operator==(const Exports &o) const
        {
            return metrics == o.metrics && timeline == o.timeline;
        }
    };
    auto runOnce = [&] {
        {
            TestbedLease l = acquireTestbed(tc);
            (void)runNetperfRr(*l.get(), nc);
        } // lease release flushes the exports
        return Exports{slurp("/tmp/tb_obs_metrics.kvm_arm.json"),
                       slurp("/tmp/tb_obs_timeline.kvm_arm.json")};
    };

    Exports cold;
    {
        ScopedEnv off("VIRTSIM_POOL_CACHE", "0");
        cold = runOnce();
    }
    ASSERT_FALSE(cold.metrics.empty());
    ASSERT_FALSE(cold.timeline.empty());

    const TestbedCacheStats before = testbedCacheStats();
    const Exports cachedMiss = runOnce(); // builds the cache entry
    const Exports cachedHit = runOnce();  // reset() + rerun
    const TestbedCacheStats after = testbedCacheStats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);

    EXPECT_TRUE(cachedMiss == cold) << "cache-miss export differs";
    EXPECT_TRUE(cachedHit == cold) << "cache-hit export differs";
}

TEST(TestbedCache, BypassedLeaseOwnsItsWorld)
{
    ScopedEnv e("VIRTSIM_POOL_CACHE", "0");
    const TestbedCacheStats before = testbedCacheStats();
    const TestbedConfig tc{.kind = SutKind::KvmArm, .seed = 780};
    {
        TestbedLease l = acquireTestbed(tc);
        ASSERT_NE(l.get(), nullptr);
        EXPECT_TRUE(l->virtualized());
    }
    const TestbedCacheStats after = testbedCacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
}

TEST(TestbedCache, AttributionSurvivesReuse)
{
    // reset() detaches the analyzer and disables the sink; a repeat
    // attribution() user on a cache hit must get a live pipeline and
    // identical blame both passes.
    const TestbedConfig tc{.kind = SutKind::KvmArm, .seed = 781};
    std::uint64_t ops[2] = {0, 0};
    for (int pass = 0; pass < 2; ++pass) {
        TestbedLease tb = acquireTestbed(tc);
        CausalAnalyzer &an = tb->attribution();
        MicrobenchSuite suite(*tb);
        (void)suite.run(MicroOp::Hypercall, 5);
        const BlameReport r = an.report(&tb->trace());
        EXPECT_FALSE(r.terms.empty()) << "pass " << pass;
        ops[pass] = r.operations;
    }
    EXPECT_EQ(ops[0], ops[1]);
}
