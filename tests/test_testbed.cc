/**
 * @file
 * Tests for the testbed layer: configuration wiring, the uniform
 * workload surface, and the native baseline paths.
 */

#include <gtest/gtest.h>

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
// Testbed::reset() rebuilds the testbed in place from its config: a
// dirtied world must then run any workload to the same results as a
// newly constructed one.
// ---------------------------------------------------------------------

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
