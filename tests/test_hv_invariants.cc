/**
 * @file
 * Cross-hypervisor invariant sweep: properties every hypervisor model
 * must satisfy, parameterized over all five implementations and the
 * relevant operations. These are the contracts the measurement
 * framework relies on.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/microbench.hh"
#include "core/testbed.hh"

using namespace virtsim;

namespace {

const SutKind allHvs[] = {SutKind::KvmArm, SutKind::XenArm,
                          SutKind::KvmX86, SutKind::XenX86,
                          SutKind::KvmArmVhe};

} // namespace

class HvInvariant : public ::testing::TestWithParam<SutKind>
{
};

TEST_P(HvInvariant, HypercallIsPositiveFiniteAndRepeatable)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Hypervisor *hv = tb.hypervisor();
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles first = 0, second = 0;
    hv->hypercall(0, v, [&](Cycles t) {
        first = t;
        hv->hypercall(t, v,
                      [&second, t](Cycles t2) { second = t2 - t; });
    });
    tb.run();
    EXPECT_GT(first, 0u);
    EXPECT_EQ(second, first) << "hypercall cost not stable";
}

TEST_P(HvInvariant, HypercallLeavesVcpuRunning)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Vcpu &v = tb.guest()->vcpu(0);
    tb.hypervisor()->hypercall(0, v, [](Cycles) {});
    tb.run();
    EXPECT_EQ(v.state(), VcpuState::Running);
    EXPECT_TRUE(v.loaded());
}

TEST_P(HvInvariant, IrqTrapCostsMoreThanHypercall)
{
    // The distributor access does everything a hypercall does plus
    // emulation work.
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles hc = 0, trap = 0;
    tb.hypervisor()->hypercall(0, v, [&](Cycles t) {
        hc = t;
        tb.hypervisor()->irqControllerTrap(
            t, v, [&trap, t](Cycles t2) { trap = t2 - t; });
    });
    tb.run();
    EXPECT_GT(trap, hc);
}

TEST_P(HvInvariant, VirtualIpiReachesTheOtherVcpu)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Vcpu &src = tb.guest()->vcpu(0);
    Vcpu &dst = tb.guest()->vcpu(3);
    Cycles handled = 0;
    tb.hypervisor()->virtualIpi(0, src, dst,
                                [&](Cycles t) { handled = t; });
    tb.run();
    EXPECT_GT(handled, 0u);
    // The receiver's physical CPU did work.
    EXPECT_GT(tb.machine().cpu(dst.pcpu()).busyCycles(), 0u);
    // Both ends are back in guest mode.
    EXPECT_EQ(src.state(), VcpuState::Running);
    EXPECT_EQ(dst.state(), VcpuState::Running);
}

TEST_P(HvInvariant, InjectionHonorsDistributionPolicy)
{
    TestbedConfig tc;
    tc.kind = GetParam();
    tc.virqDist = VirqDistribution::Spread;
    Testbed tb(tc);
    // Deliver several packets; with the spread policy the busy
    // cycles must not all land on VCPU0's physical CPU.
    tb.setIdle(0, true);
    for (int i = 0; i < 8; ++i) {
        Packet p;
        p.flow = static_cast<std::uint64_t>(i + 1);
        p.bytes = 1500;
        tb.clientSend(static_cast<Cycles>(i) * 500000, p);
    }
    tb.run();
    int touched = 0;
    for (int c = 0; c < 4; ++c) {
        if (tb.machine().cpu(c).busyCycles() > 0)
            ++touched;
    }
    EXPECT_GE(touched, 3) << "spread policy still funnels to VCPU0";
}

TEST_P(HvInvariant, GuestChargeDoesNotInvolveTheHypervisor)
{
    // Section V: CPU execution runs at native speed; charging guest
    // work must not produce exits.
    Testbed tb(TestbedConfig{.kind = GetParam()});
    const auto exits_before =
        tb.machine().counters().value(internTap("kvm.vm_exits")) +
        tb.machine().counters().value(internTap("xen.traps"));
    tb.charge(0, 1, 1000000);
    tb.run();
    const auto exits_after =
        tb.machine().counters().value(internTap("kvm.vm_exits")) +
        tb.machine().counters().value(internTap("xen.traps"));
    EXPECT_EQ(exits_before, exits_after);
    EXPECT_EQ(tb.machine().cpu(1).busyCycles(), 1000000u);
}

TEST_P(HvInvariant, TransmitConservesPackets)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Vcpu &v = tb.guest()->vcpu(0);
    int client_got = 0;
    tb.onClientRx = [&](Cycles, const Packet &) { ++client_got; };
    const int n = 12;
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        p.seq = static_cast<std::uint64_t>(i + 1);
        tb.hypervisor()->guestTransmit(tb.queue().now(), v, p,
                                       [](Cycles) {});
    }
    tb.run();
    EXPECT_EQ(client_got, n);
    EXPECT_EQ(tb.machine().counters().value(internTap("nic.tx_packets")),
              static_cast<std::uint64_t>(n));
}

TEST_P(HvInvariant, RxPathDeliversEveryAcceptedPacket)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    tb.setIdle(0, true);
    std::uint64_t delivered = 0;
    tb.onVmRx = [&](Cycles, const Packet &pkt) {
        delivered += framesFor(pkt.bytes);
    };
    const std::uint64_t n = 20;
    for (std::uint64_t i = 0; i < n; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        // Spaced out: no drops expected.
        tb.clientSend(i * 1000000, p);
    }
    tb.run();
    const std::uint64_t dropped =
        tb.machine().counters().value(internTap("nic.rx_dropped")) +
        tb.machine().counters().value(internTap("netback.rx_no_request")) +
        tb.machine().counters().value(
            internTap("netback.rx_backlog_dropped")) +
        tb.machine().counters().value(internTap("vhost.rx_no_descriptor")) +
        tb.machine().counters().value(internTap("vhost.rx_backlog_dropped"));
    EXPECT_EQ(delivered + dropped, n);
    EXPECT_EQ(dropped, 0u);
}

TEST_P(HvInvariant, BlockedVcpuWakesExactlyOnce)
{
    Testbed tb(TestbedConfig{.kind = GetParam()});
    Vcpu &v = tb.guest()->vcpu(0);
    tb.hypervisor()->blockVcpu(v);
    int handled = 0;
    tb.hypervisor()->injectVirq(0, v, spiNicIrq,
                                [&](Cycles) { ++handled; });
    tb.run();
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(v.state(), VcpuState::Running);
}

INSTANTIATE_TEST_SUITE_P(AllHypervisors, HvInvariant,
                         ::testing::ValuesIn(allHvs),
                         [](const auto &info) {
                             std::string n = to_string(info.param);
                             for (char &c : n) {
                                 if (!std::isalnum(
                                         static_cast<unsigned char>(c)))
                                     c = '_';
                             }
                             return n;
                         });

/** Microbenchmark monotonicity: the documented Table II orderings
 *  between hypervisors, per operation. */
TEST(HvOrdering, IoLatencyOutXenWorstOnArmKvmBestOnX86)
{
    auto io_out = [](SutKind k) {
        Testbed tb(TestbedConfig{.kind = k});
        MicrobenchSuite suite(tb);
        return suite.run(MicroOp::IoLatencyOut, 10).cycles.mean();
    };
    const double kvm_arm = io_out(SutKind::KvmArm);
    const double xen_arm = io_out(SutKind::XenArm);
    const double kvm_x86 = io_out(SutKind::KvmX86);
    const double xen_x86 = io_out(SutKind::XenX86);
    EXPECT_GT(xen_arm, 2 * kvm_arm);
    EXPECT_LT(kvm_x86, kvm_arm);
    EXPECT_GT(xen_x86, 5 * kvm_x86);
}

TEST(HvOrdering, VmSwitchIsNeverAFastPath)
{
    // Table II: switching VMs costs thousands of cycles everywhere —
    // "Type 1 and Type 2 hypervisors perform equally fast on ARM"
    // at this operation.
    auto vm_switch = [](SutKind k) {
        Testbed tb(TestbedConfig{.kind = k});
        MicrobenchSuite suite(tb);
        return suite.run(MicroOp::VmSwitch, 10).cycles.mean();
    };
    const double kvm_arm = vm_switch(SutKind::KvmArm);
    const double xen_arm = vm_switch(SutKind::XenArm);
    EXPECT_GT(xen_arm, 8000.0);
    EXPECT_GT(kvm_arm, 8000.0);
    EXPECT_LT(xen_arm, kvm_arm); // only slightly better
    EXPECT_GT(xen_arm, 0.8 * kvm_arm);
}
