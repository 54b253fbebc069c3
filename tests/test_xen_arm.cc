/**
 * @file
 * Tests for the Xen model: Dom0/idle-domain scheduling and the
 * Dom0-mediated I/O architecture on both ISAs, and Xen ARM's
 * EL2-resident fast paths.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"

using namespace virtsim;

namespace {

struct XenArmFixture : public ::testing::Test
{
    XenArmFixture() : tb(TestbedConfig{.kind = SutKind::XenArm})
    {
        xen = dynamic_cast<XenHypervisor *>(tb.hypervisor());
    }

    Testbed tb;
    XenHypervisor *xen = nullptr;
};

/** One Xen configuration, its name and its Table II I/O latency
 *  rows. */
struct XenCase
{
    SutKind kind;
    const char *name;
    double ioOut;
    double ioIn;
};

/** The Xen family on each ISA: behaviour the policy must not change. */
struct XenFamily : public ::testing::TestWithParam<XenCase>
{
    XenFamily() : tb(TestbedConfig{.kind = GetParam().kind})
    {
        xen = dynamic_cast<XenHypervisor *>(tb.hypervisor());
    }

    Testbed tb;
    XenHypervisor *xen = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    BothIsas, XenFamily,
    ::testing::Values(XenCase{SutKind::XenArm, "Xen ARM", 16491.0, 15650.0},
                      XenCase{SutKind::XenX86, "Xen x86", 11262.0, 10050.0}),
    [](const ::testing::TestParamInfo<XenCase> &info) {
        return info.param.kind == SutKind::XenArm ? "XenArm" : "XenX86";
    });

} // namespace

TEST_P(XenFamily, IdentifiesAsType1WithDom0)
{
    ASSERT_NE(xen, nullptr);
    EXPECT_EQ(xen->name(), GetParam().name);
    EXPECT_EQ(xen->type(), HvType::Type1);
    EXPECT_EQ(xen->dom0().kind(), VmKind::Dom0);
    EXPECT_EQ(xen->dom0().numVcpus(), 4);
    // Dom0 pinned to the upper half, away from the DomU (Section III).
    EXPECT_EQ(xen->dom0().vcpu(0).pcpu(), 4);
    // Dom0 starts blocked: its PCPUs run the idle domain.
    EXPECT_EQ(xen->dom0().vcpu(0).state(), VcpuState::Idle);
}

TEST_F(XenArmFixture, HypercallCosts376Cycles)
{
    Cycles done_at = 0;
    xen->hypercall(0, tb.guest()->vcpu(0),
                   [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 376u); // Table II: the Type 1 fast path
}

TEST_F(XenArmFixture, HypercallTouchesOnlyGpState)
{
    // "little more than context switching the general purpose
    // registers" — the guest's FP/EL1/VGIC state stays live.
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().cpu(0).regs().fillPattern(0x7e4);
    bool intact = false;
    xen->hypercall(0, v, [&](Cycles) {
        intact = tb.machine().cpu(0).regs().matchesPattern(0x7e4);
    });
    tb.run();
    EXPECT_TRUE(intact);
}

TEST_F(XenArmFixture, IrqTrapStaysInEl2)
{
    Cycles done_at = 0;
    xen->irqControllerTrap(0, tb.guest()->vcpu(0),
                           [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 1356u); // Table II
    // No domain switches: the distributor is emulated in EL2.
    EXPECT_EQ(tb.machine().counters().value(internTap("xen.domain_switches")),
              0u);
}

TEST_F(XenArmFixture, VmSwitchMovesFullEl1State)
{
    Vm &vm1 = xen->createVm("vm1", 4, {0, 1, 2, 3});
    Cycles done_at = 0;
    xen->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0),
                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 8799u); // Table II: barely better than KVM
}

TEST_P(XenFamily, IoSignalOutWakesDom0FromIdle)
{
    xen->forceDom0Idle();
    Cycles done_at = 0;
    xen->ioSignalOut(0, tb.guest()->vcpu(0),
                     [&](Cycles t) { done_at = t; });
    tb.run();
    // Table II (ARM 16,491): dominated by the idle-domain switch.
    const double paper = GetParam().ioOut;
    EXPECT_NEAR(static_cast<double>(done_at), paper, paper * 0.05);
    EXPECT_EQ(
        tb.machine().counters().value(internTap("xen.idle_domain_switches")),
        1u);
    EXPECT_EQ(xen->dom0().vcpu(0).state(), VcpuState::Running);
}

TEST_P(XenFamily, IoSignalInWakesDomU)
{
    xen->forceDom0Running();
    tb.setIdle(0, true);
    const Cycles t0 = tb.queue().now();
    Cycles done_at = 0;
    xen->ioSignalIn(t0, tb.guest()->vcpu(0),
                    [&](Cycles t) { done_at = t; });
    tb.run();
    const double paper = GetParam().ioIn;
    EXPECT_NEAR(static_cast<double>(done_at - t0), paper, paper * 0.05);
}

TEST_P(XenFamily, Dom0BlocksAfterQuiescence)
{
    xen->forceDom0Running();
    // A packet through the NIC puts Dom0 to work, after which the
    // idle check should put its PCPU back on the idle domain.
    Packet p;
    p.flow = 1;
    p.bytes = 1500;
    tb.setIdle(0, true);
    tb.clientSend(1000, p);
    tb.run();
    EXPECT_EQ(xen->dom0().vcpu(0).state(), VcpuState::Idle);
    EXPECT_GT(tb.machine().counters().value(internTap("xen.dom0_blocked")),
              0u);
}

TEST_P(XenFamily, RxPathUsesGrantCopies)
{
    Packet p;
    p.flow = 3;
    p.bytes = 1500;
    tb.setIdle(0, true);
    int vm_rx = 0;
    tb.onVmRx = [&](Cycles, const Packet &) { ++vm_rx; };
    tb.clientSend(1000, p);
    tb.run();
    EXPECT_EQ(vm_rx, 1);
    EXPECT_GE(tb.machine().counters().value(internTap("grant.copies")), 1u);
    EXPECT_GE(tb.machine().counters().value(internTap("mem.bytes_copied")),
              1500u);
}

TEST_P(XenFamily, TransmitFlowsThroughDom0ToWire)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Packet p;
    p.flow = 4;
    p.bytes = 1500;
    p.seq = 1;
    Cycles sent = 0;
    xen->guestTransmit(0, v, p, [&](Cycles t) { sent = t; });
    tb.run();
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(tb.machine().counters().value(internTap("nic.tx_packets")), 1u);
    // The payload crossed the isolation boundary via a grant.
    EXPECT_GE(tb.machine().counters().value(internTap("grant.copies")) +
                  tb.machine().counters().value(
                      internTap("grant.copies_batched")),
              1u);
}

TEST_F(XenArmFixture, VirqCompletionSharesTheArmFastPath)
{
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().gic().injectVirq(0, v.pcpu(), spiNicIrq);
    tb.machine().gic().guestAckVirq(v.pcpu());
    Cycles done_at = 0;
    xen->virqComplete(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 71u); // identical to KVM (Table II)
}

TEST_P(XenFamily, TrapRequiresExecutingVcpu)
{
    Vcpu &v = tb.guest()->vcpu(0);
    xen->blockVcpu(v);
    EXPECT_DEATH(xen->trapToXen(0, v), "not executing");
}
