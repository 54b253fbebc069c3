/**
 * @file
 * Tests for the KVM model: the transition state machine, injection
 * paths and guest/host state isolation on KVM ARM, KVM x86 and VHE,
 * and split-mode KVM ARM's emergent Table II costs.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"

using namespace virtsim;

namespace {

struct KvmArmFixture : public ::testing::Test
{
    KvmArmFixture() : tb(TestbedConfig{.kind = SutKind::KvmArm})
    {
        kvm = dynamic_cast<KvmHypervisor *>(tb.hypervisor());
    }

    Testbed tb;
    KvmHypervisor *kvm = nullptr;
};

/** One KVM configuration and the name it reports. */
struct KvmCase
{
    SutKind kind;
    const char *name;
};

/** The KVM family on each ISA and VHE: behaviour the policy must not
 *  change. */
struct KvmFamily : public ::testing::TestWithParam<KvmCase>
{
    KvmFamily() : tb(TestbedConfig{.kind = GetParam().kind})
    {
        kvm = dynamic_cast<KvmHypervisor *>(tb.hypervisor());
    }

    Testbed tb;
    KvmHypervisor *kvm = nullptr;
};

std::string
caseName(const ::testing::TestParamInfo<KvmCase> &info)
{
    switch (info.param.kind) {
      case SutKind::KvmArm:
        return "KvmArm";
      case SutKind::KvmX86:
        return "KvmX86";
      default:
        return "KvmArmVhe";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllIsas, KvmFamily,
    ::testing::Values(KvmCase{SutKind::KvmArm, "KVM ARM"},
                      KvmCase{SutKind::KvmX86, "KVM x86"},
                      KvmCase{SutKind::KvmArmVhe, "KVM ARM (VHE)"}),
    caseName);

/** Table II I/O latency rows of the two measured KVMs. */
struct KvmIoCase
{
    SutKind kind;
    Cycles out;
    Cycles in;
};

struct KvmIoRows : public ::testing::TestWithParam<KvmIoCase>
{
    KvmIoRows() : tb(TestbedConfig{.kind = GetParam().kind})
    {
        kvm = dynamic_cast<KvmHypervisor *>(tb.hypervisor());
    }

    Testbed tb;
    KvmHypervisor *kvm = nullptr;
};

INSTANTIATE_TEST_SUITE_P(
    BothIsas, KvmIoRows,
    ::testing::Values(KvmIoCase{SutKind::KvmArm, 6024, 13872},
                      KvmIoCase{SutKind::KvmX86, 560, 18923}),
    [](const ::testing::TestParamInfo<KvmIoCase> &info) {
        return info.param.kind == SutKind::KvmArm ? "KvmArm" : "KvmX86";
    });

} // namespace

TEST_P(KvmFamily, IdentifiesAsType2)
{
    ASSERT_NE(kvm, nullptr);
    EXPECT_EQ(kvm->name(), GetParam().name);
    EXPECT_EQ(kvm->type(), HvType::Type2);
    EXPECT_EQ(to_string(kvm->type()), "Type 2");
}

TEST_F(KvmArmFixture, HypercallCosts6500Cycles)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles done_at = 0;
    kvm->hypercall(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 6500u); // Table II, emergent
}

TEST_F(KvmArmFixture, ExitAndEnterSplitPerTable3)
{
    Vcpu &v = tb.guest()->vcpu(0);
    const Cycles exit = kvm->exitToHost(0, v);
    // trap + dispatch + full save (4,202) + toggle + eret
    EXPECT_EQ(exit, 12u + 260u + 4202u + 60u + 12u);
    const Cycles enter = kvm->enterVm(exit, v);
    EXPECT_EQ(enter - exit, 12u + 260u + 1506u + 60u + 12u);
}

TEST_P(KvmFamily, ExitRequiresRunningVcpu)
{
    Vcpu &v = tb.guest()->vcpu(0);
    kvm->exitToHost(0, v);
    EXPECT_DEATH(kvm->exitToHost(100, v), "not running");
}

TEST_P(KvmFamily, EnterRequiresFreePcpu)
{
    Vcpu &v = tb.guest()->vcpu(0);
    EXPECT_DEATH(kvm->enterVm(0, v), "already in a VM");
}

TEST_P(KvmFamily, GuestStateSurvivesHypercalls)
{
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().cpu(0).regs().fillPattern(0x60e57);
    bool checked = false;
    kvm->hypercall(0, v, [&](Cycles) {
        checked = tb.machine().cpu(0).regs().matchesPattern(0x60e57);
    });
    tb.run();
    EXPECT_TRUE(checked);
}

TEST_F(KvmArmFixture, IrqControllerTrapCosts7370)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles done_at = 0;
    kvm->irqControllerTrap(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 7370u); // Table II
}

TEST_F(KvmArmFixture, VirqCompletionIsTheArmFastPath)
{
    Vcpu &v = tb.guest()->vcpu(0);
    tb.machine().gic().injectVirq(0, v.pcpu(), spiNicIrq);
    tb.machine().gic().guestAckVirq(v.pcpu());
    Cycles done_at = 0;
    kvm->virqComplete(0, v, [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 71u); // Table II: no trap
    EXPECT_EQ(tb.machine().stats().counterValue("kvm.vm_exits"), 0u);
}

TEST_P(KvmFamily, InjectToRunningVcpuUsesKick)
{
    Vcpu &v = tb.guest()->vcpu(1);
    Cycles handled = 0;
    kvm->injectVirq(0, v, spiNicIrq, [&](Cycles t) { handled = t; });
    tb.run();
    EXPECT_GT(handled, 0u);
    // Kick = SGI + full exit + re-entry on the target.
    EXPECT_EQ(tb.machine().stats().counterValue("irqchip.ipi_sent"),
              1u);
    EXPECT_EQ(tb.machine().stats().counterValue("kvm.vm_exits"), 1u);
    EXPECT_EQ(tb.machine().stats().counterValue("kvm.vm_entries"), 1u);
}

TEST_P(KvmFamily, InjectToIdleVcpuPaysWakePath)
{
    Vcpu &v = tb.guest()->vcpu(1);
    kvm->blockVcpu(v);
    EXPECT_EQ(v.state(), VcpuState::Idle);
    Cycles handled = 0;
    kvm->injectVirq(0, v, spiNicIrq, [&](Cycles t) { handled = t; });
    tb.run();
    // Wake path: vcpuWakeFromIdle dominates; no SGI needed.
    EXPECT_GT(handled, kvm->params.vcpuWakeFromIdle);
    EXPECT_EQ(tb.machine().stats().counterValue("irqchip.ipi_sent"),
              0u);
    EXPECT_EQ(v.state(), VcpuState::Running);
}

TEST_F(KvmArmFixture, VmSwitchMatchesTable2)
{
    Vm &vm1 = kvm->createVm("vm1", 4, {0, 1, 2, 3});
    Cycles done_at = 0;
    kvm->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0),
                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 10387u); // Table II
}

TEST_P(KvmFamily, VmSwitchIsolatesRegisterState)
{
    Vm &vm1 = kvm->createVm("vm1", 4, {0, 1, 2, 3});
    auto sig = [](std::uint64_t tag) {
        return std::vector<std::uint64_t>(RegFile::bankSize(RegClass::Gp),
                                          tag);
    };
    vm1.vcpu(0).savedRegs().bank(RegClass::Gp) = sig(0xb);
    tb.machine().cpu(0).regs().bank(RegClass::Gp) = sig(0xa);

    bool vm1_ok = false, vm0_ok = false;
    kvm->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0), [&](Cycles t) {
        vm1_ok =
            tb.machine().cpu(0).regs().bank(RegClass::Gp) == sig(0xb);
        kvm->vmSwitch(t, vm1.vcpu(0), tb.guest()->vcpu(0),
                      [&](Cycles) {
                          vm0_ok = tb.machine()
                                       .cpu(0)
                                       .regs()
                                       .bank(RegClass::Gp) == sig(0xa);
                      });
    });
    tb.run();
    EXPECT_TRUE(vm1_ok);
    EXPECT_TRUE(vm0_ok);
}

TEST_P(KvmIoRows, IoSignalsMatchTable2)
{
    Vcpu &v = tb.guest()->vcpu(0);
    Cycles out_at = 0;
    kvm->ioSignalOut(0, v, [&](Cycles t) { out_at = t; });
    tb.run();
    EXPECT_EQ(out_at, GetParam().out); // Table II

    kvm->blockVcpu(v);
    // Measure from the VCPU's quiescent point (its frontier), as the
    // microbenchmark driver does.
    const Cycles t0 = tb.frontier(0);
    Cycles in_at = 0;
    kvm->ioSignalIn(t0, v, [&](Cycles t) { in_at = t; });
    tb.run();
    EXPECT_EQ(in_at - t0, GetParam().in); // Table II
}

TEST_P(KvmFamily, TransmitSuppressesKicksWhilePumping)
{
    Vcpu &v = tb.guest()->vcpu(0);
    for (int i = 0; i < 8; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        p.seq = static_cast<std::uint64_t>(i + 1);
        kvm->guestTransmit(tb.queue().now(), v, p, [](Cycles) {});
    }
    tb.run();
    EXPECT_EQ(tb.machine().stats().counterValue("nic.tx_packets"), 8u);
    EXPECT_GT(
        tb.machine().stats().counterValue("kvm.tx_kick_suppressed"),
        0u);
    // Far fewer exits than packets: notification suppression works.
    EXPECT_LT(tb.machine().stats().counterValue("kvm.vm_exits"), 8u);
}

TEST_P(KvmFamily, DeliverPacketReachesGuestDriver)
{
    Packet p;
    p.flow = 9;
    p.bytes = 1500;
    Cycles vm_rx = 0;
    tb.onVmRx = [&](Cycles t, const Packet &pkt) {
        EXPECT_EQ(pkt.flow, 9u);
        vm_rx = t;
    };
    tb.setIdle(0, true);
    kvm->deliverPacketToVm(1000, *tb.guest(), p, [](Cycles) {});
    tb.run();
    EXPECT_GT(vm_rx, 1000u);
    // The idle netserver was woken through the expensive path.
    EXPECT_EQ(tb.guest()->vcpu(0).state(), VcpuState::Running);
}
