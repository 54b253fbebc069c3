/**
 * @file
 * Tests for the x86 hypervisors (shared VMCS mechanism, EOI traps,
 * vAPIC ablation) and the ARMv8.1 VHE model (Section VI).
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"

using namespace virtsim;

TEST(KvmX86, HypercallCosts1300)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmX86});
    Cycles done_at = 0;
    tb.hypervisor()->hypercall(0, tb.guest()->vcpu(0),
                               [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 1300u); // Table II
}

TEST(XenX86, HypercallCosts1228)
{
    Testbed tb(TestbedConfig{.kind = SutKind::XenX86});
    Cycles done_at = 0;
    tb.hypervisor()->hypercall(0, tb.guest()->vcpu(0),
                               [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 1228u); // Table II: nearly identical to KVM —
                               // same hardware mechanism
}

TEST(X86, EoiTrapsWithoutVapic)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmX86});
    Cycles done_at = 0;
    tb.hypervisor()->virqComplete(0, tb.guest()->vcpu(0),
                                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 1556u); // Table II: ~22x the ARM fast path
    EXPECT_GT(tb.machine().stats().counterValue(
                  "kvm.virq_complete_trap"),
              0u);
}

TEST(X86, VapicRemovesTheEoiTrap)
{
    // Table II discussion: "newer x86 hardware with vAPIC support
    // should perform more comparably to ARM".
    TestbedConfig tc;
    tc.kind = SutKind::KvmX86;
    tc.vApic = true;
    Testbed tb(tc);
    Cycles done_at = 0;
    tb.hypervisor()->virqComplete(0, tb.guest()->vcpu(0),
                                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_LT(done_at, 200u);
    EXPECT_EQ(tb.machine().stats().counterValue("kvm.vm_exits"), 0u);
}

TEST(X86, IoSignalOutUsesIoeventfdFastPath)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmX86});
    Cycles done_at = 0;
    tb.hypervisor()->ioSignalOut(0, tb.guest()->vcpu(0),
                                 [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 560u); // Table II's standout number
}

TEST(XenX86, VmSwitchIsTheSlowestOfAllFour)
{
    Testbed tb(TestbedConfig{.kind = SutKind::XenX86});
    auto *xen = dynamic_cast<XenHypervisor *>(tb.hypervisor());
    ASSERT_NE(xen, nullptr);
    Vm &vm1 = xen->createVm("vm1", 4, {0, 1, 2, 3});
    Cycles done_at = 0;
    xen->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0),
                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_EQ(done_at, 10534u); // Table II
}

TEST(X86, GuestStateSurvivesVmcsRoundTrips)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmX86});
    Vcpu &v = tb.guest()->vcpu(0);
    auto &gp = tb.machine().cpu(0).regs().bank(RegClass::Gp);
    gp.assign(gp.size(), 0xfeed);
    bool ok = false;
    tb.hypervisor()->hypercall(0, v, [&](Cycles) {
        ok = tb.machine().cpu(0).regs().bank(RegClass::Gp)[0] == 0xfeed;
    });
    tb.run();
    EXPECT_TRUE(ok);
}

TEST(Vhe, HypercallNearTheType1FastPath)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArmVhe});
    Cycles done_at = 0;
    tb.hypervisor()->hypercall(0, tb.guest()->vcpu(0),
                               [&](Cycles t) { done_at = t; });
    tb.run();
    // Section VI: more than an order of magnitude under split-mode
    // KVM (6,500), approaching Xen ARM (376).
    EXPECT_LT(done_at, 650u);
    EXPECT_GT(done_at, 376u);
}

TEST(Vhe, NoEl1StateMovesOnTransition)
{
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArmVhe});
    auto *vhe = dynamic_cast<KvmHypervisor *>(tb.hypervisor());
    ASSERT_NE(vhe, nullptr);
    Vcpu &v = tb.guest()->vcpu(0);
    TraceSink &sink = tb.trace();
    sink.enable();
    bool done = false;
    vhe->hypercall(0, v, [&](Cycles) { done = true; });
    tb.run();
    sink.disable();
    ASSERT_TRUE(done);
    sink.forEach([](const TraceRecord &r) {
        if (r.kind != TraceKind::Begin)
            return;
        const auto info = switchTapInfo(r.tap);
        if (!info)
            return;
        EXPECT_EQ(info->cls, RegClass::Gp)
            << "VHE transition touched " << to_string(info->cls);
    });
}

TEST(Vhe, VmSwitchStillMovesTheFullEl1World)
{
    // VHE removes the host from EL1; VMs still live there, so
    // VM-to-VM switches keep their cost.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArmVhe});
    auto *vhe = dynamic_cast<KvmHypervisor *>(tb.hypervisor());
    Vm &vm1 = vhe->createVm("vm1", 4, {0, 1, 2, 3});
    Cycles done_at = 0;
    vhe->vmSwitch(0, tb.guest()->vcpu(0), vm1.vcpu(0),
                  [&](Cycles t) { done_at = t; });
    tb.run();
    EXPECT_GT(done_at, 9000u);
}

TEST(Vhe, IoLatencyOutImprovesDramatically)
{
    Testbed vhe_tb(TestbedConfig{.kind = SutKind::KvmArmVhe});
    Cycles vhe_at = 0;
    vhe_tb.hypervisor()->ioSignalOut(0, vhe_tb.guest()->vcpu(0),
                                     [&](Cycles t) { vhe_at = t; });
    vhe_tb.run();
    EXPECT_LT(vhe_at, 6024u / 2); // vs split-mode Table II value
}

/** Table II orderings that define the paper's Type 1 / Type 2 story,
 *  checked across every hypervisor pair via the public API. */
TEST(CrossHypervisor, HypercallOrdering)
{
    auto hypercall = [](SutKind k) {
        Testbed tb(TestbedConfig{.kind = k});
        Cycles at = 0;
        tb.hypervisor()->hypercall(0, tb.guest()->vcpu(0),
                                   [&](Cycles t) { at = t; });
        tb.run();
        return at;
    };
    const Cycles xen_arm = hypercall(SutKind::XenArm);
    const Cycles kvm_arm = hypercall(SutKind::KvmArm);
    const Cycles kvm_x86 = hypercall(SutKind::KvmX86);
    const Cycles xen_x86 = hypercall(SutKind::XenX86);
    const Cycles vhe = hypercall(SutKind::KvmArmVhe);

    // Xen ARM < 1/3 x86 < split-mode KVM ARM; VHE restores the fast
    // path for Type 2.
    EXPECT_LT(xen_arm * 3, kvm_x86);
    EXPECT_LT(xen_arm * 3, xen_x86);
    EXPECT_GT(kvm_arm, 10 * xen_arm);
    EXPECT_GT(kvm_arm, 4 * kvm_x86);
    EXPECT_LT(vhe, 2 * xen_arm);
}
