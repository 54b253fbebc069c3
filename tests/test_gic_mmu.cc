/**
 * @file
 * Tests for the interrupt-controller hardware (GIC with
 * virtualization extensions, x86 APIC), the timers, and the memory
 * virtualization hardware (Stage-2 tables, TLBs, broadcast
 * invalidation).
 */

#include <gtest/gtest.h>

#include "hw/gic.hh"
#include "hw/machine.hh"
#include "hw/mmu.hh"
#include "hw/vtimer.hh"

using namespace virtsim;

namespace {

struct GicFixture : public ::testing::Test
{
    EventQueue eq;
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Gic gic{eq, cm, counters, 4};
};

} // namespace

TEST_F(GicFixture, ExternalRoutesToConfiguredCpu)
{
    PcpuId seen_cpu = -1;
    IrqId seen_irq = -1;
    gic.setPhysIrqHandler([&](Cycles, PcpuId c, IrqId i) {
        seen_cpu = c;
        seen_irq = i;
    });
    gic.routeExternal(spiNicIrq, 2);
    gic.raiseExternal(100, spiNicIrq);
    eq.run();
    EXPECT_EQ(seen_cpu, 2);
    EXPECT_EQ(seen_irq, spiNicIrq);
}

TEST_F(GicFixture, IpiArrivesAfterFlight)
{
    Cycles when = 0;
    gic.setPhysIrqHandler([&](Cycles t, PcpuId, IrqId) { when = t; });
    gic.sendIpi(1000, 3, sgiRescheduleIrq);
    eq.run();
    EXPECT_EQ(when, 1000 + cm.ipiFlight);
}

TEST(IrqChipDeath, IpiSentBeforeNowDies)
{
    // The IPI's one latency is added to its departure time, so a
    // departure in the past would arrive sooner than ipiFlight after
    // the sending instant.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            EventQueue eq;
            CostModel cm = CostModel::armAtlas();
            MetricsDomain counters("test");
            Gic gic(eq, cm, counters, 4);
            gic.setPhysIrqHandler([](Cycles, PcpuId, IrqId) {});
            eq.scheduleAt(50, [&gic] {
                gic.sendIpi(49, 3, sgiRescheduleIrq);
            });
            eq.run();
        },
        "IPI sent at 49 before now 50");
}

TEST_F(GicFixture, VirqLifecycle)
{
    // Inject -> pending; ack -> active; complete -> free, at the
    // paper's 71-cycle cost.
    EXPECT_EQ(gic.injectVirq(0, 1, spiNicIrq), 0);
    EXPECT_TRUE(gic.anyVirqLive(1));
    EXPECT_EQ(gic.guestAckVirq(1), spiNicIrq);
    // Acked but not completed: still occupying the LR.
    EXPECT_TRUE(gic.anyVirqLive(1));
    EXPECT_EQ(gic.guestCompleteVirq(1, spiNicIrq), 71u);
    EXPECT_FALSE(gic.anyVirqLive(1));
}

TEST_F(GicFixture, ListRegisterOverflow)
{
    for (std::size_t i = 0; i < numListRegs; ++i)
        EXPECT_GE(gic.injectVirq(0, 0, 40 + static_cast<IrqId>(i)), 0);
    EXPECT_EQ(gic.injectVirq(0, 0, 50), -1);
    EXPECT_EQ(counters.value(internTap("gic.lr_overflow")), 1u);
}

TEST_F(GicFixture, AckWithNothingPendingReturnsMinusOne)
{
    EXPECT_EQ(gic.guestAckVirq(0), -1);
}

TEST_F(GicFixture, PerCpuListRegsAreIndependent)
{
    gic.injectVirq(0, 0, 41);
    EXPECT_TRUE(gic.anyVirqLive(0));
    EXPECT_FALSE(gic.anyVirqLive(1));
}

TEST(Apic, InjectAndAck)
{
    EventQueue eq;
    CostModel cm = CostModel::x86Xeon();
    MetricsDomain counters{"test"};
    Apic apic(eq, cm, counters, 4);
    EXPECT_TRUE(apic.guestEoiTraps()); // the paper's vAPIC-less Xeons
    apic.injectVirq(0, 2, 33);
    EXPECT_EQ(apic.guestAckVirq(2), 33);
    EXPECT_EQ(apic.guestAckVirq(2), -1);
    apic.setVApic(true);
    EXPECT_FALSE(apic.guestEoiTraps());
}

TEST(TimerBank, FiresAtDeadlineOnOwnCpu)
{
    EventQueue eq;
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Gic gic(eq, cm, counters, 4);
    TimerBank timers(eq, gic, 4);
    PcpuId cpu = -1;
    Cycles when = 0;
    gic.setPhysIrqHandler([&](Cycles t, PcpuId c, IrqId i) {
        EXPECT_EQ(i, ppiVtimerIrq);
        cpu = c;
        when = t;
    });
    timers.program(2, 5000);
    EXPECT_TRUE(timers.armed(2));
    eq.run();
    EXPECT_EQ(cpu, 2);
    EXPECT_EQ(when, 5000u);
    EXPECT_FALSE(timers.armed(2));
}

TEST(TimerBank, CancelSuppressesFire)
{
    EventQueue eq;
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Gic gic(eq, cm, counters, 2);
    TimerBank timers(eq, gic, 2);
    int fired = 0;
    gic.setPhysIrqHandler([&](Cycles, PcpuId, IrqId) { ++fired; });
    timers.program(0, 1000);
    timers.cancel(0);
    eq.run();
    EXPECT_EQ(fired, 0);
}

TEST(TimerBank, ReprogramReplacesDeadline)
{
    EventQueue eq;
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Gic gic(eq, cm, counters, 2);
    TimerBank timers(eq, gic, 2);
    std::vector<Cycles> fires;
    gic.setPhysIrqHandler(
        [&](Cycles t, PcpuId, IrqId) { fires.push_back(t); });
    timers.program(0, 1000);
    timers.program(0, 3000);
    eq.run();
    ASSERT_EQ(fires.size(), 1u);
    EXPECT_EQ(fires[0], 3000u);
}

TEST(Stage2Tables, MapLookupUnmap)
{
    Stage2Tables t(5);
    EXPECT_FALSE(t.lookup(0x100).has_value());
    t.map(0x100, 0x900);
    EXPECT_EQ(t.lookup(0x100).value(), 0x900u);
    EXPECT_TRUE(t.isWritable(0x100));
    t.map(0x101, 0x901, false);
    EXPECT_FALSE(t.isWritable(0x101));
    EXPECT_TRUE(t.unmap(0x100));
    EXPECT_FALSE(t.unmap(0x100));
    EXPECT_EQ(t.mappedPages(), 1u);
}

TEST(Tlb, FillHitInvalidate)
{
    Tlb tlb(8);
    EXPECT_FALSE(tlb.lookup(1, 0x10));
    tlb.fill(1, 0x10);
    EXPECT_TRUE(tlb.lookup(1, 0x10));
    EXPECT_FALSE(tlb.lookup(2, 0x10)); // different VMID
    tlb.invalidatePage(1, 0x10);
    EXPECT_FALSE(tlb.lookup(1, 0x10));
}

TEST(Tlb, CapacityEvicts)
{
    Tlb tlb(4);
    for (Ipa p = 0; p < 6; ++p)
        tlb.fill(1, p);
    EXPECT_EQ(tlb.size(), 4u);
    EXPECT_FALSE(tlb.lookup(1, 0)); // oldest evicted
    EXPECT_TRUE(tlb.lookup(1, 5));
}

TEST(Mmu, TranslateChargesWalkOnMissOnly)
{
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Mmu mmu(cm, counters, 2);
    Stage2Tables t(1);
    t.map(0x40, 0x80);

    auto [pa1, cost1] = mmu.translate(0, t, 0x40);
    EXPECT_EQ(pa1.value(), 0x80u);
    EXPECT_EQ(cost1, cm.pageTableWalk + cm.stage2WalkExtra);

    auto [pa2, cost2] = mmu.translate(0, t, 0x40);
    EXPECT_EQ(pa2.value(), 0x80u);
    EXPECT_EQ(cost2, 0u); // TLB hit

    // Another CPU's TLB is cold.
    auto [pa3, cost3] = mmu.translate(1, t, 0x40);
    EXPECT_EQ(pa3.value(), 0x80u);
    EXPECT_GT(cost3, 0u);
}

TEST(Mmu, FaultOnUnmapped)
{
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Mmu mmu(cm, counters, 1);
    Stage2Tables t(1);
    auto [pa, cost] = mmu.translate(0, t, 0x999);
    EXPECT_FALSE(pa.has_value());
    EXPECT_GT(cost, 0u);
    EXPECT_EQ(counters.value(internTap("mmu.stage2_fault")), 1u);
}

TEST(Mmu, BroadcastInvalidateReachesAllCpusAndChargesByArch)
{
    // The E6 asymmetry: one instruction on ARM, IPI shootdown that
    // scales with CPU count on x86.
    CostModel arm = CostModel::armAtlas();
    CostModel x86 = CostModel::x86Xeon();
    MetricsDomain s1{"arm"}, s2{"x86"};
    Mmu marm(arm, s1, 8), mx86(x86, s2, 8);
    Stage2Tables t(1);
    t.map(0x1, 0x2);

    for (int c = 0; c < 8; ++c)
        (void)marm.translate(c, t, 0x1);
    const Cycles ca = marm.invalidatePageBroadcast(1, 0x1);
    for (int c = 0; c < 8; ++c) {
        auto [pa, cost] = marm.translate(c, t, 0x1);
        EXPECT_GT(cost, 0u) << "cpu " << c << " kept a stale entry";
    }
    const Cycles cx = mx86.invalidatePageBroadcast(1, 0x1);
    EXPECT_EQ(ca, arm.tlbInvalidateBroadcast);
    EXPECT_EQ(cx, x86.tlbInvalidateBroadcast + 7 * x86.ipiFlight);
    EXPECT_GT(cx, ca);
}

TEST(MmuDeath, StaleTlbEntryIsABug)
{
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    Mmu mmu(cm, counters, 1);
    Stage2Tables t(1);
    t.map(0x7, 0x8);
    (void)mmu.translate(0, t, 0x7);
    t.unmap(0x7); // without TLB maintenance: simulator bug by contract
    EXPECT_DEATH((void)mmu.translate(0, t, 0x7), "stale TLB");
}
