/**
 * @file
 * Tests for the physical CPU time accounting, register files, and
 * the calibrated cost model (including every Table III constant).
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hw/cost_model.hh"
#include "hw/cpu.hh"
#include "sim/event_queue.hh"
#include "sim/units.hh"

using namespace virtsim;

TEST(Frequency, Conversions)
{
    Frequency f(2.4);
    EXPECT_DOUBLE_EQ(f.cyclesPerUs(), 2400.0);
    EXPECT_EQ(f.cycles(1.0), 2400u);
    EXPECT_EQ(f.cyclesFromNs(500.0), 1200u);
    EXPECT_DOUBLE_EQ(f.us(4800), 2.0);
    EXPECT_DOUBLE_EQ(f.seconds(2400000000ull), 1.0);
    EXPECT_EQ(f.cyclesFromSeconds(0.5), 1200000000u);
}

TEST(CostModel, Table3ConstantsVerbatim)
{
    const CostModel m = CostModel::armAtlas();
    EXPECT_EQ(m.cost(RegClass::Gp).save, 152u);
    EXPECT_EQ(m.cost(RegClass::Gp).restore, 184u);
    EXPECT_EQ(m.cost(RegClass::Fp).save, 282u);
    EXPECT_EQ(m.cost(RegClass::Fp).restore, 310u);
    EXPECT_EQ(m.cost(RegClass::El1Sys).save, 230u);
    EXPECT_EQ(m.cost(RegClass::El1Sys).restore, 511u);
    EXPECT_EQ(m.cost(RegClass::Vgic).save, 3250u);
    EXPECT_EQ(m.cost(RegClass::Vgic).restore, 181u);
    EXPECT_EQ(m.cost(RegClass::Timer).save, 104u);
    EXPECT_EQ(m.cost(RegClass::Timer).restore, 106u);
    EXPECT_EQ(m.cost(RegClass::El2Config).save, 92u);
    EXPECT_EQ(m.cost(RegClass::El2Config).restore, 107u);
    EXPECT_EQ(m.cost(RegClass::El2VirtMem).save, 92u);
    EXPECT_EQ(m.cost(RegClass::El2VirtMem).restore, 107u);
}

TEST(CostModel, Table3TotalsMatchPaper)
{
    const CostModel m = CostModel::armAtlas();
    const auto all = {RegClass::Gp,        RegClass::Fp,
                      RegClass::El1Sys,    RegClass::Vgic,
                      RegClass::Timer,     RegClass::El2Config,
                      RegClass::El2VirtMem};
    EXPECT_EQ(m.saveCost(all), 4202u);
    EXPECT_EQ(m.restoreCost(all), 1506u);
}

TEST(CostModel, XenHypercallComponentsSumTo376)
{
    // Paper: Xen ARM hypercall = trap + GP save + handler + GP
    // restore + eret = 376 cycles. The handler (16 cycles) lives in
    // XenParams; the hardware parts must leave room for it.
    const CostModel m = CostModel::armAtlas();
    EXPECT_EQ(m.trapToEl2 + m.cost(RegClass::Gp).save +
                  m.cost(RegClass::Gp).restore + m.eretToEl1,
              360u);
}

TEST(CostModel, VirqCompletionIs71OnArm)
{
    EXPECT_EQ(CostModel::armAtlas().virqCompletionInVm, 71u);
}

TEST(CostModel, X86ExitCheaperThanEntry)
{
    // Section IV: the exit is ~40% of the x86 hypercall; entry is
    // the majority.
    const CostModel m = CostModel::x86Xeon();
    EXPECT_LT(m.vmexitHw, m.vmentryHw);
    EXPECT_EQ(m.vmexitHw + m.vmentryHw, 1140u);
}

TEST(CostModel, ArmBroadcastTlbiCheaperThanX86Shootdown)
{
    const CostModel arm = CostModel::armAtlas();
    const CostModel x86 = CostModel::x86Xeon();
    EXPECT_LT(arm.tlbInvalidateBroadcast, x86.tlbInvalidateBroadcast);
}

TEST(CostModel, ArchAndFrequency)
{
    EXPECT_EQ(CostModel::armAtlas().arch, Arch::Arm);
    EXPECT_DOUBLE_EQ(CostModel::armAtlas().freq.ghz(), 2.4);
    EXPECT_EQ(CostModel::x86Xeon().arch, Arch::X86);
    EXPECT_DOUBLE_EQ(CostModel::x86Xeon().freq.ghz(), 2.1);
}

TEST(PhysicalCpu, ChargeSerializes)
{
    EventQueue eq;
    const CostModel cm = CostModel::armAtlas();
    PhysicalCpu cpu(0, eq, cm);
    EXPECT_EQ(cpu.charge(0, 100), 100u);
    // Ready earlier than the frontier: work queues behind.
    EXPECT_EQ(cpu.charge(50, 100), 200u);
    // Ready later than the frontier: idle gap, then work.
    EXPECT_EQ(cpu.charge(500, 100), 600u);
    EXPECT_EQ(cpu.busyCycles(), 300u);
    EXPECT_EQ(cpu.frontier(), 600u);
}

TEST(PhysicalCpu, UtilizationIsBusyOverNow)
{
    EventQueue eq;
    const CostModel cm = CostModel::armAtlas();
    PhysicalCpu cpu(1, eq, cm);
    cpu.charge(0, 250);
    EXPECT_DOUBLE_EQ(cpu.utilization(1000), 0.25);
    EXPECT_DOUBLE_EQ(cpu.utilization(0), 0.0);
}

TEST(PhysicalCpu, RunFiresAtCompletion)
{
    EventQueue eq;
    const CostModel cm = CostModel::armAtlas();
    PhysicalCpu cpu(0, eq, cm);
    Cycles fired_at = 0;
    cpu.run(10, 90, [&] { fired_at = eq.now(); });
    eq.run();
    EXPECT_EQ(fired_at, 100u);
}

TEST(PhysicalCpu, RunCompletionsInterleaveWithPlainEventsInOrder)
{
    // Completions fire at the end of each charged interval, and an
    // event of the same cycle fires in scheduling order whether it
    // is a completion (on the CPU's stream) or a plain event.
    EventQueue eq;
    const CostModel cm = CostModel::armAtlas();
    PhysicalCpu a(0, eq, cm), b(1, eq, cm);
    std::vector<std::pair<char, Cycles>> order;
    auto mark = [&](char tag) {
        return [&order, &eq, tag] { order.emplace_back(tag, eq.now()); };
    };
    eq.scheduleAt(100, mark('p'));  // before a's completion at 100
    a.run(10, 90, mark('a'));       // [10, 100)
    a.run(0, 50, mark('A'));        // queues behind: [100, 150)
    b.run(50, 50, mark('b'));       // [50, 100), after a's at 100
    eq.scheduleAt(100, mark('q'));  // after all three at 100
    eq.scheduleAt(150, mark('r'));  // ties A's completion, after it
    a.run(300, 0, mark('z'));       // idle gap, zero cost: at 300
    eq.run();
    const std::vector<std::pair<char, Cycles>> want{
        {'p', 100}, {'a', 100}, {'b', 100}, {'q', 100},
        {'A', 150}, {'r', 150}, {'z', 300}};
    EXPECT_EQ(order, want);
    EXPECT_EQ(a.frontier(), 300u);
    EXPECT_EQ(a.busyCycles(), 140u);
    EXPECT_EQ(b.frontier(), 100u);
}

TEST(RegFile, PatternRoundTrip)
{
    RegFile f;
    f.fillPattern(0xabc);
    EXPECT_TRUE(f.matchesPattern(0xabc));
    EXPECT_FALSE(f.matchesPattern(0xabd));
}

TEST(RegFile, CopyClassMovesOnlyThatClass)
{
    RegFile a, b;
    a.fillPattern(1);
    b.fillPattern(2);
    b.copyClassFrom(a, RegClass::Gp);
    EXPECT_EQ(b.bank(RegClass::Gp), a.bank(RegClass::Gp));
    EXPECT_NE(b.bank(RegClass::Fp), a.bank(RegClass::Fp));
}

/** Property: every register class has a non-empty, stable bank. */
class RegBankTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RegBankTest, BankSizesArePositiveAndArchitectural)
{
    const auto cls = static_cast<RegClass>(GetParam());
    EXPECT_GT(RegFile::bankSize(cls), 0u);
    RegFile f;
    EXPECT_EQ(f.bank(cls).size(), RegFile::bankSize(cls));
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, RegBankTest,
    ::testing::Range(0, static_cast<int>(numRegClasses)));

TEST(ArchStrings, RegClassNamesMatchTable3Rows)
{
    EXPECT_EQ(to_string(RegClass::Gp), "GP Regs");
    EXPECT_EQ(to_string(RegClass::Vgic), "VGIC Regs");
    EXPECT_EQ(to_string(RegClass::El2VirtMem),
              "EL2 Virtual Memory Regs");
}

TEST(ArchModes, GuestModeClassification)
{
    EXPECT_TRUE(isGuestMode(CpuMode::El1));
    EXPECT_TRUE(isGuestMode(CpuMode::KernelNonRoot));
    EXPECT_FALSE(isGuestMode(CpuMode::El2));
    EXPECT_FALSE(isGuestMode(CpuMode::KernelRoot));
    EXPECT_TRUE(modeBelongsTo(CpuMode::El2, Arch::Arm));
    EXPECT_FALSE(modeBelongsTo(CpuMode::El2, Arch::X86));
}
