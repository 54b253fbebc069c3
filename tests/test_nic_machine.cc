/**
 * @file
 * Tests for the NIC, wire, memory and machine composition.
 */

#include <gtest/gtest.h>

#include "hw/machine.hh"
#include "hw/wire.hh"
#include "os/kernel.hh"

using namespace virtsim;

namespace {

struct NicFixture : public ::testing::Test
{
    EventQueue eq;
    MachineConfig cfg = MachineConfig::hpMoonshotM400();
    Machine m{eq, cfg};
};

Packet
mkPacket(std::uint64_t flow, std::uint32_t bytes)
{
    Packet p;
    p.flow = flow;
    p.bytes = bytes;
    return p;
}

} // namespace

TEST_F(NicFixture, RxRaisesRoutedIrqAfterDma)
{
    PcpuId cpu = -1;
    Cycles when = 0;
    m.irqChip().routeExternal(spiNicIrq, 3);
    m.irqChip().setPhysIrqHandler([&](Cycles t, PcpuId c, IrqId i) {
        EXPECT_EQ(i, spiNicIrq);
        cpu = c;
        when = t;
    });
    m.nic().receiveFromWire(1000, mkPacket(1, 1500));
    eq.run();
    EXPECT_EQ(cpu, 3);
    EXPECT_EQ(when, 1000 + cfg.nicParams.rxDmaLatency);
    Packet got;
    EXPECT_TRUE(m.nic().popRx(got));
    EXPECT_EQ(got.bytes, 1500u);
    EXPECT_FALSE(m.nic().popRx(got));
}

TEST_F(NicFixture, CoalescingSuppressesBurstIrqs)
{
    int irqs = 0;
    m.irqChip().setPhysIrqHandler(
        [&](Cycles, PcpuId, IrqId) { ++irqs; });
    // A burst well inside one coalescing window: one immediate
    // interrupt plus one end-of-window flush (the queue is never
    // drained by this test's handler).
    for (int i = 0; i < 10; ++i)
        m.nic().receiveFromWire(1000 + static_cast<Cycles>(i) * 100,
                                mkPacket(1, 1500));
    eq.run();
    EXPECT_EQ(irqs, 2);
    EXPECT_EQ(m.nic().rxQueueDepth(), 10u);
    EXPECT_EQ(m.counters().value(internTap("nic.rx_coalesced")), 9u);
}

TEST_F(NicFixture, RxQueueCapDrops)
{
    m.irqChip().setPhysIrqHandler([](Cycles, PcpuId, IrqId) {});
    for (std::size_t i = 0; i < cfg.nicParams.rxQueueCap + 50; ++i)
        m.nic().receiveFromWire(static_cast<Cycles>(i), mkPacket(1, 60));
    eq.run();
    EXPECT_EQ(m.counters().value(internTap("nic.rx_dropped")), 50u);
}

TEST_F(NicFixture, TxSerializesAtLineRate)
{
    std::vector<Cycles> tx_times;
    m.nic().onWireTx = [&](Cycles t, const Packet &) {
        tx_times.push_back(t);
    };
    // Two full-size frames posted at the same instant must leave the
    // wire one serialization delay apart.
    m.nic().transmit(0, mkPacket(1, 1500));
    m.nic().transmit(0, mkPacket(1, 1500));
    eq.run();
    ASSERT_EQ(tx_times.size(), 2u);
    const Cycles ser = m.nic().serializationDelay(1500);
    EXPECT_EQ(tx_times[1] - tx_times[0], ser);
    // 1500 B at 10 Gbps = 1.2 us = 2880 cycles at 2.4 GHz.
    EXPECT_EQ(ser, 2880u);
}

TEST(MachineCountersDeath, LateTapAfterPrepareForParallelDies)
{
    // Machine::prepareForParallel() is the freeze a sharded fleet
    // applies before its lanes run: the component constructors have
    // interned every counter tap by then, so a tap interned later has
    // no slot and its first bump must fail, not grow the array under
    // concurrent lanes.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    EXPECT_DEATH(
        {
            EventQueue eq;
            Machine m(eq, MachineConfig::hpMoonshotM400());
            m.prepareForParallel(m.numCpus());
            m.nic().receiveFromWire(0, mkPacket(1, 60)); // interned
            m.counters()
                .counter(internTap("nic_machine.test.never.warmed"))
                .inc();
        },
        "machine.counters.*after prepareForParallel");
}

TEST(Wire, DeliversBothDirectionsWithLatency)
{
    EventQueue eq;
    MetricsDomain counters{"test"};
    Wire wire(eq, counters, 1000);
    Cycles server_at = 0, client_at = 0;
    wire.setServerEndpoint(
        [&](Cycles t, const Packet &) { server_at = t; });
    wire.setClientEndpoint(
        [&](Cycles t, const Packet &) { client_at = t; });
    Packet p;
    wire.sendToServer(100, p);
    wire.sendToClient(200, p);
    eq.run();
    EXPECT_EQ(server_at, 1100u);
    EXPECT_EQ(client_at, 1200u);
}

TEST(MainMemory, OwnershipAndCopyCosts)
{
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    MainMemory mem(cm, counters);
    const BufferId b = mem.alloc("vm0", 4096);
    EXPECT_TRUE(mem.valid(b));
    EXPECT_EQ(mem.owner(b), "vm0");
    EXPECT_EQ(mem.size(b), 4096u);
    EXPECT_EQ(mem.copyCost(4096), 4 * cm.copyPerKb);
    EXPECT_EQ(mem.copyCost(1), cm.copyPerKb); // setup floor
    mem.free(b);
    EXPECT_FALSE(mem.valid(b));
    EXPECT_EQ(counters.value(internTap("mem.copies")), 2u);
}

TEST(MainMemoryDeath, DoubleFreePanics)
{
    CostModel cm = CostModel::armAtlas();
    MetricsDomain counters{"test"};
    MainMemory mem(cm, counters);
    const BufferId b = mem.alloc("host", 64);
    mem.free(b);
    EXPECT_DEATH(mem.free(b), "double free");
}

TEST(Machine, TestbedFactoriesMatchSectionIII)
{
    EventQueue eq;
    Machine arm(eq, MachineConfig::hpMoonshotM400());
    EXPECT_EQ(arm.arch(), Arch::Arm);
    EXPECT_EQ(arm.numCpus(), 8);
    EXPECT_EQ(arm.config().ramGib, 64);
    EXPECT_DOUBLE_EQ(arm.freq().ghz(), 2.4);
    (void)arm.gic(); // must not panic

    EventQueue eq2;
    Machine x86(eq2, MachineConfig::dellR320());
    EXPECT_EQ(x86.arch(), Arch::X86);
    EXPECT_EQ(x86.numCpus(), 8); // hyperthreading disabled
    EXPECT_EQ(x86.config().ramGib, 16);
    (void)x86.apic();
}

TEST(MachineDeath, WrongIrqChipAccessorPanics)
{
    EventQueue eq;
    Machine arm(eq, MachineConfig::hpMoonshotM400());
    EXPECT_DEATH((void)arm.apic(), "apic\\(\\) on non-x86");
}

TEST(KernelHelpers, FramesForAndTsoSegments)
{
    EXPECT_EQ(framesFor(0), 1);
    EXPECT_EQ(framesFor(1), 1);
    EXPECT_EQ(framesFor(1500), 1);
    EXPECT_EQ(framesFor(1501), 2);
    EXPECT_EQ(framesFor(41 * 1024), 28);

    const auto segs = tsoSegments(5000, 2048);
    ASSERT_EQ(segs.size(), 3u);
    EXPECT_EQ(segs[0], 2048u);
    EXPECT_EQ(segs[2], 904u);
    EXPECT_EQ(tsoSegments(0, 2048).size(), 1u);
}

TEST(KernelHelpers, GroAggregates)
{
    EXPECT_EQ(groAggregates(21, 21), 1);
    EXPECT_EQ(groAggregates(22, 21), 2);
    EXPECT_EQ(groAggregates(1, 21), 1);
}

TEST(KernelHelpers, GroDrainMergesSameFlowDataOnly)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    m.irqChip().setPhysIrqHandler([](Cycles, PcpuId, IrqId) {});
    // Three same-flow data frames, one tiny ack, one other-flow frame.
    for (int i = 0; i < 3; ++i)
        m.nic().receiveFromWire(0, mkPacket(7, 1500));
    m.nic().receiveFromWire(0, mkPacket(7, 60));
    m.nic().receiveFromWire(0, mkPacket(8, 1500));
    eq.run();
    const auto aggs = groDrain(m.nic(), 21);
    ASSERT_EQ(aggs.size(), 3u);
    EXPECT_EQ(aggs[0].bytes, 4500u); // merged data
    EXPECT_EQ(aggs[1].bytes, 60u);   // ack passes through
    EXPECT_EQ(aggs[2].flow, 8u);
}

/** Property: NIC serialization is linear in bytes at 10 Gbps. */
class NicSerializationTest
    : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(NicSerializationTest, LinearInBytes)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    const std::uint32_t bytes = GetParam();
    const double expected_ns = bytes * 8.0 / 10.0;
    EXPECT_EQ(m.nic().serializationDelay(bytes),
              m.freq().cyclesFromNs(expected_ns));
}

INSTANTIATE_TEST_SUITE_P(Sizes, NicSerializationTest,
                         ::testing::Values(60u, 512u, 1500u, 4096u,
                                           9000u, 65536u));
