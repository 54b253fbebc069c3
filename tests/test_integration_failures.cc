/**
 * @file
 * Integration and failure-injection tests: overload, ring
 * exhaustion, drops + recovery, idle-domain churn, and end-to-end
 * conservation under stress — the conditions the application
 * benchmarks create implicitly, exercised explicitly.
 */

#include <gtest/gtest.h>

#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "core/workloads/workload.hh"

using namespace virtsim;

TEST(FailureInjection, XenRxRingExhaustionDropsButSurvives)
{
    // Flood far faster than netback drains with a tiny burst spacing:
    // drops must be counted, and the system must still deliver a
    // sustained stream afterwards.
    Testbed tb(TestbedConfig{.kind = SutKind::XenArm});
    std::uint64_t delivered = 0;
    tb.onVmRx = [&](Cycles, const Packet &pkt) {
        delivered += framesFor(pkt.bytes);
    };
    // Burst: 600 frames back to back (over ring + backlog capacity).
    for (int i = 0; i < 600; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        tb.clientSend(static_cast<Cycles>(i) * 100, p);
    }
    tb.run();
    const std::uint64_t dropped =
        tb.machine().stats().counterValue("netback.rx_no_request") +
        tb.machine().stats().counterValue(
            "netback.rx_backlog_dropped") +
        tb.machine().stats().counterValue("nic.rx_dropped");
    EXPECT_EQ(delivered + dropped, 600u);
    EXPECT_GT(delivered, 0u);

    // After the burst the path still works.
    delivered = 0;
    Packet late;
    late.flow = 2;
    late.bytes = 1500;
    tb.clientSend(tb.queue().now() + 10000000, late);
    tb.run();
    EXPECT_EQ(delivered, 1u);
}

TEST(FailureInjection, KvmTxBackpressureDrainsEventually)
{
    // Post more frames than the virtio tx ring holds: the driver
    // backlog must absorb and drain them all.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    Vcpu &v = tb.guest()->vcpu(0);
    int completions = 0;
    const int n = 400; // ring capacity is 256
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        p.seq = static_cast<std::uint64_t>(i + 1);
        tb.hypervisor()->guestTransmit(0, v, p,
                                       [&](Cycles) { ++completions; });
    }
    tb.run();
    EXPECT_EQ(completions, n);
    EXPECT_GT(tb.machine().stats().counterValue(
                  "kvm.tx_backpressure"),
              0u);
    EXPECT_EQ(tb.machine().stats().counterValue("nic.tx_packets"),
              static_cast<std::uint64_t>(n));
}

TEST(FailureInjection, XenTxBackpressureDrainsEventually)
{
    Testbed tb(TestbedConfig{.kind = SutKind::XenArm});
    Vcpu &v = tb.guest()->vcpu(0);
    int completions = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
        Packet p;
        p.flow = 1;
        p.bytes = 1500;
        p.seq = static_cast<std::uint64_t>(i + 1);
        tb.hypervisor()->guestTransmit(0, v, p,
                                       [&](Cycles) { ++completions; });
    }
    tb.run();
    EXPECT_EQ(completions, n);
    // Grant bookkeeping balanced: everything granted was released.
    auto *xen = dynamic_cast<XenHypervisor *>(tb.hypervisor());
    ASSERT_NE(xen, nullptr);
    // 256 rx prefill grants remain; all tx grants were ended.
    EXPECT_EQ(xen->netback()->grantTable().activeGrants(), 256u);
}

TEST(Integration, StreamConservationUnderOverload)
{
    // Frames in == frames delivered + frames dropped, even when the
    // backend is the bottleneck and drops are heavy.
    Testbed tb(TestbedConfig{.kind = SutKind::XenArm});
    NetperfStreamConfig cfg;
    cfg.windowSeconds = 0.02;
    const NetperfStreamResult r = runNetperfStream(tb, cfg);
    const std::uint64_t sent =
        tb.machine().stats().counterValue("wire.to_server");
    EXPECT_GT(r.framesDropped, 0u); // genuinely overloaded
    // Delivered bytes are whole frames of the same size, and the
    // accounting never invents frames (late deliveries past the
    // measurement window are intentionally uncounted).
    EXPECT_EQ(r.bytesDelivered % 1500, 0u);
    EXPECT_LE(r.bytesDelivered / 1500 + r.framesDropped, sent);
}

TEST(Integration, Dom0IdleChurnIsBoundedUnderLoad)
{
    // Under a steady stream, Dom0 must stay resident instead of
    // bouncing through the idle domain on every packet.
    Testbed tb(TestbedConfig{.kind = SutKind::XenArm});
    NetperfStreamConfig cfg;
    cfg.windowSeconds = 0.004;
    (void)runNetperfStream(tb, cfg);
    const std::uint64_t switches = tb.machine().stats().counterValue(
        "xen.idle_domain_switches");
    const std::uint64_t frames =
        tb.machine().stats().counterValue("nic.rx_packets");
    EXPECT_LT(switches * 20, frames);
}

TEST(Integration, RrTimestampsAreCausallyOrdered)
{
    // The Table V invariant the analysis depends on, for every
    // transaction, on every ARM configuration.
    for (SutKind k : {SutKind::Native, SutKind::KvmArm,
                      SutKind::XenArm, SutKind::KvmArmVhe}) {
        Testbed tb(TestbedConfig{.kind = k});
        NetperfRrConfig cfg;
        cfg.transactions = 30;
        const NetperfRrResult r = runNetperfRr(tb, cfg);
        // runNetperfRr asserts per-transaction ordering internally;
        // here check the aggregate identities.
        EXPECT_GT(r.transPerSec, 0.0) << to_string(k);
        EXPECT_NEAR(r.timePerTransUs,
                    r.sendToRecvUs + r.recvToSendUs,
                    r.timePerTransUs * 0.05)
            << to_string(k);
    }
}

TEST(Integration, RequestResponseEngineSurvivesTinyWindows)
{
    // Degenerate configuration: minimal concurrency and window.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    ServerAppParams p;
    p.concurrency = 2;
    p.requestBytes = 300;
    p.responseBytes = 800;
    p.appWorkUs = 5.0;
    p.windowSeconds = 0.002;
    p.clientThinkUs = 5.0;
    const double rate = runRequestResponse(tb, p);
    EXPECT_GT(rate, 0.0);
}

TEST(Integration, VheBeatsSplitModeOnEveryMicrobenchmark)
{
    Testbed split(TestbedConfig{.kind = SutKind::KvmArm});
    Testbed vhe(TestbedConfig{.kind = SutKind::KvmArmVhe});
    MicrobenchSuite s1(split), s2(vhe);
    for (MicroOp op : allMicroOps) {
        const double a = s1.run(op, 5).cycles.mean();
        const double b = s2.run(op, 5).cycles.mean();
        EXPECT_LE(b, a) << to_string(op);
    }
}

TEST(Integration, SeedChangesWorkloadButNotMicrobenchResults)
{
    // Microbenchmarks are deterministic paths (no PRNG); workloads
    // draw jitter from the seed. Both must be reproducible.
    TestbedConfig a;
    a.kind = SutKind::KvmArm;
    a.seed = 1;
    TestbedConfig b = a;
    b.seed = 2;
    Testbed ta(a), tb2(b);
    MicrobenchSuite sa(ta), sb(tb2);
    EXPECT_DOUBLE_EQ(sa.run(MicroOp::Hypercall, 5).cycles.mean(),
                     sb.run(MicroOp::Hypercall, 5).cycles.mean());
}

TEST(Integration, UtilizationNeverExceedsOne)
{
    Testbed tb(TestbedConfig{.kind = SutKind::XenArm});
    NetperfStreamConfig cfg;
    cfg.windowSeconds = 0.003;
    (void)runNetperfStream(tb, cfg);
    // Completion frontier may exceed the last event slightly; measure
    // against each CPU's own frontier.
    for (int c = 0; c < tb.machine().numCpus(); ++c) {
        PhysicalCpu &cpu = tb.machine().cpu(c);
        if (cpu.frontier() == 0)
            continue;
        EXPECT_LE(cpu.busyCycles(), cpu.frontier()) << "cpu " << c;
    }
}
