/**
 * @file
 * Tests for the two paravirtual I/O transports the paper contrasts:
 * virtio rings with zero-copy host access (KVM), and Xen PV rings
 * with grant-mediated isolation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "hv/grant_table.hh"
#include "hv/virtio.hh"
#include "hv/xen_pv.hh"
#include "hw/machine.hh"

using namespace virtsim;

namespace {

struct IoFixture : public ::testing::Test
{
    EventQueue eq;
    Machine m{eq, MachineConfig::hpMoonshotM400()};
    Vm guest{1, "vm0", VmKind::Guest, 4, {0, 1, 2, 3}};
};

} // namespace

TEST_F(IoFixture, VirtioRoundTrip)
{
    VirtioQueue q(m, guest, 4);
    VirtioDesc d;
    d.buf = m.memory().alloc("vm0", 2048);
    EXPECT_GT(q.guestPost(d), 0u);
    EXPECT_EQ(q.availDepth(), 1u);

    bool ok = false;
    VirtioDesc popped;
    EXPECT_GT(q.hostPop(popped, ok), 0u);
    ASSERT_TRUE(ok);
    EXPECT_EQ(popped.buf, d.buf);

    q.hostPushUsed(popped);
    VirtioDesc used;
    q.guestPopUsed(used, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(used.buf, d.buf);
}

TEST_F(IoFixture, VirtioEmptyPopsFail)
{
    VirtioQueue q(m, guest);
    bool ok = true;
    VirtioDesc d;
    EXPECT_EQ(q.hostPop(d, ok), 0u);
    EXPECT_FALSE(ok);
    ok = true;
    EXPECT_EQ(q.guestPopUsed(d, ok), 0u);
    EXPECT_FALSE(ok);
}

TEST_F(IoFixture, VirtioRejectsForeignBuffers)
{
    // The guest can only post its own memory; the reverse property
    // (the host reading guest buffers) needs no grant — that IS the
    // zero-copy asymmetry.
    VirtioQueue q(m, guest);
    VirtioDesc d;
    d.buf = m.memory().alloc("host", 2048);
    EXPECT_DEATH(q.guestPost(d), "does not own");
}

TEST_F(IoFixture, VirtioOverflowPanics)
{
    VirtioQueue q(m, guest, 1);
    VirtioDesc d;
    q.guestPost(d);
    EXPECT_TRUE(q.availFull());
    EXPECT_DEATH(q.guestPost(d), "overflow");
}

TEST_F(IoFixture, GrantLifecycle)
{
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    const GrantRef ref = gt.grant(buf, false);
    EXPECT_EQ(gt.activeGrants(), 1u);
    EXPECT_FALSE(gt.isMapped(ref));

    EXPECT_GT(gt.map(ref), 0u);
    EXPECT_TRUE(gt.isMapped(ref));
    EXPECT_GT(gt.unmap(ref), 0u);
    EXPECT_FALSE(gt.isMapped(ref));
    gt.end(ref);
    EXPECT_EQ(gt.activeGrants(), 0u);
}

TEST_F(IoFixture, LongLivedGrantsKeepTheirRefsAsTheTableSlides)
{
    // netfront's shape: long-lived rx grants, then many short-lived
    // tx grants that each end before the next. Refs keep counting up
    // by one, the long-lived grants stay usable after the short-lived
    // ones have slid the table's window far past them, and an ended
    // ref is unknown whether it ended in the window or after moving
    // out of it.
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    std::vector<GrantRef> rx;
    for (int i = 0; i < 100; ++i)
        rx.push_back(gt.grant(buf, false));
    GrantRef last = rx.back();
    for (int i = 0; i < 5000; ++i) {
        const GrantRef tx = gt.grant(buf, true);
        EXPECT_EQ(tx, last + 1);
        last = tx;
        gt.copy(tx, 64);
        gt.end(tx);
    }
    EXPECT_EQ(gt.activeGrants(), rx.size());
    for (std::size_t i = 0; i < rx.size(); ++i) {
        EXPECT_EQ(rx[i], static_cast<GrantRef>(i) + 1);
        gt.map(rx[i]);
        EXPECT_TRUE(gt.isMapped(rx[i]));
        gt.unmap(rx[i]);
        if (i % 2 == 0)
            gt.end(rx[i]);
    }
    EXPECT_EQ(gt.activeGrants(), rx.size() / 2);
    EXPECT_DEATH(gt.end(rx[0]), "unknown grant");
    EXPECT_DEATH(gt.end(last), "unknown grant");
    EXPECT_FALSE(gt.isMapped(rx[0]));
    gt.copy(rx[1], 1);
}

TEST_F(IoFixture, GrantCopyPaysOver3usEvenForOneByte)
{
    // Table V analysis: "Each data copy incurs more than 3 us of
    // additional latency ... even though only a single byte of data
    // needs to be copied."
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    const GrantRef ref = gt.grant(buf, true);
    const Cycles one_byte = gt.copy(ref, 1);
    EXPECT_GT(m.freq().us(one_byte), 3.0);
}

TEST_F(IoFixture, GrantUnmapIncludesTlbMaintenance)
{
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    const GrantRef ref = gt.grant(buf, false);
    gt.map(ref);
    const Cycles unmap = gt.unmap(ref);
    EXPECT_GE(unmap, gt.grantUnmapFixedCost() +
                         m.costs().tlbInvalidateBroadcast);
    EXPECT_EQ(m.counters().value(internTap("mmu.broadcast_invalidate")), 1u);
}

TEST_F(IoFixture, GrantRejectsForeignBuffer)
{
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("dom0", 4096);
    EXPECT_DEATH(gt.grant(buf, false), "does not own");
}

TEST_F(IoFixture, GrantDeathOnMisuse)
{
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    const GrantRef ref = gt.grant(buf, false);
    EXPECT_DEATH(gt.unmap(ref), "unmapped");
    gt.map(ref);
    EXPECT_DEATH(gt.map(ref), "double map");
    EXPECT_DEATH(gt.end(ref), "still mapped");
}

TEST_F(IoFixture, PvRingRoundTripWithResponses)
{
    XenPvRing ring(m, 8);
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 4096);
    PvRequest req;
    req.gref = gt.grant(buf, true);
    req.pkt.bytes = 1500;

    EXPECT_GT(ring.frontPost(req), 0u);
    bool ok = false;
    PvRequest got;
    EXPECT_GT(ring.backPop(got, ok), 0u);
    ASSERT_TRUE(ok);
    EXPECT_EQ(got.gref, req.gref);

    ring.backRespond(got);
    PvRequest resp;
    ring.frontPopResponse(resp, ok);
    ASSERT_TRUE(ok);
    EXPECT_EQ(ring.requestDepth(), 0u);
    EXPECT_EQ(ring.responseDepth(), 0u);
}

TEST_F(IoFixture, EventChannelPendingSemantics)
{
    EventChannel ec(m);
    const int port = ec.allocate();
    EXPECT_FALSE(ec.pending(port));
    EXPECT_GT(ec.notify(port), 0u);
    EXPECT_TRUE(ec.pending(port));
    EXPECT_TRUE(ec.consume(port));
    EXPECT_FALSE(ec.consume(port)); // already consumed
}

/** Property: grant copy cost = fixed + linear-in-KiB memcpy. */
class GrantCopyCostTest : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(GrantCopyCostTest, FixedPlusLinear)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    Vm guest(1, "vm0", VmKind::Guest, 1, {0});
    GrantTable gt(m, guest);
    const BufferId buf = m.memory().alloc("vm0", 65536);
    const GrantRef ref = gt.grant(buf, true);
    const std::uint32_t bytes = GetParam();
    const std::uint32_t kib = (bytes + 1023) / 1024;
    EXPECT_EQ(gt.copy(ref, bytes),
              gt.grantCopyFixedCost() +
                  (kib ? kib : 1) * m.costs().copyPerKb);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GrantCopyCostTest,
                         ::testing::Values(1u, 1024u, 1500u, 4096u,
                                           65536u));
