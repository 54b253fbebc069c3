/**
 * @file
 * Heap-allocation budgets of the hypervisor hot paths.
 *
 * Every Table II operation, every TCP_RR transaction and every Apache
 * request runs through the same hv/hw/os paths: world switches, vIRQ
 * injection, virtio or grant I/O. Those paths move their completion
 * continuations instead of copying them, keep per-packet state in
 * reused storage and build no strings, so once warm each operation
 * allocates only the continuations its callers create. A global
 * operator new counts every allocation of this binary; each budget is
 * a marginal count (a long run minus a short one, over the extra
 * operations), so per-run setup cancels out. A copy of a continuation
 * coming back on any hop, or a per-packet container node, shows up as
 * a budget overrun.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "core/workloads/workload.hh"

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(align);
    // aligned_alloc takes a nonzero multiple of the alignment.
    const std::size_t rounded = size == 0 ? a : (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

std::uint64_t
news()
{
    return g_news.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

using namespace virtsim;

namespace {

/** Allocations per iteration of one Table II operation on a warm
 *  testbed: a 200-iteration run minus a 100-iteration run, over 100. */
double
perIteration(SutKind kind, MicroOp op)
{
    Testbed tb(TestbedConfig{.kind = kind});
    MicrobenchSuite suite(tb);
    suite.run(op, 50); // warm-up: second VM, rings, event arena
    const std::uint64_t a0 = news();
    suite.run(op, 100);
    const std::uint64_t a1 = news();
    suite.run(op, 200);
    const std::uint64_t a2 = news();
    return static_cast<double>((a2 - a1) - (a1 - a0)) / 100.0;
}

/** Allocations of one TCP_RR run of @p transactions on a fresh
 *  testbed (construction excluded). */
std::uint64_t
rrAllocs(SutKind kind, int transactions)
{
    Testbed tb(TestbedConfig{.kind = kind});
    NetperfRrConfig cfg;
    cfg.transactions = transactions;
    const std::uint64_t a0 = news();
    runNetperfRr(tb, cfg);
    return news() - a0;
}

/** The Apache row's server parameters (core/workloads/apache.cc)
 *  with a shorter measurement window. */
ServerAppParams
apacheParams(double window_seconds)
{
    ServerAppParams p;
    p.concurrency = 100;
    p.requestBytes = 180;
    p.responseBytes = 41 * 1024;
    p.appWorkUs = 60.0;
    p.rxSoftirqUs = 2.2;
    p.acksPerResponse = 9;
    p.clientThinkUs = 25.0;
    p.windowSeconds = window_seconds;
    return p;
}

struct AppRun
{
    std::uint64_t allocs = 0;
    std::uint64_t completed = 0;
};

AppRun
apacheRun(SutKind kind, double window_seconds)
{
    Testbed tb(TestbedConfig{.kind = kind});
    const std::uint64_t a0 = news();
    runRequestResponse(tb, apacheParams(window_seconds));
    AppRun r;
    r.allocs = news() - a0;
    r.completed =
        tb.machine().counters().value(internTap("app.completed"));
    return r;
}

struct MicroBudget
{
    SutKind kind;
    MicroOp op;
    /** Allocations per iteration allowed. */
    double budget;
};

/**
 * What each operation allocates once warm. The microbenchmark driver
 * builds one continuation per iteration; the rest are the closures
 * the operation itself has to store: the op envelope around a vIPI
 * or I/O-in continuation and the action queued for a kick IPI (whose
 * queue also takes a node every 16 kicks: the 0.06). Copying the
 * continuation on any hop adds at least one per iteration.
 */
const MicroBudget microBudgets[] = {
    {SutKind::KvmArm, MicroOp::Hypercall, 1.0},
    {SutKind::KvmArm, MicroOp::InterruptControllerTrap, 1.0},
    {SutKind::KvmArm, MicroOp::VirtualIpi, 3.1},
    {SutKind::KvmArm, MicroOp::VirtualIrqCompletion, 1.0},
    {SutKind::KvmArm, MicroOp::VmSwitch, 1.0},
    {SutKind::KvmArm, MicroOp::IoLatencyOut, 1.0},
    {SutKind::KvmArm, MicroOp::IoLatencyIn, 2.0},
    {SutKind::XenArm, MicroOp::Hypercall, 1.0},
    {SutKind::XenArm, MicroOp::InterruptControllerTrap, 1.0},
    {SutKind::XenArm, MicroOp::VirtualIpi, 3.1},
    {SutKind::XenArm, MicroOp::VirtualIrqCompletion, 1.0},
    {SutKind::XenArm, MicroOp::VmSwitch, 1.0},
    {SutKind::XenArm, MicroOp::IoLatencyOut, 2.1},
    {SutKind::XenArm, MicroOp::IoLatencyIn, 3.1},
};

} // namespace

TEST(AllocBudget, TableTwoOperations)
{
    for (const MicroBudget &b : microBudgets) {
        const double got = perIteration(b.kind, b.op);
        std::printf("[alloc] %-8s %-26s %6.2f per iteration (budget "
                    "%.2f)\n",
                    to_string(b.kind).c_str(), to_string(b.op).c_str(),
                    got, b.budget);
        EXPECT_LE(got, b.budget)
            << to_string(b.kind) << " " << to_string(b.op);
    }
}

TEST(AllocBudget, TcpRrTransaction)
{
    // What one transaction has to allocate: the reply's datalink-tx
    // continuation, the guest driver's closure for the request (the
    // backend hands the continuation through without wrapping it)
    // and the kick action that wakes the netserver (Xen also wakes
    // Dom0 for the reply; its grants take no allocation).
    const struct
    {
        SutKind kind;
        double budget;
    } budgets[] = {{SutKind::KvmArm, 2.5}, {SutKind::XenArm, 4.0}};
    for (const auto &b : budgets) {
        const std::uint64_t shortRun = rrAllocs(b.kind, 100);
        const std::uint64_t longRun = rrAllocs(b.kind, 300);
        const double got =
            static_cast<double>(longRun - shortRun) / 200.0;
        std::printf("[alloc] %-8s TCP_RR %6.2f per transaction (budget "
                    "%.2f)\n",
                    to_string(b.kind).c_str(), got, b.budget);
        EXPECT_LE(got, b.budget) << to_string(b.kind);
    }
}

TEST(AllocBudget, ApacheRequest)
{
    // A request is one inbound request frame, a 41 KiB response and
    // nine delayed acks, each inbound frame carried by the guest
    // driver's closure above.
    const struct
    {
        SutKind kind;
        double budget;
    } budgets[] = {{SutKind::KvmArm, 17.0}, {SutKind::XenArm, 17.0}};
    for (const auto &b : budgets) {
        const AppRun shortRun = apacheRun(b.kind, 0.02);
        const AppRun longRun = apacheRun(b.kind, 0.04);
        ASSERT_GT(longRun.completed, shortRun.completed);
        const double got =
            static_cast<double>(longRun.allocs - shortRun.allocs) /
            static_cast<double>(longRun.completed - shortRun.completed);
        std::printf("[alloc] %-8s Apache %6.2f per request (budget "
                    "%.2f)\n",
                    to_string(b.kind).c_str(), got, b.budget);
        EXPECT_LE(got, b.budget) << to_string(b.kind);
    }
}
