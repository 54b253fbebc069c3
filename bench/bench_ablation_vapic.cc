/**
 * @file
 * The paper's vAPIC remark, quantified: "More recently, vAPIC support
 * has been added to x86 with similar functionality to avoid the need
 * to trap to the hypervisor so that newer x86 hardware with vAPIC
 * support should perform more comparably to ARM" (Section IV).
 *
 * This bench runs the interrupt-heavy rows of Table II and the
 * interrupt-bound Memcached workload on x86 with and without vAPIC,
 * next to the ARM fast path.
 */

#include <iostream>

#include "core/appbench.hh"
#include "core/microbench.hh"
#include "core/report.hh"
#include "core/workloads/memcached.hh"

using namespace virtsim;

namespace {

double
micro(SutKind kind, bool vapic, MicroOp op)
{
    TestbedConfig tc;
    tc.kind = kind;
    tc.vApic = vapic;
    Testbed tb(tc);
    MicrobenchSuite suite(tb);
    return suite.run(op, 20).cycles.mean();
}

double
memcachedOverhead(SutKind kind, bool vapic)
{
    MemcachedWorkload mem;
    AppBenchOptions opt;
    opt.kinds = {kind};
    // vApic is a testbed knob; runAppBenchRow builds testbeds from
    // options, so thread it through a one-off row run.
    AppBenchRow row;
    TestbedConfig nat;
    nat.kind = SutKind::NativeX86;
    Testbed nat_tb(nat);
    const double native = mem.run(nat_tb);
    TestbedConfig tc;
    tc.kind = kind;
    tc.vApic = vapic;
    Testbed tb(tc);
    return native / mem.run(tb);
}

} // namespace

int
main()
{
    std::cout << "Ablation: x86 vAPIC (Section IV discussion)\n\n";

    TextTable t({"Virtual IRQ Completion (cycles)", "value"});
    const double x86_plain =
        micro(SutKind::KvmX86, false, MicroOp::VirtualIrqCompletion);
    const double x86_vapic =
        micro(SutKind::KvmX86, true, MicroOp::VirtualIrqCompletion);
    const double arm =
        micro(SutKind::KvmArm, false, MicroOp::VirtualIrqCompletion);
    t.addRow({"KVM x86, testbed hardware (EOI traps)",
              formatCycles(x86_plain)});
    t.addRow({"KVM x86 with vAPIC", formatCycles(x86_vapic)});
    t.addRow({"KVM ARM (GIC virtual interface)", formatCycles(arm)});
    std::cout << t.render() << "\n";

    const double o_plain = memcachedOverhead(SutKind::KvmX86, false);
    const double o_vapic = memcachedOverhead(SutKind::KvmX86, true);
    TextTable t2({"Memcached overhead (x86)", "value"});
    t2.addRow({"KVM x86, no vAPIC", formatFixed(o_plain, 2)});
    t2.addRow({"KVM x86, vAPIC", formatFixed(o_vapic, 2)});
    std::cout << t2.render() << "\n";

    const bool comparable_to_arm = x86_vapic < 3 * arm;
    const bool removes_traps = x86_plain > 10 * x86_vapic;
    const bool helps_apps = o_vapic <= o_plain + 1e-9;
    std::cout << "Key findings:\n"
              << "  vAPIC removes the EOI trap (>10x cheaper "
                 "completion): "
              << (removes_traps ? "yes" : "NO") << "\n"
              << "  ...bringing x86 within range of ARM's 71-cycle "
                 "fast path: "
              << (comparable_to_arm ? "yes" : "NO") << "\n"
              << "  Interrupt-bound application overhead does not "
                 "get worse: "
              << (helps_apps ? "yes" : "NO") << "\n";
    return (comparable_to_arm && removes_traps && helps_apps) ? 0 : 1;
}
