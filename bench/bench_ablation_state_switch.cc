/**
 * @file
 * E9 ablation (Sections II/VI): how transition cost scales with the
 * amount of state that must move, across the three architectural
 * state-switching designs the paper contrasts —
 *
 *  - ARM software-managed switching (flexible: pay only for what you
 *    switch; split-mode KVM pays for everything, Xen for almost
 *    nothing),
 *  - x86 hardware VMCS switching (fixed cost, regardless of need),
 *  - ARMv8.1 VHE (extra hardware register state: nothing to move).
 *
 * Also isolates the "what if the VGIC were cheap to read?" question:
 * X-Gene's slow interrupt-controller access is a large part of the
 * split-mode penalty.
 */

#include <iostream>

#include "core/microbench.hh"
#include "core/report.hh"
#include "core/testbed.hh"
#include "hw/cost_model.hh"

using namespace virtsim;

namespace {

double
hypercallCycles(SutKind kind)
{
    TestbedConfig tc;
    tc.kind = kind;
    Testbed tb(tc);
    MicrobenchSuite suite(tb);
    return suite.run(MicroOp::Hypercall, 20).cycles.mean();
}

/** KVM ARM hypercall with a hypothetical fast (core-speed) VGIC. */
double
hypercallCyclesFastVgic()
{
    TestbedConfig tc;
    tc.kind = SutKind::KvmArm;
    Testbed tb(tc);
    // What if reading back VGIC state cost no more than system
    // registers? Patch the machine's cost table before measuring.
    const_cast<CostModel &>(tb.machine().costs())
        .cost(RegClass::Vgic) = {230, 181};
    MicrobenchSuite suite(tb);
    return suite.run(MicroOp::Hypercall, 20).cycles.mean();
}

} // namespace

int
main()
{
    std::cout << "Ablation E9: state-switching architecture vs "
                 "transition cost\n\n";

    const double xen_arm = hypercallCycles(SutKind::XenArm);
    const double kvm_arm = hypercallCycles(SutKind::KvmArm);
    const double kvm_x86 = hypercallCycles(SutKind::KvmX86);
    const double xen_x86 = hypercallCycles(SutKind::XenX86);
    const double vhe = hypercallCycles(SutKind::KvmArmVhe);
    const double kvm_fast_vgic = hypercallCyclesFastVgic();

    TextTable table({"Design point", "Hypercall cycles",
                     "state switched"});
    table.addRow({"ARM sw-managed, minimal (Xen ARM)",
                  formatCycles(xen_arm), "GP regs only"});
    table.addRow({"ARM sw-managed, full (split-mode KVM ARM)",
                  formatCycles(kvm_arm), "all EL1+VGIC+timer state"});
    table.addRow({"ARM sw-managed, full, core-speed VGIC "
                  "(hypothetical)",
                  formatCycles(kvm_fast_vgic),
                  "all EL1 state, cheap VGIC"});
    table.addRow({"x86 hw VMCS (KVM x86)", formatCycles(kvm_x86),
                  "fixed hardware block"});
    table.addRow({"x86 hw VMCS (Xen x86)", formatCycles(xen_x86),
                  "fixed hardware block"});
    table.addRow({"ARMv8.1 VHE (KVM ARM + E2H)", formatCycles(vhe),
                  "GP regs only (extra hw state)"});
    std::cout << table.render() << "\n";

    const bool flexibility_both_ways =
        xen_arm < 0.5 * kvm_x86 && kvm_arm > 2.0 * kvm_x86;
    const bool vgic_large_share =
        kvm_fast_vgic < kvm_arm - 2500;
    const bool vhe_closes_gap = vhe < 2.0 * xen_arm;

    std::cout << "Key findings reproduced:\n"
              << "  ARM software switching can be much faster AND "
                 "much slower than x86: "
              << (flexibility_both_ways ? "yes" : "NO") << "\n"
              << "  Slow VGIC access is a major part of the "
                 "split-mode penalty: "
              << (vgic_large_share ? "yes" : "NO") << "\n"
              << "  VHE brings Type 2 transitions near the Type 1 "
                 "fast path: "
              << (vhe_closes_gap ? "yes" : "NO") << "\n";
    return (flexibility_both_ways && vgic_large_share &&
            vhe_closes_gap)
               ? 0
               : 1;
}
