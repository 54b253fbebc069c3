/**
 * @file
 * E6 ablation (Section V): Xen grant copies vs zero-copy grant
 * mapping.
 *
 * Paper: zero copy was abandoned on Xen x86 because unmapping a
 * grant requires signalling all physical CPUs to invalidate TLBs,
 * "which proved more expensive than simply copying the data".
 * "Whether zero copy support for Xen can be implemented efficiently
 * on ARM, which has hardware support for broadcast TLB invalidate
 * requests across multiple PCPUs, remains to be investigated." —
 * this bench investigates it.
 */

#include <iostream>
#include <utility>
#include <vector>

#include "core/netperf.hh"
#include "core/report.hh"
#include "sim/sweep.hh"

using namespace virtsim;

int
main()
{
    std::cout << "Ablation E6: Xen grant copies vs zero-copy grant "
                 "mapping (Section V)\n"
              << "TCP_STREAM receive throughput into the DomU.\n\n";

    // Six independent testbeds; measured concurrently, committed in
    // input order.
    const std::vector<std::pair<SutKind, bool>> cells = {
        {SutKind::Native, false},  {SutKind::NativeX86, false},
        {SutKind::XenArm, false},  {SutKind::XenArm, true},
        {SutKind::XenX86, false},  {SutKind::XenX86, true},
    };
    const auto gbps =
        parallelSweep(cells, [](const std::pair<SutKind, bool> &c) {
            TestbedConfig tc;
            tc.kind = c.first;
            tc.zeroCopyGrants = c.second;
            Testbed tb(tc);
            return runNetperfStream(tb).gbps;
        });
    const double native_arm = gbps[0];
    const double native_x86 = gbps[1];
    const double xen_arm_copy = gbps[2];
    const double xen_arm_zc = gbps[3];
    const double xen_x86_copy = gbps[4];
    const double xen_x86_zc = gbps[5];

    TextTable table({"Configuration", "Gbps", "normalized overhead"});
    table.addRow({"Native ARM", formatFixed(native_arm, 2), "1.00"});
    table.addRow({"Xen ARM, grant copy (shipping)",
                  formatFixed(xen_arm_copy, 2),
                  formatFixed(native_arm / xen_arm_copy, 2)});
    table.addRow({"Xen ARM, zero-copy map/unmap (hw broadcast TLBI)",
                  formatFixed(xen_arm_zc, 2),
                  formatFixed(native_arm / xen_arm_zc, 2)});
    table.addRow({"Native x86", formatFixed(native_x86, 2), "1.00"});
    table.addRow({"Xen x86, grant copy (shipping)",
                  formatFixed(xen_x86_copy, 2),
                  formatFixed(native_x86 / xen_x86_copy, 2)});
    table.addRow({"Xen x86, zero-copy map/unmap (IPI shootdown)",
                  formatFixed(xen_x86_zc, 2),
                  formatFixed(native_x86 / xen_x86_zc, 2)});
    std::cout << table.render() << "\n";

    // x86: zero copy must NOT beat copying (the documented reason it
    // was abandoned). ARM: hardware broadcast invalidation should
    // make mapping at least competitive with copying.
    const bool x86_zc_loses = xen_x86_zc <= xen_x86_copy * 1.02;
    const bool arm_zc_competitive = xen_arm_zc >= xen_arm_copy * 0.95;

    std::cout << "Key findings reproduced:\n"
              << "  Zero copy loses (or fails to win) on x86 due to "
                 "IPI shootdowns: "
              << (x86_zc_loses ? "yes" : "NO") << "\n"
              << "  ARM broadcast TLBI makes zero copy competitive "
                 "(open question answered): "
              << (arm_zc_competitive ? "yes" : "NO") << "\n";
    return (x86_zc_loses && arm_zc_competitive) ? 0 : 1;
}
