/**
 * @file
 * E8 ablation (Section V): the Linux 4.0-rc1 TSO-autosizing
 * regression behind the Xen TCP_MAERTS result.
 *
 * Paper: "the Xen performance problem is due to a regression in
 * Linux introduced in Linux v4.0-rc1 in an attempt to fight
 * bufferbloat ... We confirmed that using an earlier version of
 * Linux or tuning the TCP configuration in the guest using sysfs
 * significantly reduced the overhead of Xen on the TCP MAERTS
 * benchmark."
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
    std::cout << "Ablation E8: TSO-autosizing regression on Xen "
                 "TCP_MAERTS (Section V)\n\n";

    const std::vector<std::pair<SutKind, bool>> cells = {
        {SutKind::Native, true},
        {SutKind::XenArm, true},
        {SutKind::XenArm, false},
        {SutKind::KvmArm, true},
    };
    const auto gbps =
        parallelSweep(cells, [](const std::pair<SutKind, bool> &c) {
            TestbedConfig tc;
            tc.kind = c.first;
            tc.tsoRegression = c.second;
            Testbed tb(tc);
            return runNetperfMaerts(tb).gbps;
        });
    const double native = gbps[0];
    const double xen_regressed = gbps[1];
    const double xen_fixed = gbps[2];
    const double kvm = gbps[3];

    TextTable table({"Configuration", "Gbps", "normalized overhead"});
    table.addRow({"Native ARM", formatFixed(native, 2), "1.00"});
    table.addRow({"KVM ARM (regression active, unaffected path)",
                  formatFixed(kvm, 2),
                  formatFixed(native / kvm, 2)});
    table.addRow({"Xen ARM, Linux 4.0-rc4 (regression active)",
                  formatFixed(xen_regressed, 2),
                  formatFixed(native / xen_regressed, 2)});
    table.addRow({"Xen ARM, tuned/older TCP (regression off)",
                  formatFixed(xen_fixed, 2),
                  formatFixed(native / xen_fixed, 2)});
    std::cout << table.render() << "\n";

    const bool xen_bad_with_regression =
        native / xen_regressed > 1.7;
    const bool tuning_recovers =
        xen_fixed > 1.5 * xen_regressed;
    const bool kvm_unaffected = native / kvm < 1.15;

    std::cout << "Key findings reproduced:\n"
              << "  Xen MAERTS shows substantially higher overhead "
                 "under the regression: "
              << (xen_bad_with_regression ? "yes" : "NO") << "\n"
              << "  Tuning the guest TCP configuration recovers most "
                 "of it: "
              << (tuning_recovers ? "yes" : "NO") << "\n"
              << "  KVM's transmit path is unaffected: "
              << (kvm_unaffected ? "yes" : "NO") << "\n";
    return (xen_bad_with_regression && tuning_recovers &&
            kvm_unaffected)
               ? 0
               : 1;
}
