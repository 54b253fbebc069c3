#include "core/appbench.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/sweep.hh"

namespace virtsim {

namespace {

TestbedConfig
configFor(SutKind kind, const AppBenchOptions &opt)
{
    TestbedConfig tc;
    tc.kind = kind;
    tc.virqDist = opt.virqDist;
    tc.zeroCopyGrants = opt.zeroCopyGrants;
    tc.tsoRegression = opt.tsoRegression;
    tc.seed = opt.seed;
    return tc;
}

} // namespace

AppBenchRow
runAppBenchRow(Workload &w, const AppBenchOptions &opt)
{
    AppBenchRow row;
    row.workload = w.name();

    bool need_arm = false;
    bool need_x86 = false;
    for (SutKind k : opt.kinds) {
        if (archOf(k) == Arch::Arm)
            need_arm = true;
        else
            need_x86 = true;
    }

    if (need_arm) {
        Testbed tb(configFor(SutKind::Native, opt));
        row.nativeScoreArm = w.run(tb);
        VIRTSIM_ASSERT(row.nativeScoreArm > 0,
                       w.name(), ": zero native ARM score");
    }
    if (need_x86) {
        Testbed tb(configFor(SutKind::NativeX86, opt));
        row.nativeScoreX86 = w.run(tb);
        VIRTSIM_ASSERT(row.nativeScoreX86 > 0,
                       w.name(), ": zero native x86 score");
    }

    for (SutKind k : opt.kinds) {
        AppBenchCell cell;
        cell.kind = k;
        if (k == SutKind::XenX86 && opt.dom0MellanoxBug &&
            w.triggersDom0Bug()) {
            // The paper: "the Apache benchmark could not run on Xen
            // x86 because it caused a kernel panic in Dom0."
            row.cells.push_back(cell);
            continue;
        }
        Testbed tb(configFor(k, opt));
        cell.score = w.run(tb);
        cell.metricsBrief = tb.metrics().snapshot().brief();
        const double native = archOf(k) == Arch::Arm
                                  ? row.nativeScoreArm
                                  : row.nativeScoreX86;
        VIRTSIM_ASSERT(cell.score > 0, w.name(), " on ",
                       to_string(k), ": zero score");
        cell.normalizedOverhead = native / cell.score;
        row.cells.push_back(cell);
    }
    return row;
}

std::vector<AppBenchRow>
runFigure4(const AppBenchOptions &opt)
{
    // One sweep item per Figure 4 row. Workload models are cheap
    // parameter holders, so each task materializes its own copy of
    // the suite rather than sharing mutable Workload objects across
    // threads; results commit in row order, so the output is
    // byte-identical to the serial loop for any VIRTSIM_JOBS.
    const std::size_t n = figure4Workloads().size();
    return parallelSweepIndexed(n, [&opt](std::size_t i) {
        auto suite = figure4Workloads();
        return runAppBenchRow(*suite[i], opt);
    });
}

} // namespace virtsim
