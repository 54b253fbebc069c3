#include "core/hypercall_breakdown.hh"

#include <map>

#include "hv/world_switch.hh"
#include "sim/log.hh"

namespace virtsim {

HypercallBreakdown
measureHypercallBreakdown(Testbed &tb)
{
    const SutKind kind = tb.config().kind;
    VIRTSIM_ASSERT(kind == SutKind::KvmArm || kind == SutKind::KvmArmVhe,
                   "hypercall breakdown requires KVM ARM");

    Vcpu &v = tb.guest()->vcpu(0);
    TraceSink &sink = tb.machine().trace();
    const bool was_enabled = sink.enabled();
    sink.enable();
    const std::uint64_t mark = sink.total();

    HypercallBreakdown out;
    const Cycles t0 = std::max(tb.queue().now(), tb.frontier(0));
    tb.hypervisor()->hypercall(t0, v, [&out, t0](Cycles t1) {
        out.hypercallCycles = t1 - t0;
    });
    tb.run();
    if (!was_enabled)
        sink.disable();

    // Each world-switch span carries its per-class cycle cost as the
    // span argument, so the Begin record alone attributes the class.
    std::map<RegClass, BreakdownRow> agg;
    sink.forEachSince(mark, [&agg](const TraceRecord &r) {
        if (r.kind != TraceKind::Begin || r.cat != TraceCat::Switch)
            return;
        const auto info = switchTapInfo(r.tap);
        if (!info)
            return;
        auto &row = agg[info->cls];
        row.cls = info->cls;
        if (info->isSave)
            row.save += r.arg;
        else
            row.restore += r.arg;
    });
    for (RegClass cls : armRegClasses) {
        auto it = agg.find(cls);
        if (it == agg.end())
            continue;
        out.rows.push_back(it->second);
        out.totalSave += it->second.save;
        out.totalRestore += it->second.restore;
    }
    return out;
}

} // namespace virtsim
