/**
 * @file
 * Table III: per-register-class attribution of the KVM ARM hypercall
 * cost.
 *
 * The paper instruments KVM ARM's world switch to attribute the
 * 6,500-cycle hypercall to saving and restoring each class of
 * register state, showing that "context switching state is the
 * primary cost due to KVM ARM's design, not the cost of extra traps"
 * — and that the VGIC read-back alone costs 3,250 cycles. We do the
 * same: the WorldSwitchEngine records each class it moves during a
 * real hypercall issued through the normal path.
 */

#ifndef VIRTSIM_CORE_HYPERCALL_BREAKDOWN_HH
#define VIRTSIM_CORE_HYPERCALL_BREAKDOWN_HH

#include <vector>

#include "core/testbed.hh"
#include "hw/arch.hh"

namespace virtsim {

/** One Table III row. */
struct BreakdownRow
{
    RegClass cls;
    Cycles save = 0;
    Cycles restore = 0;
};

/** The full breakdown plus the containing hypercall cost. */
struct HypercallBreakdown
{
    std::vector<BreakdownRow> rows; ///< in Table III order
    Cycles totalSave = 0;
    Cycles totalRestore = 0;
    Cycles hypercallCycles = 0; ///< end-to-end measured hypercall

    /** Cycles not attributed to register movement: traps, Stage-2
     *  toggles, dispatch, handler. */
    Cycles unattributed() const
    {
        return hypercallCycles - totalSave - totalRestore;
    }
};

/**
 * Measure the breakdown on a KVM ARM (or VHE) testbed by recording a
 * live hypercall.
 * @pre tb runs SutKind::KvmArm or SutKind::KvmArmVhe.
 */
HypercallBreakdown measureHypercallBreakdown(Testbed &tb);

} // namespace virtsim

#endif // VIRTSIM_CORE_HYPERCALL_BREAKDOWN_HH
