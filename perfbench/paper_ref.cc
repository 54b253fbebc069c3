/**
 * @file
 * The paper's published cells, copied from Dall et al., ISCA 2016
 * (Tables II, III and V, and the Section V virtual-interrupt
 * distribution numbers, experiment E5), each tagged with whether the
 * model was calibrated against it.
 *
 * A cell is "calibrated" when a model constant was set so the
 * simulation lands on it: DESIGN.md section 3, plus every cost
 * annotated [paper] or [derived] from that cell in hw/cost_model.cc
 * and hv/. All other cells are "held-out": the simulation reaches them
 * without having been fitted to them, so heldout_err_pct is the
 * model's error on data it was not tuned on.
 */

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "perfbench.hh"
#include "workloads.hh"

namespace perfbench {

namespace {

struct PaperCell
{
    const char *key;      ///< value name in the paper pass output
    double paper;         ///< published value
    const char *location; ///< where in the paper
    bool heldout;
};

constexpr bool Cal = false;
constexpr bool Held = true;

const std::vector<PaperCell> &
paperCells()
{
    static const std::vector<PaperCell> cells = {
        // Table II: microbenchmark cycle counts.
        {"t2.kvm_arm.hypercall", 6500, "Table II, Hypercall, KVM ARM", Cal},
        {"t2.xen_arm.hypercall", 376, "Table II, Hypercall, Xen ARM", Cal},
        {"t2.kvm_x86.hypercall", 1300, "Table II, Hypercall, KVM x86", Cal},
        {"t2.xen_x86.hypercall", 1228, "Table II, Hypercall, Xen x86", Cal},
        {"t2.kvm_arm.irq_trap", 7370,
         "Table II, Interrupt Controller Trap, KVM ARM", Cal},
        {"t2.xen_arm.irq_trap", 1356,
         "Table II, Interrupt Controller Trap, Xen ARM", Cal},
        {"t2.kvm_x86.irq_trap", 2384,
         "Table II, Interrupt Controller Trap, KVM x86", Held},
        {"t2.xen_x86.irq_trap", 1734,
         "Table II, Interrupt Controller Trap, Xen x86", Cal},
        {"t2.kvm_arm.vipi", 11557, "Table II, Virtual IPI, KVM ARM", Cal},
        {"t2.xen_arm.vipi", 5978, "Table II, Virtual IPI, Xen ARM", Cal},
        {"t2.kvm_x86.vipi", 5230, "Table II, Virtual IPI, KVM x86", Held},
        {"t2.xen_x86.vipi", 5562, "Table II, Virtual IPI, Xen x86", Cal},
        {"t2.kvm_arm.virq_complete", 71,
         "Table II, Virtual IRQ Completion, KVM ARM", Cal},
        {"t2.xen_arm.virq_complete", 71,
         "Table II, Virtual IRQ Completion, Xen ARM", Cal},
        {"t2.kvm_x86.virq_complete", 1556,
         "Table II, Virtual IRQ Completion, KVM x86", Cal},
        {"t2.xen_x86.virq_complete", 1464,
         "Table II, Virtual IRQ Completion, Xen x86", Cal},
        {"t2.kvm_arm.vm_switch", 10387, "Table II, VM Switch, KVM ARM", Cal},
        {"t2.xen_arm.vm_switch", 8799, "Table II, VM Switch, Xen ARM", Cal},
        {"t2.kvm_x86.vm_switch", 4812, "Table II, VM Switch, KVM x86", Cal},
        {"t2.xen_x86.vm_switch", 10534, "Table II, VM Switch, Xen x86", Cal},
        {"t2.kvm_arm.io_out", 6024, "Table II, I/O Latency Out, KVM ARM",
         Cal},
        {"t2.xen_arm.io_out", 16491, "Table II, I/O Latency Out, Xen ARM",
         Held},
        {"t2.kvm_x86.io_out", 560, "Table II, I/O Latency Out, KVM x86",
         Cal},
        {"t2.xen_x86.io_out", 11262, "Table II, I/O Latency Out, Xen x86",
         Held},
        {"t2.kvm_arm.io_in", 13872, "Table II, I/O Latency In, KVM ARM",
         Cal},
        {"t2.xen_arm.io_in", 15650, "Table II, I/O Latency In, Xen ARM",
         Held},
        {"t2.kvm_x86.io_in", 18923, "Table II, I/O Latency In, KVM x86",
         Cal},
        {"t2.xen_x86.io_in", 10050, "Table II, I/O Latency In, Xen x86",
         Held},

        // Table III: KVM ARM hypercall save/restore, copied verbatim
        // into the cost model.
        {"t3.gp.save", 152, "Table III, GP Regs, Save", Cal},
        {"t3.gp.restore", 184, "Table III, GP Regs, Restore", Cal},
        {"t3.fp.save", 282, "Table III, FP Regs, Save", Cal},
        {"t3.fp.restore", 310, "Table III, FP Regs, Restore", Cal},
        {"t3.el1_sys.save", 230, "Table III, EL1 System Regs, Save", Cal},
        {"t3.el1_sys.restore", 511, "Table III, EL1 System Regs, Restore",
         Cal},
        {"t3.vgic.save", 3250, "Table III, VGIC Regs, Save", Cal},
        {"t3.vgic.restore", 181, "Table III, VGIC Regs, Restore", Cal},
        {"t3.timer.save", 104, "Table III, Timer Regs, Save", Cal},
        {"t3.timer.restore", 106, "Table III, Timer Regs, Restore", Cal},
        {"t3.el2_config.save", 92, "Table III, EL2 Config Regs, Save", Cal},
        {"t3.el2_config.restore", 107,
         "Table III, EL2 Config Regs, Restore", Cal},
        {"t3.el2_virt_mem.save", 92,
         "Table III, EL2 Virtual Memory Regs, Save", Cal},
        {"t3.el2_virt_mem.restore", 107,
         "Table III, EL2 Virtual Memory Regs, Restore", Cal},

        // Table V: netperf TCP_RR on ARM (microseconds, trans/s).
        {"t5.native.trans_s", 23911, "Table V, Trans/s, Native", Cal},
        {"t5.kvm_arm.trans_s", 11591, "Table V, Trans/s, KVM", Held},
        {"t5.xen_arm.trans_s", 10253, "Table V, Trans/s, Xen", Held},
        {"t5.native.time_trans", 41.8, "Table V, Time/trans, Native", Cal},
        {"t5.kvm_arm.time_trans", 86.3, "Table V, Time/trans, KVM", Held},
        {"t5.xen_arm.time_trans", 97.5, "Table V, Time/trans, Xen", Held},
        {"t5.native.send_to_recv", 29.7, "Table V, send to recv, Native",
         Cal},
        {"t5.kvm_arm.send_to_recv", 29.8, "Table V, send to recv, KVM",
         Held},
        {"t5.xen_arm.send_to_recv", 33.9, "Table V, send to recv, Xen",
         Held},
        {"t5.native.recv_to_send", 14.5, "Table V, recv to send, Native",
         Cal},
        {"t5.kvm_arm.recv_to_send", 53.0, "Table V, recv to send, KVM",
         Cal},
        {"t5.xen_arm.recv_to_send", 64.6, "Table V, recv to send, Xen",
         Held},
        {"t5.kvm_arm.recv_to_vm_recv", 21.1,
         "Table V, recv to VM recv, KVM", Cal},
        {"t5.xen_arm.recv_to_vm_recv", 25.9,
         "Table V, recv to VM recv, Xen", Cal},
        {"t5.kvm_arm.vm_recv_to_vm_send", 16.9,
         "Table V, VM recv to VM send, KVM", Cal},
        {"t5.xen_arm.vm_recv_to_vm_send", 17.4,
         "Table V, VM recv to VM send, Xen", Held},
        {"t5.kvm_arm.vm_send_to_send", 15.0,
         "Table V, VM send to send, KVM", Cal},
        {"t5.xen_arm.vm_send_to_send", 21.4,
         "Table V, VM send to send, Xen", Cal},

        // E5, Section V: normalized overhead with all virtual
        // interrupts on VCPU0 versus distributed across VCPUs.
        {"e5.apache.kvm_arm.single", 1.35,
         "Section V, vIRQ distribution, Apache KVM ARM, VCPU0", Held},
        {"e5.apache.kvm_arm.spread", 1.14,
         "Section V, vIRQ distribution, Apache KVM ARM, spread", Held},
        {"e5.apache.xen_arm.single", 1.84,
         "Section V, vIRQ distribution, Apache Xen ARM, VCPU0", Held},
        {"e5.apache.xen_arm.spread", 1.16,
         "Section V, vIRQ distribution, Apache Xen ARM, spread", Held},
        {"e5.memcached.kvm_arm.single", 1.26,
         "Section V, vIRQ distribution, Memcached KVM ARM, VCPU0", Held},
        {"e5.memcached.kvm_arm.spread", 1.08,
         "Section V, vIRQ distribution, Memcached KVM ARM, spread", Held},
        {"e5.memcached.xen_arm.single", 1.32,
         "Section V, vIRQ distribution, Memcached Xen ARM, VCPU0", Held},
        {"e5.memcached.xen_arm.spread", 1.09,
         "Section V, vIRQ distribution, Memcached Xen ARM, spread", Held},
    };
    return cells;
}

} // namespace

PaperError
scorePaperCells(const OpOutput &out)
{
    PaperError e;
    for (const PaperCell &c : paperCells()) {
        const auto it = out.values.find(c.key);
        if (it == out.values.end())
            throw std::runtime_error(std::string("paper cell missing: ") +
                                     c.key + " (" + c.location + ")");
        const double err = std::fabs(it->second - c.paper) / c.paper * 100;
        e.allPct += err;
        ++e.cells;
        if (c.heldout) {
            e.heldoutPct += err;
            ++e.heldoutCells;
        }
    }
    e.allPct /= e.cells;
    e.heldoutPct /= e.heldoutCells;
    return e;
}

OpOutput
runPaperCellExperiments(std::uint64_t seed)
{
    OpOutput out;
    for (const Step &s : paperPassSteps(seed)) {
        if (s.name.rfind("table2.", 0) == 0 || s.name == "table3" ||
            s.name == "table5" || s.name == "e5")
            s.run(out);
    }
    return out;
}

} // namespace perfbench
