/**
 * @file
 * The per-architecture policy both hypervisor families are built on.
 *
 * The paper's Table II crosses hypervisor design (Type 1 Xen, Type 2
 * KVM) with architecture (ARM, x86) and argues that the architecture
 * sets the transition cost. The models follow that split: XenHypervisor
 * and KvmHypervisor each hold their control flow once, and everything
 * that differs by ISA sits behind one ArchPolicy:
 *
 *  - trap entry and exit: which register classes move, who moves them
 *    (software through the world-switch engine on ARM, the VMCS
 *    hardware on x86), and the CPU modes on either side;
 *  - virtual-interrupt inject, acknowledge and complete: GIC list
 *    registers with their 71-cycle in-VM completion, against the APIC
 *    whose EOI traps unless the hardware has vAPIC;
 *  - the ARM virtual-timer PPI;
 *  - each family's software path costs on that ISA, as const tables.
 *
 * VHE (ARMv8.1, host kernel in EL2) is the ARM policy's E2H variant: a
 * different KVM exit/entry path on the same ISA, not a third family.
 * A new ISA supplies one CostModel table and one policy.
 */

#ifndef VIRTSIM_HV_ARCH_POLICY_HH
#define VIRTSIM_HV_ARCH_POLICY_HH

#include <memory>
#include <string>

#include "hv/vgic.hh"
#include "hv/world_switch.hh"
#include "hw/machine.hh"

namespace virtsim {

/**
 * Xen 4.5 software path costs on one ISA. Tags as in hw/cost_model.hh:
 * [derived] values close a Table II total over the documented path.
 */
struct XenParams
{
    /** Hypercall decode + dispatch. [derived] Hypercall (ARM 376 =
     *  trap + GP save + this + GP restore + eret; x86 1,228). */
    Cycles hypercallDispatch;
    /** No-op hypercall handler body (folded into dispatch on ARM). */
    Cycles hypercallHandler;
    /** GIC distributor / APIC emulation. [derived] Interrupt
     *  Controller Trap (1,356 / 1,734). */
    Cycles irqchipEmulation;
    /** IPI register emulation plus the kick path. On ARM GICD_SGIR
     *  takes the distributor lock, per-target rank bookkeeping and
     *  vcpu kick logic. [derived] Virtual IPI (5,978 / 5,562). */
    Cycles ipiEmulation;
    /** EOI-exit emulation. [derived] x86 Virtual IRQ Completion
     *  (1,464); ARM completes in the VM. */
    Cycles eoiEmulation;
    /** Xen's do_IRQ body for a physical interrupt. */
    Cycles xenIrqDispatch;
    /** vgic_vcpu_inject_irq software path (excl. the LR write). */
    Cycles vgicInject;
    /** Credit-scheduler work on a domain switch. [derived] VM Switch
     *  (8,799 / 10,534: x86 also syncs the full domain state). */
    Cycles schedWork;
    /** Waking a blocked VCPU of an idle domain: vcpu_wake, credit
     *  accounting, idle-domain exit — everything up to the register
     *  switch-in. [derived] I/O Latency rows (ARM 16,491 / 15,650, the
     *  paper's "Xen must first switch from the idle domain" cost). */
    Cycles domainWakeFromIdle;
    /** Guest vector entry to handler dispatch. */
    Cycles guestIrqDispatch;
    /** Netback noticing a pending event channel once Dom0 runs. */
    Cycles backendDequeue;
    /** Frontend driver: reap one rx response + re-grant + repost. */
    Cycles guestDriverRxPop;
    /** Guest-side event-channel upcall demux: the Linux evtchn path
     *  from vector entry to the bound handler. [calibrated] */
    Cycles evtchnUpcall;
    /** Frontend cost of granting one page for I/O. */
    Cycles grantSetup;
    /** Which transitions count xen.world_switch besides the trap: the
     *  ARM model counts domain switches, the x86 model VM resumes. */
    bool countsResume;
    bool countsDomainSwitch;
};

/**
 * KVM (Linux 4.0-rc4) software path costs on one ISA, plus the two
 * places its x86 code takes a different path.
 */
struct KvmParams
{
    /** Exit-side dispatch: the split-mode EL2 lowvisor, the VHE host
     *  entry, or the x86 exit-reason decode. [derived] Hypercall
     *  (6,500 / 1,300) over Table III and the hardware transitions. */
    Cycles exitDispatch;
    /** Entry-side dispatch (only the split-mode lowvisor has one). */
    Cycles entryDispatch;
    /** No-op hypercall handling in the host. [derived] as above. */
    Cycles hypercallHandler;
    /** GIC distributor / APIC emulation in the host. [derived]
     *  Interrupt Controller Trap (7,370 / 2,384). */
    Cycles irqchipEmulation;
    /** IPI register emulation + kvm_vcpu_kick before the physical IPI
     *  write. [calibrated] on ARM; [derived] Virtual IPI on x86. */
    Cycles ipiEmulation;
    /** EOI-exit emulation. [derived] x86 Virtual IRQ Completion
     *  (1,556) minus exit + entry; ARM completes in the VM. */
    Cycles eoiEmulation;
    /** Host handler body for the reschedule IPI (x86: incl. the APIC
     *  ack/EOI, which ARM pays as two GIC accesses). */
    Cycles reschedIrqHandler;
    /** Host scheduler switch between VCPU threads plus
     *  vcpu_put/vcpu_load. [derived] VM Switch (10,387 / 4,812). */
    Cycles vcpuSwitchWork;
    /** ioeventfd signal on a guest kick. [derived] with
     *  vhostNotifyLatency from I/O Latency Out (6,024 / 560). */
    Cycles ioeventfdSignal;
    /** Latency until the vhost worker runs after an ioeventfd signal
     *  (kthread wake on its own dedicated CPU). */
    Cycles vhostNotifyLatency;
    /** Full wake of a blocked VCPU thread: cross-CPU wake_up, idle
     *  exit, schedule, run-loop re-entry. [derived] I/O Latency In
     *  (13,872 / 18,923). Its magnitude is the paper's point: I/O
     *  latency is dominated by hypervisor software, not traps. */
    Cycles vcpuWakeFromIdle;
    /** irqfd injection path from the signalling context. */
    Cycles irqfdInject;
    /** Guest vector entry to handler dispatch. */
    Cycles guestIrqDispatch;
    /** Guest virtio driver: reap one rx descriptor + repost. */
    Cycles guestDriverRxPop;
    /** Guest driver work to publish one tx descriptor, beyond the
     *  ring write itself. */
    Cycles txPost;
    /** x86's ioeventfd fast path: the kick is recognised and the
     *  eventfd signalled inside the inner vmexit loop, before the full
     *  exit dispatch, and the guest re-enters at once — the 560-cycle
     *  Table II standout. */
    bool ioeventfdFastPath;
    /** Rx notification window: true holds it open while the target
     *  CPU is still busy (x86), false for a fixed 2.5 us NAPI poll
     *  window (ARM). */
    bool rxWindowIsCpuBusy;
};

/** The data half of a policy: one const table per ISA (variant). */
struct ArchTraits
{
    /** Display suffix of the hypervisor name: "ARM", "ARM (VHE)"... */
    const char *name;
    const XenParams &xen;
    const KvmParams &kvm;
    /** Fill pattern base of KVM's per-CPU host register contexts, so
     *  isolation tests can spot leaks. */
    std::uint64_t hostRegPattern;
    /** Physical interrupt the virtual timer raises while a VM runs
     *  (the ARM vtimer PPI); -1 where no such line exists. */
    IrqId vtimerIrq;
    /** Whether transitions emit their spans, I/O paths their instants,
     *  and Xen its per-leg trap summaries. Only the ARM models were
     *  instrumented this finely. */
    bool tracesTransitions;
};

/**
 * How one ISA implements the mechanisms both families compose: its
 * traits plus the code that moves state and drives the interrupt
 * controller. Transition methods move the registers, set the CPU mode
 * where it changes and return the cost; the caller charges it.
 */
class ArchPolicy : public ArchTraits
{
  public:
    /**
     * The policy for m's architecture, moving state through @p wse.
     * @p family ("xen" / "kvm") prefixes the counters the policy bumps;
     * @p e2h selects ARM's VHE variant (rejected on other ISAs).
     */
    static std::unique_ptr<const ArchPolicy>
    create(Machine &m, WorldSwitchEngine &wse, const std::string &family,
           bool e2h = false);
    virtual ~ArchPolicy() = default;

    ArchPolicy(const ArchPolicy &) = delete;
    ArchPolicy &operator=(const ArchPolicy &) = delete;

    /** @name Type 1 transitions (Xen)
     *  A trap into an EL2 / root-mode hypervisor that moves only what
     *  its handlers need. */
    ///@{
    virtual Cycles trap(PhysicalCpu &cpu, RegFile &guest) const = 0;
    virtual Cycles resume(PhysicalCpu &cpu, const RegFile &guest) const = 0;
    /** What trap() and resume() cost, for paths that take the same
     *  transitions without keeping the moved state. */
    virtual Cycles trapCost() const = 0;
    virtual Cycles resumeCost() const = 0;
    /** The bare hardware trap (before any state is saved). */
    virtual Cycles trapHw() const = 0;
    /** Save the outgoing domain of a domain switch; nullptr means the
     *  idle domain, which has next to nothing to save. */
    virtual Cycles saveDomain(PhysicalCpu &cpu, RegFile *from,
                              Cycles t) const = 0;
    /** Restore the incoming domain and enter it. */
    virtual Cycles restoreDomain(PhysicalCpu &cpu, const RegFile &to,
                                 Cycles t) const = 0;
    ///@}

    /** @name Type 2 transitions (KVM) */
    ///@{
    /** Full exit: move the guest out and the host in (the split-mode
     *  double trap on ARM, E2H's GP-only trap, a VMCS exit). */
    virtual Cycles exitToHost(PhysicalCpu &cpu, RegFile &guest,
                              const RegFile &host, Cycles t) const = 0;
    /** Full entry; @p flush is the virq injection already done. */
    virtual Cycles enterGuest(PhysicalCpu &cpu, const RegFile &guest,
                              RegFile &host, Cycles t,
                              Cycles flush) const = 0;
    /** A host VCPU-thread switch between VMs around @p work, plus the
     *  state exit and entry leave behind (VHE's EL1 world, the VMCS
     *  pointer). */
    virtual Cycles switchVms(PhysicalCpu &cpu, RegFile &from,
                             const RegFile &to, Cycles t,
                             Cycles work) const = 0;
    /** Register accesses a host IRQ handler pays besides its body. */
    virtual Cycles hostIrqAck() const = 0;
    ///@}

    /** @name Virtual interrupts */
    ///@{
    /** Program v's software-pending virqs into the hardware before it
     *  runs: every one that fits the GIC list registers, or the one
     *  the VMCS can carry. @return the cost. */
    virtual Cycles flushPending(Cycles t, VgicDistributor &d,
                                Vcpu &v) const = 0;
    /** Program one virq; @return the cost (paid even on overflow). */
    virtual Cycles inject(Cycles t, PcpuId cpu, IrqId virq) const = 0;
    /** Guest acknowledges (cost: one irqChipRegAccess); @p t closes
     *  the GIC's list-register causal edge. @return the virq or -1. */
    virtual IrqId ack(PcpuId cpu, Cycles t) const = 0;
    /** Guest completes an acknowledged virq without an exit: the GIC
     *  fast path on ARM, nothing modelled on x86 (PV event channels).
     *  @return the cost (0 if acked < 0). */
    virtual Cycles complete(PcpuId cpu, IrqId acked) const = 0;
    /** As complete(), for an HVM guest's handler on a running VCPU:
     *  on x86 without vAPIC the EOI write traps, costing exit +
     *  @p emulation + entry. */
    virtual Cycles completeAfterHandler(PcpuId cpu, IrqId acked,
                                        Cycles emulation) const = 0;
    /** Whether a guest EOI leaves the VM (x86 without vAPIC). */
    virtual bool eoiTraps() const = 0;
    /** The Table I completion of the active virq when it does not
     *  trap. @return the cost. */
    virtual Cycles completeActive(PcpuId cpu) const = 0;
    ///@}

  protected:
    ArchPolicy(Machine &m, WorldSwitchEngine &wse, const ArchTraits &traits)
        : ArchTraits(traits), mach(m), wse(wse)
    {
    }

    const CostModel &costs() const { return mach.costs(); }

    Machine &mach;
    WorldSwitchEngine &wse;
};

} // namespace virtsim

#endif // VIRTSIM_HV_ARCH_POLICY_HH
