/**
 * @file
 * Interrupt controller hardware models.
 *
 * IrqChip is the architecture-neutral surface (route external device
 * interrupts, send IPIs, deliver physical interrupts to a handler the
 * hypervisor or native kernel installs).
 *
 * Gic models the ARM Generic Interrupt Controller with the GICv2
 * virtualization extensions the paper's testbed used: per-CPU list
 * registers into which a hypervisor (executing in EL2) programs
 * virtual interrupts, and a virtual CPU interface that lets a VM
 * acknowledge and *complete* virtual interrupts without trapping —
 * the feature behind the 71-cycle Virtual IRQ Completion row of
 * Table II. Register accesses traverse the X-Gene's slow interconnect
 * (CostModel::irqChipRegAccess), which is what makes VGIC state save
 * cost 3,250 cycles.
 *
 * Apic models the x86 local APIC of the Xeon testbed: virtual
 * interrupts are injected through the VMCS, and a guest EOI *traps* to
 * the hypervisor because the machines lacked vAPIC support (the paper
 * notes newer hardware with vAPIC should behave more like ARM; the
 * flag is modelled for the ablation bench).
 */

#ifndef VIRTSIM_HW_GIC_HH
#define VIRTSIM_HW_GIC_HH

#include <array>
#include <functional>
#include <map>
#include <vector>

#include "hw/cost_model.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** @name Well-known interrupt numbers */
///@{
inline constexpr IrqId sgiRescheduleIrq = 1;  ///< SGI used for kicks
inline constexpr IrqId ppiVtimerIrq = 27;     ///< virtual timer PPI
inline constexpr IrqId ppiMaintenanceIrq = 25; ///< GIC maintenance PPI
inline constexpr IrqId spiNicIrq = 64;        ///< NIC SPI
inline constexpr IrqId spiBlockIrq = 65;      ///< block device SPI
///@}

/**
 * Architecture-neutral interrupt controller interface.
 */
class IrqChip
{
  public:
    /** Called when a physical interrupt is pended at a CPU. */
    using Handler = std::function<void(Cycles when, PcpuId cpu, IrqId irq)>;

    /** probe is optional: standalone chips (unit tests) pass none and
     *  skip trace/metrics emission. */
    IrqChip(EventQueue &eq, const CostModel &cm, MetricsDomain &counters,
            Probe *probe = nullptr);
    virtual ~IrqChip() = default;

    IrqChip(const IrqChip &) = delete;
    IrqChip &operator=(const IrqChip &) = delete;

    /** Install the receiver of physical interrupts (the hypervisor
     *  when virtualization is enabled, else the native kernel). */
    void setPhysIrqHandler(Handler h) { handler = std::move(h); }

    /** Set the target CPU of an external (device) interrupt line. */
    void routeExternal(IrqId irq, PcpuId target) { routes[irq] = target; }

    PcpuId externalRoute(IrqId irq) const;

    /** A device raises an external interrupt line at time t. */
    virtual void raiseExternal(Cycles t, IrqId irq);

    /** Raise a private per-CPU interrupt (ARM PPI) at a specific CPU,
     *  bypassing the external routing table (used by timers). */
    void raisePpi(Cycles t, PcpuId cpu, IrqId irq);

    /**
     * Send an inter-processor interrupt. The *sender-side* register
     * access cost must already have been charged by the caller (it is
     * part of the sender CPU's critical path); this method models
     * the propagation delay and delivery.
     */
    virtual void sendIpi(Cycles t, PcpuId target, IrqId irq);

    /** Cycle cost of one controller register access. */
    Cycles regAccessCost() const { return cm.irqChipRegAccess; }

  protected:
    /** Deliver irq at cpu at time t by invoking the handler. */
    void deliver(Cycles t, PcpuId cpu, IrqId irq);

    EventQueue &eq;
    const CostModel &cm;
    MetricsDomain &counters;
    Probe *probe; ///< may be null (standalone chip)
    Handler handler;
    std::map<IrqId, PcpuId> routes;
};

/**
 * One GIC list register: a slot the hypervisor fills with a pending
 * virtual interrupt for the VM currently on that physical CPU.
 */
struct ListReg
{
    IrqId virq = -1;
    /** Causal-edge token stamped at LR write, redeemed at guest ack
     *  (sim/attrib links the write->ack latency across the trace). */
    std::uint64_t edgeToken = 0;
    bool pending = false;
    bool active = false;

    bool empty() const { return virq < 0; }
    void clear() { *this = ListReg{}; }
};

/** Number of list registers per CPU (4 on the paper's hardware). */
inline constexpr std::size_t numListRegs = 4;

/**
 * ARM GIC with virtualization extensions.
 */
class Gic : public IrqChip
{
  public:
    Gic(EventQueue &eq, const CostModel &cm, MetricsDomain &counters,
        int n_cpus, Probe *probe = nullptr);

    /** @name Hypervisor-side (EL2) virtual interface control */
    ///@{
    /**
     * Program a pending virtual interrupt into a free list register
     * of the given physical CPU.
     * @return index of the list register used, or -1 if all are full
     *         (caller must then track the overflow in software).
     */
    int injectVirq(Cycles t, PcpuId cpu, IrqId virq);

    /** Cycle cost of programming one list register. */
    Cycles lrWriteCost() const { return cm.listRegWrite; }

    std::array<ListReg, numListRegs> &listRegs(PcpuId cpu);
    ///@}

    /** @name Guest-side (EL1) virtual CPU interface */
    ///@{
    /**
     * VM acknowledges the highest-priority pending virtual interrupt
     * (reads GICV_IAR). @p t , when given, closes the LR causal edge
     * opened at injection (write-to-ack latency attribution).
     * @return the virq acknowledged, or -1 if none pending.
     */
    IrqId guestAckVirq(PcpuId cpu, Cycles t = 0);

    /**
     * VM completes a virtual interrupt (writes GICV_EOIR/DIR). No
     * trap: this is the ARM hardware fast path of Table II.
     * @return the cycle cost of the completion (71 on the testbed).
     */
    Cycles guestCompleteVirq(PcpuId cpu, IrqId virq);

    /** @return true if any list register holds a pending/active virq. */
    bool anyVirqLive(PcpuId cpu) const;
    ///@}

  private:
    std::vector<std::array<ListReg, numListRegs>> lrs;
};

/**
 * x86 local APIC (one per CPU, modelled collectively).
 */
class Apic : public IrqChip
{
  public:
    Apic(EventQueue &eq, const CostModel &cm, MetricsDomain &counters,
         int n_cpus, Probe *probe = nullptr);

    /**
     * Whether the hardware supports vAPIC (APIC virtualization): with
     * it, guest EOIs need no exit. The paper's r320 nodes did not
     * have it; the ablation bench flips this.
     */
    bool vApicEnabled() const { return vapic; }
    void setVApic(bool on) { vapic = on; }

    /** Inject a virtual interrupt for the VM on this CPU (through the
     *  VMCS interrupt-information field). @return injection cost. */
    Cycles injectVirq(Cycles t, PcpuId cpu, IrqId virq);

    /** VM acknowledges its pending virtual interrupt. */
    IrqId guestAckVirq(PcpuId cpu);

    /**
     * Whether a guest EOI traps to the hypervisor on this hardware.
     */
    bool guestEoiTraps() const { return !vapic; }

  private:
    bool vapic = false;
    std::vector<IrqId> pendingVirq;
};

} // namespace virtsim

#endif // VIRTSIM_HW_GIC_HH
