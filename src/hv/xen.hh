/**
 * @file
 * Xen: the Type 1 hypervisor (paper Sections II, IV), on either ISA.
 *
 * On ARM Xen maps naturally onto the virtualization extensions: the
 * whole hypervisor lives in EL2 with its own register bank, so a
 * hypercall costs "little more than context switching the general
 * purpose registers" — 376 cycles against KVM's 6,500 (Table II) — and
 * the GIC distributor is emulated right there. On x86 the Type 1 /
 * Type 2 distinction loses that asymmetry: Xen and KVM use the same
 * VMCS mechanism (1,228 vs 1,300 cycles), and Xen's domain switch is
 * the slowest VM Switch of all four hypervisors (10,534). The policy
 * (hv/arch_policy.hh) carries those differences.
 *
 * What both share is the I/O architecture: Xen itself implements only
 * scheduling, memory management, the interrupt controller and timers.
 * Device drivers and the network stack live in the privileged Dom0. A
 * guest I/O operation therefore involves event-channel signalling
 * between domains, physical IPIs, switching the target PCPU away from
 * the *idle domain*, and grant-mediated data movement, which is why Xen
 * loses to KVM on the I/O latency microbenchmarks and most I/O-heavy
 * applications despite its cheaper transitions.
 */

#ifndef VIRTSIM_HV_XEN_HH
#define VIRTSIM_HV_XEN_HH

#include <deque>
#include <map>
#include <memory>

#include "hv/hypervisor.hh"
#include "hv/xen_pv.hh"
#include "os/netback.hh"
#include "os/netstack.hh"

namespace virtsim {

/**
 * The Xen 4.5 model.
 */
class XenHypervisor : public Hypervisor
{
  public:
    explicit XenHypervisor(Machine &m);

    std::string
    name() const override
    {
        return std::string("Xen ") + pol->name;
    }
    HvType type() const override { return HvType::Type1; }

    void start() override;
    TapId worldSwitchTap() const override;

    void hypercall(Cycles t, Vcpu &v, Done done) override;
    void irqControllerTrap(Cycles t, Vcpu &v, Done done) override;
    void virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done) override;
    void virqComplete(Cycles t, Vcpu &v, Done done) override;
    void vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done) override;
    void ioSignalOut(Cycles t, Vcpu &v, Done done) override;
    void ioSignalIn(Cycles t, Vcpu &v, Done done) override;
    void injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done) override;
    void blockVcpu(Vcpu &v) override;
    void deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt,
                           Done done) override;
    void guestTransmit(Cycles t, Vcpu &v, const Packet &pkt,
                       Done done) override;

    /** @name Transition primitives (public for tests) */
    ///@{
    /** Trap into Xen: hardware trap + GP save + dispatch. */
    Cycles trapToXen(Cycles t, Vcpu &v);

    /** Return to the trapped VM: GP restore + eret / VM entry. */
    Cycles resumeVm(Cycles t, Vcpu &v);

    /**
     * Full domain switch on one PCPU: save the outgoing world (the
     * idle domain has almost none), run the scheduler, restore the
     * incoming VCPU. from == nullptr means the PCPU was running the
     * idle domain.
     */
    Cycles switchDomains(Cycles t, Vcpu *from, Vcpu &to,
                         bool charge_sched = true);
    ///@}

    /** The privileged I/O domain (created in the constructor; pinned
     *  to the upper half of the machine per Section III). */
    Vm &dom0() { return *_dom0; }

    /** Attach PV networking (netfront/netback + grants) to a VM. */
    void attachVirtualNic(Vm &vm, NetbackBackend::Params params);

    /** @name Test/bench scaffolding
     *  Force Dom0's scheduling state without charging cycles, so a
     *  measurement can start from a known state (the paper's
     *  microbenchmark loops naturally settle into these states
     *  between iterations). */
    ///@{
    void forceDom0Running();
    void forceDom0Idle();
    ///@}

    NetbackBackend *netback() { return _netback.get(); }

    /** Software path costs on this machine's ISA. */
    const XenParams &params;

  private:
    /** What a physical CPU is currently running. */
    struct PcpuSched
    {
        /** Loaded VCPU, or nullptr for the idle domain. */
        Vcpu *current = nullptr;
        /** Whether the current VCPU is executing guest code (vs
         *  having trapped into Xen). */
        bool inGuest = false;
    };

    void onPhysIrq(Cycles t, PcpuId cpu, IrqId irq);
    void handleNicIrq(Cycles t, PcpuId cpu);
    void handleKick(Cycles t, PcpuId cpu);

    /** Put v's PCPU on the idle domain (no cycles charged). */
    void idle(Vcpu &v);

    /**
     * Ensure a VCPU is running on its PCPU at time t, waking it from
     * the idle domain if necessary.
     * @return the time at which the VCPU is executing.
     */
    Cycles ensureRunning(Cycles t, Vcpu &v);

    /** Receiver-side completion of a virq injection into a VCPU that
     *  is executing guest code (physical IPI path). */
    Cycles injectIntoRunning(Cycles t, Vcpu &v, Done done);

    /** Dom0, woken if needed at t, takes its event-channel virq and
     *  does @p work. @return when the work is done. */
    Cycles dom0TakeEvent(Cycles t, Cycles work);

    /** Queue an action for a PCPU and send it the kick IPI at t. */
    void kick(Cycles t, PcpuId cpu, std::function<void(Cycles)> action);

    void notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done);
    void pumpTx(Cycles t);

    /** Dom0's VCPU0, which hosts the physical driver and netback. */
    Vcpu &dom0Vcpu() { return _dom0->vcpu(0); }

    /** Arrange for Dom0 to block (yield to the idle domain) if it
     *  stays quiescent for a grace period. */
    void scheduleDom0IdleCheck(Cycles t);

    std::unique_ptr<Vm> _dom0;
    std::vector<PcpuSched> sched;
    std::vector<std::deque<std::function<void(Cycles)>>> kickActions;
    std::unique_ptr<NetbackBackend> _netback;
    std::unique_ptr<EventChannel> evtchn;
    int portDomU = -1; ///< event channel: backend -> frontend
    int portDom0 = -1; ///< event channel: frontend -> backend
    Vm *netVm = nullptr;
    NetstackCosts net;
    std::map<std::uint64_t, Done> txDone;
    /** Per-packet (grant ref, buffer) released at tx completion. */
    std::map<std::uint64_t, std::pair<GrantRef, BufferId>> txBufs;
    bool txPumpActive = false;
    /** End of the current NAPI-poll window: rx events landing
     *  inside it ride the in-progress notification instead of
     *  raising another interrupt (event-channel masking). */
    Cycles rxQuietUntil = 0;
    /** Frames waiting for tx ring space (netfront backpressure). */
    std::deque<std::pair<Vcpu *, std::pair<Packet, Done>>> txBacklog;
    std::uint64_t idleGen = 0;
};

} // namespace virtsim

#endif // VIRTSIM_HV_XEN_HH
