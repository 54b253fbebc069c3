/**
 * @file
 * KVM: the Type 2 hypervisor (paper Sections II, IV, VI), on either
 * ISA.
 *
 * On ARM KVM cannot run Linux in EL2, so it splits itself: a minimal
 * lowvisor in EL2 plus the bulk of KVM inside the host kernel in EL1,
 * sharing EL1 with the VMs. Every VM-to-hypervisor transition therefore
 * pays the four overheads Section IV enumerates:
 *
 *  1. a double trap (VM EL1 -> EL2 -> host EL1, and back);
 *  2. a full context switch of EL1 system state between guest and
 *     host, including the expensive VGIC read-back (Table III);
 *  3. disabling/enabling Stage-2 translation and traps on each
 *     direction (the host must own the hardware);
 *  4. VM control state only reachable from EL2 — KVM copies it all to
 *     memory on every transition.
 *
 * With the ARMv8.1 Virtualization Host Extensions (E2H) the whole host
 * kernel runs in EL2 and a transition moves only the GP registers —
 * the Type 1 fast path, available to a Type 2 design. The paper could
 * not measure VHE (no silicon existed), so that variant is the
 * projection apparatus of the E7 bench. On x86 the hardware switches
 * the VMCS state block on every exit and entry.
 *
 * The exit/enter primitives come from the policy (hv/arch_policy.hh);
 * every Table II KVM row is an emergent composition of them with the
 * shared control flow below.
 */

#ifndef VIRTSIM_HV_KVM_HH
#define VIRTSIM_HV_KVM_HH

#include <deque>
#include <map>
#include <memory>

#include "hv/hypervisor.hh"
#include "os/netstack.hh"
#include "os/vhost.hh"

namespace virtsim {

/**
 * The KVM model (Linux 4.0-rc4 era).
 */
class KvmHypervisor : public Hypervisor
{
  public:
    /** @p vhe runs the host kernel in EL2 (ARMv8.1 E2H; ARM only). */
    explicit KvmHypervisor(Machine &m, bool vhe = false);

    std::string
    name() const override
    {
        return std::string("KVM ") + pol->name;
    }
    HvType type() const override { return HvType::Type2; }

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

    /** @name World-switch primitives (public for tests and for the
     *  Table III breakdown) */
    ///@{
    /** Full exit: trap, save the VM state, hand the CPU to the host.
     *  @return completion time on the VCPU's physical CPU. */
    Cycles exitToHost(Cycles t, Vcpu &v);

    /** Full entry: flush pending virqs, restore the VM, enter it. */
    Cycles enterVm(Cycles t, Vcpu &v);
    ///@}

    /** Attach paravirtual networking (virtio + vhost) to a VM. */
    void attachVirtualNic(Vm &vm, VhostBackend::Params params);

    /** Software path costs on this machine's ISA (and VHE mode). */
    const KvmParams &params;

  private:
    /** Per-physical-CPU host-side state. */
    struct HostCtx
    {
        RegFile regs;       ///< host register values
        Vcpu *loaded = nullptr;
        bool inVm = false;
    };

    void onPhysIrq(Cycles t, PcpuId cpu, IrqId irq);
    void handleKick(Cycles t, PcpuId cpu);
    void handleNicIrq(Cycles t, PcpuId cpu);

    /** Host-context work: inject a pending virq into a VCPU that the
     *  host has just kicked out of guest mode, then re-enter. Fires
     *  done after the guest acknowledges and dispatches. */
    Cycles flushAndResume(Cycles t, Vcpu &v, Done done);

    /** Deliver-to-guest notification decision: wake, kick, or ride on
     *  notification suppression. done at the guest driver rx point. */
    void notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt, Done done);

    /** Drain the guest tx ring through vhost onto the NIC. */
    void pumpTx(Cycles t);

    std::vector<HostCtx> hostCtx;
    /** Receiver-side actions waiting for a reschedule IPI, per CPU. */
    std::vector<std::deque<std::function<void(Cycles)>>> kickActions;
    std::unique_ptr<VhostBackend> _vhost;
    Vm *netVm = nullptr;
    NetstackCosts net;
    /** Per-packet transmit completions, keyed by packet seq. */
    std::map<std::uint64_t, Done> txDone;
    /** Whether the vhost worker is actively draining the tx ring
     *  (guest kicks are suppressed while it is). */
    bool txPumpActive = false;
    /** End of the current NAPI-poll window: rx events landing
     *  inside it ride the in-progress notification instead of
     *  raising another interrupt (virtio EVENT_IDX). */
    Cycles rxQuietUntil = 0;
    /** Frames waiting for tx ring space (virtio backpressure). */
    std::deque<std::pair<Vcpu *, std::pair<Packet, Done>>> txBacklog;
};

} // namespace virtsim

#endif // VIRTSIM_HV_KVM_HH
