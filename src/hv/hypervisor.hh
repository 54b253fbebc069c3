/**
 * @file
 * The hypervisor interface: every operation the paper's
 * microbenchmarks measure (Table I), plus the full network I/O paths
 * the application benchmarks and the Netperf TCP_RR decomposition
 * exercise.
 *
 * All path operations are asynchronous, continuation-passing, and
 * cycle-accounted on the physical CPUs involved: a completion callback
 * receives the simulated time at which the operation's measurement
 * endpoint is reached. The seven Table I operations are *measured
 * through these same entry points* by core/microbench; the application
 * benchmarks reuse them, which is what lets the simulator reproduce
 * the paper's headline finding that microbenchmark performance and
 * application performance do not correlate.
 */

#ifndef VIRTSIM_HV_HYPERVISOR_HH
#define VIRTSIM_HV_HYPERVISOR_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hv/arch_policy.hh"
#include "hv/vgic.hh"
#include "hv/vm.hh"
#include "hv/world_switch.hh"
#include "hw/machine.hh"

namespace virtsim {

/** Completion continuation carrying the finish time. */
using Done = std::function<void(Cycles)>;

/** Hypervisor structural design, per the paper's Figure 1. */
enum class HvType
{
    Type1, ///< bare-metal (Xen)
    Type2, ///< hosted (KVM)
};

std::string to_string(HvType t);

/**
 * Policy for routing device virtual interrupts to guest VCPUs.
 * The paper (Section V) finds that both KVM and Xen deliver all
 * virtual interrupts to VCPU0, saturating it under Apache/Memcached,
 * and measures the improvement from distributing them (E5 ablation).
 */
enum class VirqDistribution
{
    SingleVcpu, ///< everything to VCPU0 (the measured default)
    Spread,     ///< round-robin across VCPUs
};

/**
 * Abstract hypervisor running on one Machine: a family's control flow
 * over the machine architecture's policy.
 */
class Hypervisor
{
  public:
    /** @p family names the family's counters ("xen" / "kvm"); @p e2h
     *  selects ARM's VHE policy. */
    Hypervisor(Machine &m, const std::string &family, bool e2h = false);
    virtual ~Hypervisor() = default;

    Hypervisor(const Hypervisor &) = delete;
    Hypervisor &operator=(const Hypervisor &) = delete;

    virtual std::string name() const = 0;
    virtual HvType type() const = 0;

    Machine &machine() { return mach; }
    MetricsDomain &counters() { return mach.counters(); }
    EventQueue &queue() { return mach.queue(); }

    /** The machine's trace sink (the engine's spans go there too). */
    TraceSink &trace() { return mach.trace(); }

    /** Per-VM metrics domain, cached by VM id so hot hypervisor
     *  paths pay an array index, not a name lookup. */
    MetricsDomain &vmMetrics(const Vm &vm);

    /** Per-physical-CPU metrics domain. */
    MetricsDomain &cpuMetrics(PcpuId cpu)
    {
        return mach.metrics().cpu(cpu);
    }

    /** @name VM lifecycle */
    ///@{
    /**
     * Create a guest VM with n_vcpus VCPUs pinned to the given
     * physical CPUs (Section III methodology: one VCPU per PCPU).
     */
    Vm &createVm(const std::string &name, int n_vcpus,
                 const std::vector<PcpuId> &pinning);

    /** Install interrupt handlers and begin running. Call once after
     *  all VMs are created. The base implementation registers the
     *  per-VM timeline gauges (world-switch rate, per-VCPU run
     *  state); overrides must call it. */
    virtual void start();

    /**
     * Tap id of this family's per-VM world-switch counter
     * ("kvm.world_switch" / "xen.world_switch"), so the base class
     * can wire world-switch-rate timeline gauges without knowing
     * each implementation's tap table.
     */
    virtual TapId worldSwitchTap() const = 0;

    const std::vector<std::unique_ptr<Vm>> &vms() const { return _vms; }
    ///@}

    /** @name Table I microbenchmark operations */
    ///@{
    /** Transition VM -> hypervisor -> VM with a no-op handler. */
    virtual void hypercall(Cycles t, Vcpu &v, Done done) = 0;

    /** VM access to a register of the emulated interrupt controller
     *  (distributor), then return to the VM. */
    virtual void irqControllerTrap(Cycles t, Vcpu &v, Done done) = 0;

    /**
     * Virtual IPI from src to dst, which runs on a different PCPU and
     * is executing VM code. done fires when the *receiving* VCPU's
     * handler runs (the paper's measurement endpoint).
     */
    virtual void virtualIpi(Cycles t, Vcpu &src, Vcpu &dst,
                            Done done) = 0;

    /** VM acknowledges and completes a pending virtual interrupt. */
    virtual void virqComplete(Cycles t, Vcpu &v, Done done) = 0;

    /** Switch the physical CPU from one VM's VCPU to another VM's
     *  VCPU (both pinned to the same PCPU). */
    virtual void vmSwitch(Cycles t, Vcpu &from, Vcpu &to,
                          Done done) = 0;

    /** Guest driver signals the virtual I/O device; done fires when
     *  the backend (host vhost / Dom0 netback) receives the signal. */
    virtual void ioSignalOut(Cycles t, Vcpu &v, Done done) = 0;

    /** Backend signals the guest; done fires when the VM receives the
     *  corresponding virtual interrupt. */
    virtual void ioSignalIn(Cycles t, Vcpu &v, Done done) = 0;
    ///@}

    /** @name Virtual interrupt injection (timer / device) */
    ///@{
    /**
     * Inject virq into a VCPU from hypervisor context; done fires when
     * the guest's handler starts executing.
     */
    virtual void injectVirq(Cycles t, Vcpu &v, IrqId virq,
                            Done done) = 0;
    ///@}

    /** @name Full network I/O paths */
    ///@{
    /**
     * Carry a packet that has arrived at the physical NIC through the
     * I/O backend into the guest. done fires at the paper's
     * "VM recv" tap: the guest driver receiving the frame. The
     * target VCPU is chosen by the VirqDistribution policy.
     */
    virtual void deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt,
                                   Done done) = 0;

    /**
     * Guest sends a frame: from the guest driver enqueue ("VM send"
     * tap) through the backend to the physical NIC. done fires at the
     * physical datalink-tx point, after which the frame is on the
     * wire via Machine::nic().
     */
    virtual void guestTransmit(Cycles t, Vcpu &v, const Packet &pkt,
                               Done done) = 0;

    /** Hook: host/Dom0 physical driver saw the frame (datalink rx
     *  tap of Table V; fires before backend processing). */
    std::function<void(Cycles, const Packet &)> onHostDatalinkRx;

    /** Hook: a packet reached the guest driver ("VM recv" tap). */
    std::function<void(Cycles, Vm &, const Packet &)> onGuestRx;
    ///@}

    /** @name Policy knobs */
    ///@{
    void setVirqDistribution(VirqDistribution d) { virqDist = d; }
    ///@}

    /**
     * Mark a VCPU blocked (guest executed WFI / blocked in a wait):
     * the hypervisor regains the physical CPU, which then idles (the
     * host run-loop parks for KVM; the idle domain runs for Xen).
     * No cycles are charged: this is the quiescent state between
     * I/O events, not a measured transition.
     */
    virtual void blockVcpu(Vcpu &v) = 0;

  protected:
    /** Pick the VCPU that receives the next device virtual IRQ. */
    VcpuId pickVirqTarget(Vm &vm);

    /** A VM's virtual distributor (pending virqs per VCPU). */
    VgicDistributor &dist(Vm &vm);

    /** Count one world switch against v's VM and PCPU. */
    void countWorldSwitch(const Vcpu &v);

    /** Trace track of v's physical CPU. */
    static std::uint16_t
    track(const Vcpu &v)
    {
        return static_cast<std::uint16_t>(v.pcpu());
    }

    Machine &mach;
    WorldSwitchEngine wse;
    std::unique_ptr<const ArchPolicy> pol;
    std::map<VmId, std::unique_ptr<VgicDistributor>> dists;
    std::vector<std::unique_ptr<Vm>> _vms;
    /** vmMetrics cache, indexed by VM id. */
    std::vector<MetricsDomain *> vmDomains;
    VirqDistribution virqDist = VirqDistribution::SingleVcpu;
    VcpuId nextVirqRr = 0;
    VmId nextVmId = 1; // 0 is reserved for Xen's Dom0
};

} // namespace virtsim

#endif // VIRTSIM_HV_HYPERVISOR_HH
