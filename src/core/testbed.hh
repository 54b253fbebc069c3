/**
 * @file
 * Testbed construction: the experiment configurations of Section III.
 *
 * A Testbed is one server (ARM m400 or x86 r320) in one of the
 * paper's three software configurations —
 *
 *   (1) native Linux capped at 4 cores / 12 GB,
 *   (2) a KVM VM: 8-core host, VM capped at 4 VCPUs / 12 GB, VCPUs
 *       pinned to dedicated PCPUs, host interrupts and threads on a
 *       separate PCPU set,
 *   (3) a Xen VM: Dom0 with 4 VCPUs / 4 GB on its own PCPUs, DomU
 *       with 4 VCPUs / 12 GB,
 *
 * — plus the 10 GbE wire to a dedicated, never-saturated client.
 *
 * The class exposes the uniform surface workloads program against
 * (charge work, send packets, observe taps) so every workload runs
 * unmodified on all configurations, exactly like the paper's
 * benchmarks did.
 */

#ifndef VIRTSIM_CORE_TESTBED_HH
#define VIRTSIM_CORE_TESTBED_HH

#include <array>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/observe.hh"
#include "hv/hypervisor.hh"
#include "hv/kvm.hh"
#include "hv/xen.hh"
#include "hw/machine.hh"
#include "hw/wire.hh"
#include "os/netstack.hh"
#include "sim/random.hh"

namespace virtsim {

/** The software stack under test. */
enum class SutKind
{
    Native,    ///< bare-metal Linux on the ARM server (baseline)
    NativeX86, ///< bare-metal Linux on the x86 server (baseline)
    KvmArm,
    XenArm,
    KvmX86,
    XenX86,
    KvmArmVhe, ///< Section VI projection
};

std::string to_string(SutKind k);

/** @return true if the configuration runs inside a VM. */
bool isVirtualized(SutKind k);

/** @return the architecture of the configuration. */
Arch archOf(SutKind k);

/** Full experiment configuration. */
struct TestbedConfig
{
    SutKind kind = SutKind::KvmArm;
    /** Virtual-interrupt routing policy (E5 ablation). */
    VirqDistribution virqDist = VirqDistribution::SingleVcpu;
    /** Xen zero-copy grant mapping instead of copies (E6). */
    bool zeroCopyGrants = false;
    /** x86 vAPIC available (Table II discussion ablation). */
    bool vApic = false;
    /** Linux TSO-autosizing regression active (E8). */
    bool tsoRegression = true;
    /** PRNG seed; equal seeds give bit-identical runs. */
    std::uint64_t seed = 42;
    /** Sample the timeline (gauge series + watchdog) without
     *  VIRTSIM_TIMELINE; no file is written. */
    bool timeline = false;
    /** Track request latency and judge the SLO without
     *  VIRTSIM_LATENCY (no file is written); arms the timeline too,
     *  since the SLO burn windows evaluate in its sample hook. */
    bool latency = false;
};

/**
 * One ready-to-run system under test.
 */
class Testbed
{
  public:
    explicit Testbed(TestbedConfig config);
    ~Testbed();

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    const TestbedConfig &config() const { return cfg; }
    EventQueue &queue() { return eq; }
    Machine &machine() { return *server; }
    Random &random() { return rng; }
    Probe &probe() { return server->probe(); }
    TraceSink &trace() { return server->trace(); }
    MetricsRegistry &metrics() { return server->metrics(); }

    /**
     * The streaming causal analyzer for this testbed. First call
     * enables the trace sink and attaches the analyzer as its
     * observer; blame accumulates online from then on, so the ring
     * never needs to retain the whole run. One analyzer per testbed
     * keeps sweep workers lock-free and reports deterministic
     * regardless of VIRTSIM_JOBS.
     */
    CausalAnalyzer &attribution() { return obs->attribution(); }
    const NetstackCosts &netCosts() const { return net; }

    /**
     * Reset run-scoped observability (stats, counters, trace records,
     * timeline series) so back-to-back workloads on one testbed report
     * independent numbers. Workload entry points call this; tap
     * registrations and the trace-enabled flag survive.
     */
    void beginRun();

    /** Rebuild this testbed in place from config(), exactly as a new
     *  Testbed{config()} (perfbench compatibility, see the end of
     *  this file). */
    void reset();

    /** Null for the native configuration. */
    Hypervisor *hypervisor() { return hv.get(); }

    /** The measured VM; null for native. */
    Vm *guest() { return guestVm; }

    bool virtualized() const { return hv != nullptr; }

    /** @name Workload surface (uniform across configurations) */
    ///@{
    /** Logical CPUs available to the workload (always 4, per the
     *  Section III capping). */
    int width() const { return 4; }

    Frequency freq() const { return server->freq(); }

    /** Reserve work cycles on logical CPU lcpu. @return finish time. */
    Cycles charge(Cycles t, int lcpu, Cycles work);

    /** Completion frontier of a logical CPU. */
    Cycles frontier(int lcpu);

    /** Mark a logical CPU's (V)CPU blocked/runnable — drives the
     *  hypervisor's wake-vs-kick decision on injection. */
    void setIdle(int lcpu, bool idle);

    /**
     * Transmit a packet from the server application at the "VM send"
     * point. on_datalink_tx fires when the frame reaches the physical
     * datalink (Table V "send" tap); the frame then serializes onto
     * the wire to the client.
     */
    void send(Cycles t, int lcpu, const Packet &pkt, Done on_datalink_tx);

    /**
     * Inter-processor interrupt between logical CPUs (virtual IPI
     * when virtualized, physical SGI natively). done fires when the
     * receiver's handler runs.
     */
    void sendIpi(Cycles t, int from_lcpu, int to_lcpu, Done done);

    /** Cost of completing one received (virtual) interrupt; the
     *  workload charges it where its handler runs. On ARM this is
     *  the 71-cycle fast path; on x86 without vAPIC, a full trap. */
    void completeVirq(Cycles t, int lcpu, Done done);

    /** Packet reached the server's physical driver (host/Dom0
     *  datalink rx — Table V "recv" tap). */
    std::function<void(Cycles, const Packet &)> onHostRx;

    /** Packet reached the VM's driver (Table V "VM recv" tap;
     *  natively identical to onHostRx timing plus IRQ path). */
    std::function<void(Cycles, const Packet &)> onVmRx;

    /** TSO segment size the guest TCP stack uses on this
     *  configuration (captures the E8 regression on Xen PV). */
    std::uint32_t tsoBytes() const;
    ///@}

    /** @name Client side */
    ///@{
    /** Client machine sends a packet toward the server. */
    void clientSend(Cycles t, const Packet &pkt);

    /** A server frame arrived at the client machine. */
    std::function<void(Cycles, const Packet &)> onClientRx;

    /** One-way wire latency (both directions equal). */
    Cycles wireLatency() const { return wire_->oneWayLatency(); }
    ///@}

    /** Drain the event queue, sampling the timeline when it is
     *  armed (Observability::drain). @return final simulated time. */
    Cycles run() { return obs->drain(); }

    /** The machine's timeline sampler (gauge series + watchdog). */
    TimelineSampler &timeline() { return server->probe().timeline; }

    /** The per-request phase histograms (sim/latency). Disabled until
     *  VIRTSIM_LATENCY or TestbedConfig::latency arms tracking. */
    RequestTracker &latency() { return server->probe().latency; }

    /** Failing end-of-run SLO verdicts so far; 0 when unarmed. */
    std::uint64_t sloBreaches() const { return obs->sloBreaches(); }

  private:
    void buildNative();
    void buildVirtualized();
    /** Install the default watchdog rule set over the registered
     *  gauges (stalled VCPU, sustained LR saturation, NIC queue
     *  bound, rx-drop burst). */
    void installWatchdogRules(TimelineSampler &tl);
    PhysicalCpu &lcpuOf(int lcpu);
    Vcpu &vcpuOf(int lcpu);

    TestbedConfig cfg;
    EventQueue eq;
    Random rng;
    std::unique_ptr<Machine> server;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<Wire> wire_;
    Vm *guestVm = nullptr;
    NetstackCosts net;
    /** Armed last in the constructor, over the built machine. */
    std::optional<Observability> obs;
    std::uint64_t txSeq = 0;
    /** Native-mode pending IPI completions per CPU. */
    std::array<std::deque<Done>, 8> nativeIpiDone;
    /** GRO aggregates of the native NIC interrupt being handled. */
    std::vector<Packet> rxAggs;
};

// Compatibility for perfbench, whose sources are frozen with the
// benchmark definition; ROADMAP item 10 deletes this block together
// with perfbench's testbed-cache probes. Every world is built cold:
// an "acquire" is a construction, and the cache counters read zero.
using TestbedLease = std::unique_ptr<Testbed>;

inline TestbedLease
acquireTestbed(const TestbedConfig &cfg)
{
    return std::make_unique<Testbed>(cfg);
}

struct TestbedCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

inline TestbedCacheStats
testbedCacheStats()
{
    return {};
}

inline void
Testbed::reset()
{
    const TestbedConfig c = cfg;
    std::destroy_at(this);
    std::construct_at(this, c);
}

} // namespace virtsim

#endif // VIRTSIM_CORE_TESTBED_HH
