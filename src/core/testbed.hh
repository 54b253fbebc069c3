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
#include <string>

#include "hv/hypervisor.hh"
#include "hv/kvm.hh"
#include "hv/xen.hh"
#include "hw/machine.hh"
#include "hw/wire.hh"
#include "os/netstack.hh"
#include "sim/attrib.hh"
#include "sim/flight.hh"
#include "sim/random.hh"
#include "sim/slo.hh"

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

    /** Cells with equal configs are interchangeable worlds — the
     *  testbed cache keys on this. */
    bool operator==(const TestbedConfig &) const = default;
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

    /** The sharded event kernel the testbed runs on (lane count from
     *  VIRTSIM_SHARDS). Every component of a classic testbed world
     *  lives on lane 0 — hypervisor run queues, backend rings and the
     *  workload surface share state at zero latency, which the
     *  sharding model only permits within one lane — so execution and
     *  output are byte-identical at every VIRTSIM_SHARDS value. The
     *  multi-lane fleet world (core/fleet.hh) is where extra lanes
     *  carry real work. */
    ShardedEventKernel &kernel() { return kern; }
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
    CausalAnalyzer &attribution();
    const NetstackCosts &netCosts() const { return net; }

    /**
     * Reset run-scoped observability (stats, counters, trace records,
     * profiler) so back-to-back workloads on one testbed report
     * independent numbers. Workload entry points call this; tap
     * registrations and the trace-enabled flag survive.
     */
    void beginRun();

    /**
     * Return the testbed to its just-constructed state: hypervisor
     * and VMs rebuilt from the config, event queue rewound to cycle
     * zero, machine hardware and registries restored, PRNG reseeded,
     * workload callbacks dropped. A reset testbed is
     * *fresh-equivalent*: any workload run on it produces bytes
     * identical to the same workload on a newly constructed
     * Testbed{config()} — the property the testbed cache and the
     * VIRTSIM_JOBS determinism guarantee rest on.
     */
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

    /** Drain the event kernel. @return final simulated time. */
    Cycles
    run()
    {
        // One predicted branch when sampling is off; otherwise arm
        // the first sampling tick before the queue starts draining.
        server->probe().timeline.ensureScheduled(eq);
        return kern.run();
    }

    /** The machine's timeline sampler (gauge series + watchdog). */
    TimelineSampler &timeline() { return server->probe().timeline; }

    /**
     * Write every export armed at construction (VIRTSIM_TRACE /
     * METRICS / FLAME / TIMELINE / SHARD_PROFILE / LATENCY). Runs at
     * most once
     * per run: the destructor calls it, and so does TestbedLease
     * release, so cached worlds parked in persistent pool workers
     * export without waiting for process teardown; reset() re-arms
     * for the next run. No-op with no export armed.
     */
    void exportObservability();

    /**
     * Programmatically arm timeline sampling at the given rate, as if
     * VIRTSIM_TIMELINE_HZ were set (no file export unless a path was
     * configured too). For tests and benches that want the series or
     * the watchdog in-process; survives reset() like the env opt-ins.
     * Note: acquireTestbed()'s cache only bypasses on the env vars,
     * so call this on directly constructed testbeds only.
     */
    void
    enableTimeline(double hz)
    {
        timelineWanted = true;
        timelineHz = hz;
        applyObservability();
    }

    /**
     * Programmatically arm request-latency tracking and the SLO
     * engine, as if VIRTSIM_LATENCY were set (no file export unless a
     * path was configured too). Also arms timeline sampling — the SLO
     * burn windows evaluate in the sample hook. Survives reset() like
     * the env opt-ins; same cache caveat as enableTimeline().
     */
    void
    enableLatency()
    {
        latencyWanted = true;
        applyObservability();
    }

    /** The per-request phase histograms (sim/latency). Disabled until
     *  VIRTSIM_LATENCY or enableLatency() arms tracking. */
    RequestTracker &latency() { return server->probe().latency; }

    /** The SLO engine judging this testbed's request latency; unarmed
     *  (no specs) until latency tracking is enabled. */
    SloEngine &sloEngine() { return slo; }

    /** Failing end-of-run SLO verdicts so far; 0 when unarmed. */
    std::uint64_t
    sloBreaches() const
    {
        return slo.armed() ? slo.breaches() : 0;
    }

  private:
    void buildNative();
    void buildVirtualized();
    /** Re-apply the VIRTSIM_TRACE/METRICS/FLAME/TIMELINE opt-ins
     *  captured at construction (trace enable, analyzer attach,
     *  profiler hookup, sampler arming + watchdog rules) on a freshly
     *  built or reset world. */
    void applyObservability();
    /** Install the default watchdog rule set over the registered
     *  gauges (stalled VCPU, sustained LR saturation, NIC queue
     *  bound, rx-drop burst). No-op if rules are already present. */
    void installWatchdogRules();
    PhysicalCpu &lcpuOf(int lcpu);
    Vcpu &vcpuOf(int lcpu);

    TestbedConfig cfg;
    /** Declared before eq: eq aliases lane 0. */
    ShardedEventKernel kern;
    EventQueue &eq;
    Random rng;
    std::unique_ptr<Machine> server;
    std::unique_ptr<Hypervisor> hv;
    std::unique_ptr<Wire> wire_;
    Vm *guestVm = nullptr;
    NetstackCosts net;
    std::string tracePath;   ///< VIRTSIM_TRACE destination, if set
    std::string metricsPath; ///< VIRTSIM_METRICS destination, if set
    std::string flamePath;   ///< VIRTSIM_FLAME destination, if set
    std::string timelinePath; ///< VIRTSIM_TIMELINE destination, if set
    /** VIRTSIM_SHARD_PROFILE destination, if set. */
    std::string shardProfilePath;
    std::string latencyPath; ///< VIRTSIM_LATENCY destination, if set
    bool latencyWanted = false; ///< enableLatency() was called
    /** VIRTSIM_INCIDENTS destination directory, if set. */
    std::string incidentsDir;
    /** Judges request latency against the configured objectives (the
     *  default netperf-RR contract unless env overrides apply). */
    SloEngine slo;
    /** Incident forensics: armed by applyObservability() under
     *  VIRTSIM_INCIDENTS, flushed in exportObservability(). */
    FlightRecorder flight;
    /** flight's hooks are installed on the current world (cleared by
     *  reset(): the rebuilt sampler starts hookless). */
    bool flightArmed = false;
    /** exportObservability() already ran for the current run. */
    bool observabilityExported = false;
    /** Sampling rate in simulated Hz (VIRTSIM_TIMELINE_HZ or
     *  enableTimeline()); 100 kHz default keeps a Table V run well
     *  inside the per-series capacity. */
    double timelineHz = 100000.0;
    bool timelineWanted = false; ///< enableTimeline() was called
    std::unique_ptr<CausalAnalyzer> _attrib;
    std::uint64_t txSeq = 0;
    /** Native-mode pending IPI completions per CPU. */
    std::array<std::deque<Done>, 8> nativeIpiDone;
};

/**
 * RAII handle to a testbed obtained from acquireTestbed(). When the
 * testbed came from the per-thread cache the lease releases it for
 * reuse on destruction; when the cache is bypassed the lease owns the
 * testbed outright and destroys it.
 */
class TestbedLease
{
  public:
    /** Owning lease (cache bypassed). */
    explicit TestbedLease(std::unique_ptr<Testbed> owned)
        : owning(std::move(owned)), cached(nullptr), inUse(nullptr)
    {
    }

    /** Cached lease: tb stays alive in the cache, *in_use flips back
     *  to false on release. */
    TestbedLease(Testbed *tb, bool *in_use)
        : cached(tb), inUse(in_use)
    {
    }

    TestbedLease(TestbedLease &&other) noexcept
        : owning(std::move(other.owning)), cached(other.cached),
          inUse(other.inUse)
    {
        other.cached = nullptr;
        other.inUse = nullptr;
    }

    TestbedLease(const TestbedLease &) = delete;
    TestbedLease &operator=(const TestbedLease &) = delete;
    TestbedLease &operator=(TestbedLease &&) = delete;

    ~TestbedLease()
    {
        if (inUse) {
            // Cached worlds outlive the lease inside the pool worker;
            // flush their exports now, not at process teardown.
            cached->exportObservability();
            *inUse = false;
        }
    }

    Testbed *get() { return owning ? owning.get() : cached; }
    Testbed &operator*() { return *get(); }
    Testbed *operator->() { return get(); }

  private:
    std::unique_ptr<Testbed> owning;
    Testbed *cached;
    bool *inUse;
};

/** Per-thread testbed cache counters (cumulative for the calling
 *  thread; sweep workers each have their own). */
struct TestbedCacheStats
{
    std::uint64_t hits = 0;   ///< acquires served by reset-and-reuse
    std::uint64_t misses = 0; ///< acquires that cold-built a world
};

/** Counters for the calling thread's cache. */
TestbedCacheStats testbedCacheStats();

/**
 * Whether acquireTestbed() may serve cached worlds. False only when
 * VIRTSIM_POOL_CACHE=0 (force cold-build, e.g. to bisect a suspected
 * reset bug). Observability opt-ins no longer bypass the cache:
 * exports flush on lease release (exportObservability) and reset()
 * restores every sink to its fresh state, so cached runs export
 * byte-identically to cold builds. Re-read per call.
 */
bool testbedCacheEnabled();

/**
 * Get a ready-to-use testbed for cfg: a reset() cached instance from
 * the calling thread's cache when one with an equal config is idle,
 * else a freshly built one (cached for next time when caching is
 * enabled). The cache is thread_local — sweep workers persist across
 * sweeps (sim/sweep.hh), so a worker re-entering the same sweep cell
 * skips world construction entirely. Reset guarantees
 * fresh-equivalence, so results are byte-identical whether or not a
 * cache hit occurred — and therefore across VIRTSIM_JOBS values and
 * VIRTSIM_POOL_CACHE settings.
 */
TestbedLease acquireTestbed(const TestbedConfig &cfg);

} // namespace virtsim

#endif // VIRTSIM_CORE_TESTBED_HH
