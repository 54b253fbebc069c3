/**
 * @file
 * A complete simulated server machine: CPUs, interrupt controller,
 * timers, MMU/TLBs, memory and NIC, bound to one event queue.
 *
 * Factory configurations reproduce the paper's testbeds (Section III):
 * HP Moonshot m400 (8-core ARMv8 X-Gene, 64 GB, 10 GbE) and Dell
 * PowerEdge r320 (8-core Xeon E5-2450 with hyperthreading off, 16 GB,
 * 10 GbE).
 */

#ifndef VIRTSIM_HW_MACHINE_HH
#define VIRTSIM_HW_MACHINE_HH

#include <memory>
#include <string>
#include <vector>

#include "hw/cost_model.hh"
#include "hw/cpu.hh"
#include "hw/gic.hh"
#include "hw/memory.hh"
#include "hw/mmu.hh"
#include "hw/nic.hh"
#include "hw/vtimer.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"

namespace virtsim {

/** Static description of a machine. */
struct MachineConfig
{
    std::string name = "machine";
    CostModel costs = CostModel::armAtlas();
    int nCpus = 8;
    /** RAM in GiB (configuration bookkeeping; Section III uses it to
     *  carve VM / Dom0 / hypervisor shares). */
    int ramGib = 64;
    Nic::Params nicParams{};

    /** The paper's ARM testbed node. */
    static MachineConfig hpMoonshotM400();

    /** The paper's x86 testbed node. */
    static MachineConfig dellR320();
};

/**
 * A running machine instance.
 */
class Machine
{
  public:
    Machine(EventQueue &eq, MachineConfig config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg; }
    Arch arch() const { return cfg.costs.arch; }
    const CostModel &costs() const { return cfg.costs; }
    const Frequency &freq() const { return cfg.costs.freq; }

    EventQueue &queue() { return eq; }

    /**
     * The machine's event counters (traps, world switches, grant
     * copies, packets, ...), keyed by interned TapId: a bump is an
     * array index and an add, with no string and no lock. Private to
     * the machine: MetricsRegistry::snapshot() never sees it.
     */
    MetricsDomain &counters() { return _counters; }
    const MetricsDomain &counters() const { return _counters; }

    /** Observability bundle (trace sink, metrics, timeline, request
     *  latency). */
    Probe &probe() { return _probe; }
    TraceSink &trace() { return _probe.trace; }
    MetricsRegistry &metrics() { return _probe.metrics; }

    int numCpus() const { return static_cast<int>(cpus.size()); }
    PhysicalCpu &cpu(PcpuId id);

    IrqChip &irqChip() { return *chip; }

    /** ARM-only accessor. @pre arch() == Arch::Arm */
    Gic &gic();

    /** x86-only accessor. @pre arch() == Arch::X86 */
    Apic &apic();

    TimerBank &timers() { return *_timers; }
    Mmu &mmu() { return _mmu; }
    MainMemory &memory() { return _memory; }
    Nic &nic() { return *_nic; }

  private:
    static constexpr const char *counterDomainName = "machine.counters";

    /**
     * Register this machine's hardware gauges with the timeline
     * sampler: per-CPU exception level / run mode and busy-cycle
     * rate, GIC list-register occupancy (ARM), event-queue depth,
     * NIC rx queue depth and drop rate, and the stage-2 fault rate.
     */
    void registerTimelineGauges();

    MachineConfig cfg;
    EventQueue &eq;
    MetricsDomain _counters{counterDomainName};
    Probe _probe;
    std::vector<std::unique_ptr<PhysicalCpu>> cpus;
    std::unique_ptr<IrqChip> chip;
    std::unique_ptr<TimerBank> _timers;
    Mmu _mmu;
    MainMemory _memory;
    std::unique_ptr<Nic> _nic;
};

} // namespace virtsim

#endif // VIRTSIM_HW_MACHINE_HH
