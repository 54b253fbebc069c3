/**
 * @file
 * Physical CPU model.
 *
 * A PhysicalCpu is a serialized execution resource with a time
 * "frontier": work items reserve [start, start + cost) intervals where
 * start is never before either the requested ready time or the end of
 * previously reserved work. This models contention on a pinned core —
 * e.g. a vhost thread and host IRQ handling competing for the same
 * PCPU — without needing a full instruction-level CPU.
 *
 * Each CPU also carries a live RegFile (actual register *values*, not
 * just costs) so that world switches really move state around and
 * tests can verify that VM register state is preserved and isolated
 * across switches, the functional property underlying the paper's
 * split-mode discussion.
 */

#ifndef VIRTSIM_HW_CPU_HH
#define VIRTSIM_HW_CPU_HH

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "hw/arch.hh"
#include "hw/cost_model.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * A bank of architectural register values, organized by RegClass.
 * Sizes approximate the real architecture (31 GP registers, 32 SIMD
 * registers, etc.); what matters functionally is that state written
 * while one context runs must survive a world switch round trip.
 */
class RegFile
{
  public:
    RegFile();

    /** Number of registers in a class. */
    static std::size_t bankSize(RegClass cls);

    std::vector<std::uint64_t> &bank(RegClass cls);
    const std::vector<std::uint64_t> &bank(RegClass cls) const;

    /** Fill every register of every class with a recognizable value
     *  derived from tag (used by isolation tests). */
    void fillPattern(std::uint64_t tag);

    /** @return true if every register of every class matches the
     *  pattern written by fillPattern(tag). */
    bool matchesPattern(std::uint64_t tag) const;

    /** Copy one class of registers from another file. */
    void copyClassFrom(const RegFile &other, RegClass cls);

  private:
    std::array<std::vector<std::uint64_t>, numRegClasses> banks;
};

/**
 * One physical CPU core of a simulated machine.
 */
class PhysicalCpu
{
  public:
    PhysicalCpu(PcpuId id, EventQueue &eq, const CostModel &cm);

    PhysicalCpu(const PhysicalCpu &) = delete;
    PhysicalCpu &operator=(const PhysicalCpu &) = delete;

    PcpuId id() const { return _id; }

    /** @name Execution-time accounting */
    ///@{
    /**
     * Reserve cost cycles of execution starting no earlier than ready
     * and no earlier than the end of previously reserved work.
     * @return the completion time of the reserved work.
     */
    Cycles charge(Cycles ready, Cycles cost);

    /**
     * charge() and then run fn at the completion time, on this CPU's
     * in-order stream of the event queue (EventQueue::scheduleOn):
     * completions never go backwards, so the CPU's backlog waits
     * outside the event heap.
     */
    template <typename F>
    void
    run(Cycles ready, Cycles cost, F &&fn)
    {
        const Cycles done = charge(ready, cost);
        if (stream == 0) [[unlikely]]
            stream = eq.openStream();
        eq.scheduleOn(stream, done, std::forward<F>(fn));
    }

    /** Time at which the CPU becomes free. */
    Cycles frontier() const { return _frontier; }

    /** Total busy cycles reserved so far (for utilization stats). */
    Cycles busyCycles() const { return _busy; }

    /** Utilization over [0, now]. */
    double utilization(Cycles now) const;
    ///@}

    /** @name Mode tracking */
    ///@{
    CpuMode mode() const { return _mode; }
    void setMode(CpuMode m) { _mode = m; }
    ///@}

    /** Live architectural register values. */
    RegFile &regs() { return _regs; }
    const RegFile &regs() const { return _regs; }

    const CostModel &costs() const { return cm; }

  private:
    PcpuId _id;
    EventQueue &eq;
    const CostModel &cm;
    Cycles _frontier = 0;
    Cycles _busy = 0;
    StreamId stream = 0; ///< opened on the first run()
    CpuMode _mode;
    RegFile _regs;
};

} // namespace virtsim

#endif // VIRTSIM_HW_CPU_HH
