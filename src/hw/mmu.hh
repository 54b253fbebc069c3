/**
 * @file
 * Memory virtualization: Stage-2 page tables and TLBs.
 *
 * When Stage-2 translation is enabled, the paper's three address
 * spaces apply: a VM's virtual addresses (VA) translate to
 * intermediate physical addresses (IPA) via the guest's Stage-1
 * tables, and IPAs translate to machine physical addresses (PA) via
 * the hypervisor-controlled Stage-2 tables. virtsim models Stage-2
 * explicitly (it is what hypervisors manipulate: faults, grant
 * mappings, zero-copy buffers) and charges Stage-1 costs statistically
 * inside workload models.
 *
 * The TLB model matters for one paper finding: removing a Xen grant
 * mapping requires invalidating TLB entries on every physical CPU. On
 * x86 that is an IPI shootdown that made zero-copy grants a net loss
 * (Section V); ARM has hardware broadcast invalidation.
 */

#ifndef VIRTSIM_HW_MMU_HH
#define VIRTSIM_HW_MMU_HH

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "hw/cost_model.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** Page number types (4 KiB granules). */
using Ipa = std::uint64_t; ///< intermediate physical page number
using Pa = std::uint64_t;  ///< machine physical page number

/** Address-space identifier of a Stage-2 translation regime (VMID). */
using VmId = int;

/**
 * Stage-2 page tables for one VM, owned by the hypervisor.
 */
class Stage2Tables
{
  public:
    explicit Stage2Tables(VmId vmid) : _vmid(vmid) {}

    VmId vmid() const { return _vmid; }

    /** Install a mapping ipa -> pa. Overwrites an existing one. */
    void map(Ipa ipa, Pa pa, bool writable = true);

    /** Remove a mapping. @return true if one existed. */
    bool unmap(Ipa ipa);

    /** Look up a mapping. */
    std::optional<Pa> lookup(Ipa ipa) const;

    bool isWritable(Ipa ipa) const;

    std::size_t mappedPages() const { return table.size(); }

  private:
    struct Entry
    {
        Pa pa;
        bool writable;
    };

    VmId _vmid;
    std::unordered_map<Ipa, Entry> table;
};

/**
 * Per-physical-CPU TLB caching (vmid, ipa) -> pa translations, with a
 * bounded capacity and FIFO-ish eviction. Determinism matters more
 * than replacement fidelity here.
 */
class Tlb
{
  public:
    explicit Tlb(std::size_t capacity = 512) : capacity(capacity) {}

    /** @return true on hit; misses do not auto-fill. */
    bool lookup(VmId vmid, Ipa ipa) const;

    /** Fill after a walk. Evicts the oldest entry when full. */
    void fill(VmId vmid, Ipa ipa);

    /** Invalidate one page of one VMID. */
    void invalidatePage(VmId vmid, Ipa ipa);

    std::size_t size() const { return entries.size(); }

  private:
    static std::uint64_t
    key(VmId vmid, Ipa ipa)
    {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(vmid))
                << 40) ^ ipa;
    }

    std::size_t capacity;
    std::unordered_set<std::uint64_t> entries;
    std::vector<std::uint64_t> order; ///< insertion order for eviction
};

/**
 * The machine's memory-management hardware: one TLB per physical CPU
 * plus the cost accounting for walks and invalidations.
 */
class Mmu
{
  public:
    /** probe is optional: standalone MMUs (unit tests) pass none. */
    Mmu(const CostModel &cm, MetricsDomain &counters, int n_cpus,
        Probe *probe = nullptr);

    /**
     * Translate an IPA on a CPU under the given Stage-2 tables.
     * Charges nothing itself; returns the *cycle cost* of the
     * translation (0 on TLB hit, combined-walk cost on miss) so the
     * caller can put it on the right CPU's timeline.
     * @return pair of (pa, cost); pa is nullopt on translation fault.
     */
    std::pair<std::optional<Pa>, Cycles>
    translate(PcpuId cpu, const Stage2Tables &tables, Ipa ipa);

    /**
     * Invalidate a page on every CPU.
     * @return cost on the *initiating* CPU. On ARM this is one
     *         broadcast instruction; on x86 it is an IPI shootdown
     *         whose cost scales with CPU count.
     */
    Cycles invalidatePageBroadcast(VmId vmid, Ipa ipa);

    Tlb &tlb(PcpuId cpu) { return tlbs.at(static_cast<std::size_t>(cpu)); }

    int numCpus() const { return static_cast<int>(tlbs.size()); }

  private:
    const CostModel &cm;
    MetricsDomain &counters;
    Probe *probe; ///< may be null (standalone MMU)
    std::vector<Tlb> tlbs;
};

} // namespace virtsim

#endif // VIRTSIM_HW_MMU_HH
