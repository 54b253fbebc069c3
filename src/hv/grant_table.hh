/**
 * @file
 * The Xen grant mechanism.
 *
 * Xen enforces strict I/O isolation: Dom0 has no default access to a
 * DomU's memory. To move I/O data, the DomU *grants* access to
 * specific pages and Dom0 either maps them (shared page) or asks the
 * hypervisor to copy ("grant copy"). The paper identifies this as the
 * decisive software-architecture cost behind Xen's I/O results:
 *
 *  - each grant copy adds "more than 3 us of additional latency ...
 *    even though only a single byte of data needs to be copied"
 *    (Table V analysis);
 *  - zero-copy (mapping) was abandoned on Xen x86 because removing a
 *    grant mapping requires a TLB shootdown on all physical CPUs,
 *    which "proved more expensive than simply copying the data";
 *    ARM's hardware broadcast TLB invalidation could change that —
 *    the E6 ablation bench explores exactly this question.
 */

#ifndef VIRTSIM_HV_GRANT_TABLE_HH
#define VIRTSIM_HV_GRANT_TABLE_HH

#include <cstdint>
#include <map>

#include "hw/machine.hh"
#include "hv/vm.hh"
#include "sim/types.hh"

namespace virtsim {

/** Handle to an active grant. */
using GrantRef = int;

/**
 * Per-guest grant table, mediated by the hypervisor.
 */
class GrantTable
{
  public:
    GrantTable(Machine &m, Vm &granter);

    /** Guest grants access to one of its buffers. @return the ref. */
    GrantRef grant(BufferId buf, bool readonly);

    /** Guest revokes a grant. @pre the grant is not mapped. */
    void end(GrantRef ref);

    /** @name Backend-side operations (executed by Dom0)
     *  Each returns the cycle cost to charge on the CPU doing it. */
    ///@{
    /** Map a granted page into Dom0 (hypercall + PTE install). */
    Cycles map(GrantRef ref);

    /**
     * Unmap a granted page. Includes the cross-CPU TLB invalidation
     * of the mapping — one broadcast instruction on ARM, an IPI
     * shootdown on x86 (the cost asymmetry of the E6 ablation).
     */
    Cycles unmap(GrantRef ref);

    /**
     * Hypervisor-mediated copy between a Dom0 buffer and the granted
     * buffer. Fixed overhead dominates small copies (the >3 us the
     * paper measures for a single byte).
     */
    Cycles copy(GrantRef ref, std::uint32_t bytes);
    ///@}

    bool isMapped(GrantRef ref) const;
    std::size_t activeGrants() const { return grants.size(); }

    /** @name Cost constants
     *  [calibrated] against the paper's ">3 us per grant copy". */
    ///@{
    /** Hypercall + grant-entry validation + bookkeeping for a copy:
     *  ~2.8 us at 2.4 GHz before any bytes move. */
    Cycles grantCopyFixedCost() const;
    /** Hypercall + PTE install for a map. */
    Cycles grantMapFixedCost() const;
    /** Hypercall + PTE clear for an unmap, excluding TLB work. */
    Cycles grantUnmapFixedCost() const;
    ///@}

  private:
    struct Entry
    {
        BufferId buf;
        bool readonly;
        bool mapped = false;
    };

    Machine &mach;
    Vm &granter;
    OwnerId granterOwner; ///< granter's tag in machine memory
    std::map<GrantRef, Entry> grants;
    GrantRef nextRef = 1;
};

} // namespace virtsim

#endif // VIRTSIM_HV_GRANT_TABLE_HH
