#include "hv/grant_table.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct GrantTaps
{
    TapId map = internTap("grant.map");
    TapId unmap = internTap("grant.unmap");
    TapId copy = internTap("grant.copy");
    /** Machine counters (Machine::counters()). */
    TapId granted = internTap("grant.granted");
    TapId maps = internTap("grant.maps");
    TapId unmaps = internTap("grant.unmaps");
    TapId copies = internTap("grant.copies");
};

const GrantTaps &
grantTaps()
{
    static const GrantTaps taps;
    return taps;
}

} // namespace

GrantTable::GrantTable(Machine &m, Vm &granter)
    : mach(m), granter(granter)
{
}

GrantRef
GrantTable::grant(BufferId buf, bool readonly)
{
    VIRTSIM_ASSERT(mach.memory().valid(buf), "granting invalid buffer");
    VIRTSIM_ASSERT(mach.memory().owner(buf) == granter.name(),
                   "vm ", granter.name(), " granting buffer it does not"
                   " own (owner: ", mach.memory().owner(buf), ")");
    const GrantRef ref = nextRef++;
    grants[ref] = Entry{buf, readonly, false};
    mach.counters().counter(grantTaps().granted).inc();
    return ref;
}

void
GrantTable::end(GrantRef ref)
{
    auto it = grants.find(ref);
    VIRTSIM_ASSERT(it != grants.end(), "ending unknown grant ", ref);
    VIRTSIM_ASSERT(!it->second.mapped,
                   "ending grant ", ref, " while still mapped");
    grants.erase(it);
}

Cycles
GrantTable::map(GrantRef ref)
{
    auto it = grants.find(ref);
    VIRTSIM_ASSERT(it != grants.end(), "mapping unknown grant ", ref);
    VIRTSIM_ASSERT(!it->second.mapped, "double map of grant ", ref);
    it->second.mapped = true;
    mach.counters().counter(grantTaps().maps).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().map,
                         TraceCat::Io, noTrack,
                         static_cast<std::uint64_t>(ref));
    return grantMapFixedCost();
}

Cycles
GrantTable::unmap(GrantRef ref)
{
    auto it = grants.find(ref);
    VIRTSIM_ASSERT(it != grants.end(), "unmapping unknown grant ", ref);
    VIRTSIM_ASSERT(it->second.mapped, "unmap of unmapped grant ", ref);
    it->second.mapped = false;
    mach.counters().counter(grantTaps().unmaps).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().unmap,
                         TraceCat::Io, noTrack,
                         static_cast<std::uint64_t>(ref));
    // Removing the mapping requires invalidating any cached
    // translation on every physical CPU before the page can be
    // considered private again.
    const Cycles tlb = mach.mmu().invalidatePageBroadcast(
        granter.id(), static_cast<Ipa>(it->second.buf));
    return grantUnmapFixedCost() + tlb;
}

Cycles
GrantTable::copy(GrantRef ref, std::uint32_t bytes)
{
    auto it = grants.find(ref);
    VIRTSIM_ASSERT(it != grants.end(), "copy via unknown grant ", ref);
    mach.counters().counter(grantTaps().copies).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().copy,
                         TraceCat::Io, noTrack, bytes);
    return grantCopyFixedCost() + mach.memory().copyCost(bytes);
}

bool
GrantTable::isMapped(GrantRef ref) const
{
    auto it = grants.find(ref);
    return it != grants.end() && it->second.mapped;
}

Cycles
GrantTable::grantCopyFixedCost() const
{
    // [calibrated] Table V analysis: "Each data copy incurs more than
    // 3 us of additional latency ... even though only a single byte
    // needs to be copied". 3 us at 2.4 GHz = 7,200 cycles; the
    // fixed part (hypercall into Xen, grant validation, temporary
    // kernel mapping) is most of it.
    return mach.costs().freq.cycles(3.2);
}

Cycles
GrantTable::grantMapFixedCost() const
{
    return mach.costs().freq.cycles(0.7);
}

Cycles
GrantTable::grantUnmapFixedCost() const
{
    return mach.costs().freq.cycles(0.5);
}

} // namespace virtsim
