#include "hv/grant_table.hh"

#include <algorithm>

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
    : mach(m), granter(granter),
      granterOwner(m.memory().intern(granter.name()))
{
}

GrantTable::Entry *
GrantTable::find(GrantRef ref)
{
    if (ref >= base) {
        const auto i = static_cast<std::size_t>(ref - base);
        return i < window.size() && window[i].live ? &window[i] : nullptr;
    }
    const auto it = settledAt(ref);
    return it != settled.end() && it->first == ref ? &it->second
                                                    : nullptr;
}

std::vector<std::pair<GrantRef, GrantTable::Entry>>::iterator
GrantTable::settledAt(GrantRef ref)
{
    return std::lower_bound(
        settled.begin(), settled.end(), ref,
        [](const auto &e, GrantRef r) { return e.first < r; });
}

void
GrantTable::compact()
{
    const std::size_t drop = window.size() / 2;
    for (std::size_t i = 0; i < drop; ++i) {
        if (window[i].live) {
            settled.emplace_back(base + static_cast<GrantRef>(i),
                                 window[i]);
            --liveInWindow;
        }
    }
    window.erase(window.begin(),
                 window.begin() + static_cast<long>(drop));
    base += static_cast<GrantRef>(drop);
}

GrantRef
GrantTable::grant(BufferId buf, bool readonly)
{
    VIRTSIM_ASSERT(mach.memory().valid(buf), "granting invalid buffer");
    VIRTSIM_ASSERT(mach.memory().ownerId(buf) == granterOwner,
                   "vm ", granter.name(), " granting buffer it does not"
                   " own (owner: ", mach.memory().owner(buf), ")");
    // Amortized O(1): the window is compacted only once at least
    // half of it is free.
    if (window.size() >= 64 && 2 * liveInWindow <= window.size())
        compact();
    const GrantRef ref = base + static_cast<GrantRef>(window.size());
    window.push_back(Entry{buf, readonly, false, true});
    ++liveInWindow;
    mach.counters().counter(grantTaps().granted).inc();
    return ref;
}

void
GrantTable::end(GrantRef ref)
{
    Entry *e = find(ref);
    VIRTSIM_ASSERT(e, "ending unknown grant ", ref);
    VIRTSIM_ASSERT(!e->mapped, "ending grant ", ref, " while still mapped");
    if (ref >= base) {
        e->live = false;
        --liveInWindow;
    } else {
        settled.erase(settledAt(ref));
    }
}

Cycles
GrantTable::map(GrantRef ref)
{
    Entry *e = find(ref);
    VIRTSIM_ASSERT(e, "mapping unknown grant ", ref);
    VIRTSIM_ASSERT(!e->mapped, "double map of grant ", ref);
    e->mapped = true;
    mach.counters().counter(grantTaps().maps).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().map,
                         TraceCat::Io, noTrack,
                         static_cast<std::uint64_t>(ref));
    return grantMapFixedCost();
}

Cycles
GrantTable::unmap(GrantRef ref)
{
    Entry *e = find(ref);
    VIRTSIM_ASSERT(e, "unmapping unknown grant ", ref);
    VIRTSIM_ASSERT(e->mapped, "unmap of unmapped grant ", ref);
    e->mapped = false;
    mach.counters().counter(grantTaps().unmaps).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().unmap,
                         TraceCat::Io, noTrack,
                         static_cast<std::uint64_t>(ref));
    // Removing the mapping requires invalidating any cached
    // translation on every physical CPU before the page can be
    // considered private again.
    const Cycles tlb = mach.mmu().invalidatePageBroadcast(
        granter.id(), static_cast<Ipa>(e->buf));
    return grantUnmapFixedCost() + tlb;
}

Cycles
GrantTable::copy(GrantRef ref, std::uint32_t bytes)
{
    VIRTSIM_ASSERT(find(ref), "copy via unknown grant ", ref);
    mach.counters().counter(grantTaps().copies).inc();
    mach.trace().instant(mach.queue().now(), grantTaps().copy,
                         TraceCat::Io, noTrack, bytes);
    return grantCopyFixedCost() + mach.memory().copyCost(bytes);
}

bool
GrantTable::isMapped(GrantRef ref) const
{
    const Entry *e = find(ref);
    return e && e->mapped;
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
