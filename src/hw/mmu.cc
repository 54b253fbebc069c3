#include "hw/mmu.hh"

#include <algorithm>

#include "sim/log.hh"

namespace virtsim {

void
Stage2Tables::map(Ipa ipa, Pa pa, bool writable)
{
    table[ipa] = Entry{pa, writable};
}

bool
Stage2Tables::unmap(Ipa ipa)
{
    return table.erase(ipa) > 0;
}

std::optional<Pa>
Stage2Tables::lookup(Ipa ipa) const
{
    auto it = table.find(ipa);
    if (it == table.end())
        return std::nullopt;
    return it->second.pa;
}

bool
Stage2Tables::isWritable(Ipa ipa) const
{
    auto it = table.find(ipa);
    return it != table.end() && it->second.writable;
}

bool
Tlb::lookup(VmId vmid, Ipa ipa) const
{
    return entries.count(key(vmid, ipa)) > 0;
}

void
Tlb::fill(VmId vmid, Ipa ipa)
{
    const std::uint64_t k = key(vmid, ipa);
    if (entries.count(k))
        return;
    if (entries.size() >= capacity && !order.empty()) {
        entries.erase(order.front());
        order.erase(order.begin());
    }
    entries.insert(k);
    order.push_back(k);
}

void
Tlb::invalidatePage(VmId vmid, Ipa ipa)
{
    const std::uint64_t k = key(vmid, ipa);
    if (entries.erase(k) > 0)
        order.erase(std::remove(order.begin(), order.end(), k),
                    order.end());
}

void
Tlb::invalidateVmid(VmId vmid)
{
    // Key layout places the vmid in the high bits; filter by re-check.
    for (auto it = order.begin(); it != order.end();) {
        const std::uint64_t k = *it;
        if ((k >> 40) ==
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(vmid))) {
            entries.erase(k);
            it = order.erase(it);
        } else {
            ++it;
        }
    }
}

void
Tlb::invalidateAll()
{
    entries.clear();
    order.clear();
}

namespace {

struct MmuTaps
{
    TapId tlbHit = internTap("mmu.tlb_hit");
    TapId tlbMiss = internTap("mmu.tlb_miss");
    TapId stage2Fault = internTap("mmu.stage2_fault");
    TapId broadcastInvalidate = internTap("mmu.broadcast_invalidate");
    TapId broadcastInvalidateVmid =
        internTap("mmu.broadcast_invalidate_vmid");
};

const MmuTaps &
mmuTaps()
{
    static const MmuTaps taps;
    return taps;
}

} // namespace

Mmu::Mmu(const CostModel &cm, MetricsDomain &counters, int n_cpus,
         Probe *probe)
    : cm(cm), counters(counters), probe(probe),
      tlbs(static_cast<std::size_t>(n_cpus))
{
    mmuTaps(); // intern before a sharded run freezes the counters
}

std::pair<std::optional<Pa>, Cycles>
Mmu::translate(PcpuId cpu, const Stage2Tables &tables, Ipa ipa)
{
    Tlb &t = tlb(cpu);
    if (t.lookup(tables.vmid(), ipa)) {
        counters.counter(mmuTaps().tlbHit).inc();
        const auto pa = tables.lookup(ipa);
        VIRTSIM_ASSERT(pa, "TLB hit for unmapped page; stale TLB entry: "
                       "vmid=", tables.vmid(), " ipa=", ipa);
        return {pa, 0};
    }
    counters.counter(mmuTaps().tlbMiss).inc();
    const Cycles cost = cm.pageTableWalk + cm.stage2WalkExtra;
    const auto pa = tables.lookup(ipa);
    if (!pa) {
        counters.counter(mmuTaps().stage2Fault).inc();
        if (probe) {
            const TapId tap = mmuTaps().stage2Fault;
            probe->metrics.machine().counter(tap).inc();
            probe->metrics.cpu(cpu).counter(tap).inc();
        }
        return {std::nullopt, cost};
    }
    t.fill(tables.vmid(), ipa);
    return {pa, cost};
}

Cycles
Mmu::invalidatePageBroadcast(VmId vmid, Ipa ipa)
{
    for (auto &t : tlbs)
        t.invalidatePage(vmid, ipa);
    counters.counter(mmuTaps().broadcastInvalidate).inc();
    if (cm.arch == Arch::Arm) {
        // Hardware DVM broadcast: single instruction on the initiator.
        return cm.tlbInvalidateBroadcast;
    }
    // x86: IPI shootdown; initiator waits for acknowledgements from
    // every other CPU (the documented reason Xen x86 gave up on
    // zero-copy grants).
    return cm.tlbInvalidateBroadcast +
           static_cast<Cycles>(tlbs.size() - 1) * cm.ipiFlight;
}

Cycles
Mmu::invalidateVmidBroadcast(VmId vmid)
{
    for (auto &t : tlbs)
        t.invalidateVmid(vmid);
    counters.counter(mmuTaps().broadcastInvalidateVmid).inc();
    if (cm.arch == Arch::Arm)
        return cm.tlbInvalidateBroadcast;
    return cm.tlbInvalidateBroadcast +
           static_cast<Cycles>(tlbs.size() - 1) * cm.ipiFlight;
}

} // namespace virtsim
