#include "hw/gic.hh"

#include "sim/attrib.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** Taps interned once; the chip hot paths then use plain ids. */
struct ChipTaps
{
    TapId externalRaised = internTap("irqchip.external_raised");
    TapId ppiRaised = internTap("irqchip.ppi_raised");
    TapId ipiSent = internTap("irqchip.ipi_sent");
    TapId virqInjected = internTap("gic.virq_injected");
    TapId lrWrite = internTap("gic.lr_write");
    TapId lrOverflow = internTap("gic.lr_overflow");
    TapId guestAck = internTap("gic.guest_ack");
    TapId guestComplete = internTap("gic.guest_complete");
    TapId spuriousComplete = internTap("gic.spurious_complete");
    TapId apicVirqInjected = internTap("apic.virq_injected");
    TapId apicGuestAck = internTap("apic.guest_ack");
};

const ChipTaps &
chipTaps()
{
    static const ChipTaps taps;
    return taps;
}

} // namespace

IrqChip::IrqChip(EventQueue &eq, const CostModel &cm,
                 MetricsDomain &counters, Probe *probe)
    : eq(eq), cm(cm), counters(counters), probe(probe)
{
}

PcpuId
IrqChip::externalRoute(IrqId irq) const
{
    auto it = routes.find(irq);
    return it == routes.end() ? PcpuId{0} : it->second;
}

void
IrqChip::raiseExternal(Cycles t, IrqId irq)
{
    counters.counter(chipTaps().externalRaised).inc();
    deliver(t, externalRoute(irq), irq);
}

void
IrqChip::raisePpi(Cycles t, PcpuId cpu, IrqId irq)
{
    counters.counter(chipTaps().ppiRaised).inc();
    deliver(t, cpu, irq);
}

void
IrqChip::sendIpi(Cycles t, PcpuId target, IrqId irq)
{
    // The one latency is added below; a departure in the past would
    // deliver sooner than ipiFlight after now.
    VIRTSIM_ASSERT(t >= eq.now(), "IPI sent at ", t, " before now ",
                   eq.now());
    counters.counter(chipTaps().ipiSent).inc();
    std::uint64_t token = 0;
    if (probe) {
        probe->metrics.machine().counter(chipTaps().ipiSent).inc();
        probe->metrics.cpu(target).counter(chipTaps().ipiSent).inc();
        token = probe->trace.edgeOut(t, edgeIpiTap(), TraceCat::Irq,
                                     noTrack);
    }
    // Inline the delivery scheduling (rather than deliver()) so the
    // causal edge closes at the exact delivery instant on the target
    // track.
    VIRTSIM_ASSERT(handler, "no physical IRQ handler installed");
    const Cycles td = t + cm.ipiFlight;
    eq.scheduleAt(td, [this, td, target, irq, token] {
        if (probe) {
            probe->trace.edgeIn(td, token, edgeIpiTap(),
                                TraceCat::Irq,
                                static_cast<std::uint16_t>(target));
        }
        handler(td, target, irq);
    });
}

void
IrqChip::deliver(Cycles t, PcpuId cpu, IrqId irq)
{
    VIRTSIM_ASSERT(handler, "no physical IRQ handler installed");
    // Schedule rather than call: delivery must respect event ordering
    // even when t == now.
    eq.scheduleAt(t, [this, t, cpu, irq] { handler(t, cpu, irq); });
}

Gic::Gic(EventQueue &eq, const CostModel &cm, MetricsDomain &counters,
         int n_cpus, Probe *probe)
    : IrqChip(eq, cm, counters, probe),
      lrs(static_cast<std::size_t>(n_cpus))
{
}

int
Gic::injectVirq(Cycles t, PcpuId cpu, IrqId virq)
{
    auto &regs = listRegs(cpu);
    for (std::size_t i = 0; i < regs.size(); ++i) {
        if (regs[i].empty()) {
            regs[i].virq = virq;
            regs[i].pending = true;
            regs[i].active = false;
            counters.counter(chipTaps().virqInjected).inc();
            if (probe) {
                auto &mach = probe->metrics.machine();
                mach.counter(chipTaps().virqInjected).inc();
                probe->trace.instant(
                    t, chipTaps().lrWrite, TraceCat::Irq,
                    static_cast<std::uint16_t>(cpu),
                    static_cast<std::uint64_t>(virq));
                regs[i].edgeToken = probe->trace.edgeOut(
                    t, edgeLrTap(), TraceCat::Irq,
                    static_cast<std::uint16_t>(cpu));
            }
            return static_cast<int>(i);
        }
    }
    counters.counter(chipTaps().lrOverflow).inc();
    if (probe) {
        probe->metrics.machine().counter(chipTaps().lrOverflow).inc();
        probe->metrics.cpu(cpu).counter(chipTaps().lrOverflow).inc();
    }
    return -1;
}

std::array<ListReg, numListRegs> &
Gic::listRegs(PcpuId cpu)
{
    VIRTSIM_ASSERT(cpu >= 0 && static_cast<std::size_t>(cpu) < lrs.size(),
                   "bad pcpu ", cpu);
    return lrs[static_cast<std::size_t>(cpu)];
}

IrqId
Gic::guestAckVirq(PcpuId cpu, Cycles t)
{
    auto &regs = listRegs(cpu);
    for (auto &lr : regs) {
        if (!lr.empty() && lr.pending) {
            lr.pending = false;
            lr.active = true;
            counters.counter(chipTaps().guestAck).inc();
            if (probe && lr.edgeToken != 0 && t != 0) {
                probe->trace.edgeIn(t, lr.edgeToken, edgeLrTap(),
                                    TraceCat::Irq,
                                    static_cast<std::uint16_t>(cpu));
            }
            lr.edgeToken = 0;
            return lr.virq;
        }
    }
    return -1;
}

Cycles
Gic::guestCompleteVirq(PcpuId cpu, IrqId virq)
{
    auto &regs = listRegs(cpu);
    for (auto &lr : regs) {
        if (lr.virq == virq && lr.active) {
            lr.clear();
            counters.counter(chipTaps().guestComplete).inc();
            return cm.virqCompletionInVm;
        }
    }
    // Completing an interrupt that is not active is a guest bug in a
    // real system; tolerate it but count it.
    counters.counter(chipTaps().spuriousComplete).inc();
    return cm.virqCompletionInVm;
}

bool
Gic::anyVirqLive(PcpuId cpu) const
{
    const auto &regs = lrs[static_cast<std::size_t>(cpu)];
    for (const auto &lr : regs) {
        if (!lr.empty())
            return true;
    }
    return false;
}

Apic::Apic(EventQueue &eq, const CostModel &cm, MetricsDomain &counters,
           int n_cpus, Probe *probe)
    : IrqChip(eq, cm, counters, probe),
      pendingVirq(static_cast<std::size_t>(n_cpus), -1)
{
}

Cycles
Apic::injectVirq(Cycles t, PcpuId cpu, IrqId virq)
{
    VIRTSIM_ASSERT(cpu >= 0 &&
                   static_cast<std::size_t>(cpu) < pendingVirq.size(),
                   "bad pcpu ", cpu);
    pendingVirq[static_cast<std::size_t>(cpu)] = virq;
    counters.counter(chipTaps().apicVirqInjected).inc();
    if (probe) {
        probe->metrics.machine().counter(chipTaps().virqInjected).inc();
        probe->trace.instant(t, chipTaps().lrWrite, TraceCat::Irq,
                             static_cast<std::uint16_t>(cpu),
                             static_cast<std::uint64_t>(virq));
    }
    return cm.listRegWrite;
}

IrqId
Apic::guestAckVirq(PcpuId cpu)
{
    auto &slot = pendingVirq[static_cast<std::size_t>(cpu)];
    const IrqId virq = slot;
    slot = -1;
    if (virq >= 0)
        counters.counter(chipTaps().apicGuestAck).inc();
    return virq;
}

} // namespace virtsim
