#include "os/netback.hh"

#include "sim/attrib.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

struct NetbackTaps
{
    TapId copiesBatched = internTap("grant.copies_batched");
    TapId mapsBatched = internTap("grant.maps_batched");
    TapId rxBacklogDropped = internTap("netback.rx_backlog_dropped");
    TapId rxNoRequest = internTap("netback.rx_no_request");
    TapId txSpuriousKick = internTap("netback.tx_spurious_kick");
};

const NetbackTaps &
netbackTaps()
{
    static const NetbackTaps taps;
    return taps;
}

} // namespace

NetbackBackend::NetbackBackend(Machine &m, Vm &dom0, Vm &domU,
                               const NetstackCosts &net, Params params)
    : mach(m), dom0(dom0), domU(domU), net(net), p(params),
      grants(m, domU), rx(m), tx(m)
{
    VIRTSIM_ASSERT(p.dom0Pcpu < m.numCpus(), "dom0 pinned outside machine");
    netbackTaps(); // intern before a sharded run freezes the counters

    // PV ring and grant-table gauges on Dom0's CPU track; same
    // lifetime argument as the vhost gauges (sampler cleared before
    // the backend is destroyed).
    TimelineSampler &tl = m.probe().timeline;
    const auto track = static_cast<std::uint16_t>(p.dom0Pcpu);
    tl.addGauge("netback.rx_backlog",
                [this] {
                    return static_cast<std::int64_t>(rxBacklogDepth());
                },
                track);
    tl.addGauge("xenring.rx.requests",
                [this] {
                    return static_cast<std::int64_t>(rx.requestDepth());
                },
                track);
    tl.addGauge("xenring.tx.requests",
                [this] {
                    return static_cast<std::int64_t>(tx.requestDepth());
                },
                track);
    tl.addGauge("grant.active",
                [this] {
                    return static_cast<std::int64_t>(
                        grants.activeGrants());
                },
                track);
}

Cycles
NetbackBackend::grantCopyBatchedFixedCost() const
{
    return mach.freq().cycles(0.6);
}

Cycles
NetbackBackend::transferCost(GrantRef ref, std::uint32_t bytes,
                             bool batched)
{
    if (!p.zeroCopyGrants) {
        if (!batched)
            return grants.copy(ref, bytes);
        // Ride in the current GNTTABOP_copy batch: pay the per-op
        // validation + memcpy but not the hypercall entry.
        mach.counters().counter(netbackTaps().copiesBatched).inc();
        return grantCopyBatchedFixedCost() +
               mach.memory().copyCost(bytes);
    }
    // Zero-copy alternative: map the granted page, access in place,
    // unmap (which triggers the cross-CPU TLB invalidation whose cost
    // killed this design on x86 — E6 ablation). Map/unmap ops batch
    // into shared hypercalls like copies do; the TLB maintenance
    // cannot be avoided either way.
    if (!batched)
        return grants.map(ref) + grants.unmap(ref);
    mach.counters().counter(netbackTaps().mapsBatched).inc();
    const Cycles amortized = mach.freq().cycles(0.35) * 2;
    // Charge the unmap's TLB invalidation exactly as GrantTable
    // does, without the hypercall entry cost.
    const Cycles tlb = mach.mmu().invalidatePageBroadcast(
        domU.id(), static_cast<Ipa>(ref));
    return amortized + tlb;
}

void
NetbackBackend::dom0RxToDomU(Cycles t, const Packet &pkt,
                             bool aggregate_leader,
                             std::function<void(Cycles)> ready)
{
    if (rxJobs.size() >= rxJobCap) {
        // Count dropped frames, not aggregates, so conservation
        // accounting stays exact.
        mach.counters().counter(netbackTaps().rxBacklogDropped)
            .inc(static_cast<std::uint64_t>(framesFor(pkt.bytes)));
        return;
    }
    // Causal edge: the NAPI-to-netback-kthread handoff inside Dom0.
    const std::uint64_t token = mach.trace().edgeOut(
        t, edgeWakeTap(), TraceCat::Io,
        static_cast<std::uint16_t>(p.dom0Pcpu));
    rxJobs.push_back(
        RxJob{pkt, aggregate_leader, std::move(ready), token});
    if (rxPumpActive)
        return;
    rxPumpActive = true;
    PhysicalCpu &cpu = mach.cpu(p.dom0Pcpu);
    const Cycles start = std::max(t, cpu.frontier());
    EventFn wake = [this, start] { pumpRx(start); };
    if (wakeCh)
        wakeCh->send(start, std::move(wake));
    else
        mach.queue().scheduleAt(start, std::move(wake));
}

void
NetbackBackend::pumpRx(Cycles t)
{
    if (rxJobs.empty()) {
        rxPumpActive = false;
        rxFresh = true;
        return;
    }
    // Whether the kthread had gone idle before this job: cold runs
    // pay the wakeup and the full per-packet path; a loaded netback
    // amortizes both.
    const bool fresh = rxFresh;
    rxFresh = false;
    RxJob job = std::move(rxJobs.front());
    rxJobs.pop_front();
    mach.trace().edgeIn(t, job.edgeToken, edgeWakeTap(), TraceCat::Io,
                        static_cast<std::uint16_t>(p.dom0Pcpu));
    const Packet &pkt = job.pkt;
    auto ready = std::move(job.ready);
    const bool aggregate_leader = job.leader;

    const Frequency &f = mach.freq();
    PhysicalCpu &cpu = mach.cpu(p.dom0Pcpu);

    // Dom0 stack + bridge, then hand to the netback kthread (same
    // VCPU in the paper's 4-VCPU Dom0 with default affinities).
    const bool hot =
        everRx && t - lastRxAt < f.cycles(30.0);
    lastRxAt = t;
    everRx = true;
    Cycles cost = 0;
    if (fresh)
        cost += f.cycles(p.kthreadWakeUs);
    if (!aggregate_leader) {
        cost += net.perGroFrame;
    } else if (hot && pkt.bytes < 200) {
        // Hot path for ack-sized frames.
        cost += f.cycles(p.smallFrameHotUs);
    } else {
        cost += net.rxStack + f.cycles(p.dom0BridgeUs);
    }

    // Hot-path ack-sized frames: header-only payloads ride a slim
    // grant op and minimal netback work.
    const bool slim = hot && pkt.bytes < 200;
    // Netback works at frame/page granularity across the isolation
    // boundary even when the Dom0 stack handed it a GRO aggregate:
    // each wire frame needs its own posted frontend rx request and
    // its own grant transfer. This per-frame cost is what saturates
    // Dom0 under TCP_STREAM (paper, Section V).
    const int frames = framesFor(pkt.bytes);
    std::uint32_t left = pkt.bytes;
    int copied = 0;
    for (int i = 0; i < frames; ++i) {
        bool ok = false;
        PvRequest req;
        cost += rx.backPop(req, ok);
        if (!ok) {
            // Frontend has not replenished the rx ring: the
            // remainder of the aggregate is dropped, but whatever
            // was already copied must still be delivered (and its
            // ring slots returned), or the ring slowly leaks away.
            mach.counters().counter(netbackTaps().rxNoRequest).inc();
            break;
        }
        const std::uint32_t chunk =
            left > NetstackCosts::mtuBytes ? NetstackCosts::mtuBytes
                                           : left;
        left -= chunk;
        req.pkt = pkt;
        req.pkt.bytes = chunk;
        if (slim) {
            cost += f.cycles(0.5);
        } else {
            // Copies batch into shared hypercalls within an
            // aggregate and across back-to-back jobs on a loaded
            // netback.
            cost += transferCost(req.gref, chunk == 0 ? 1 : chunk,
                                 /*batched=*/i > 0 || !fresh);
            cost += f.cycles(p.netbackRxWorkUs);
        }
        cost += rx.backRespond(req);
        ++copied;
    }
    const Cycles done = cpu.charge(t, cost);
    if (copied > 0) {
        mach.queue().scheduleAt(done,
                                [done, ready = std::move(ready)] {
                                    ready(done);
                                });
    }
    mach.queue().scheduleAt(done, [this, done] { pumpRx(done); });
}

void
NetbackBackend::domUTx(Cycles t,
                       std::function<void(Cycles, const Packet &)>
                           on_datalink_tx)
{
    const Frequency &f = mach.freq();
    PhysicalCpu &cpu = mach.cpu(p.dom0Pcpu);

    bool ok = false;
    PvRequest req;
    Cycles cost = tx.backPop(req, ok);
    if (!ok) {
        mach.counters().counter(netbackTaps().txSpuriousKick).inc();
        return;
    }
    // When the tx ring is backed up, netback stays in its inner loop
    // and per-request fixed costs amortize; a lone request pays the
    // full per-kick path (the Table V single-transaction case).
    // Grants batch into shared hypercalls within a multi-page
    // request either way.
    const bool fresh = tx.requestDepth() == 0;
    lastTxAt = t;
    everTx = true;
    // Grants are page-granular: a TSO segment spanning n pages needs
    // n grant transfers, so large segments amortize ring costs but
    // not grant costs.
    constexpr std::uint32_t page = 4096;
    std::uint32_t left = req.pkt.bytes == 0 ? 1 : req.pkt.bytes;
    bool first = true;
    while (left > 0) {
        const std::uint32_t chunk = left > page ? page : left;
        cost += transferCost(req.gref, chunk, !fresh || !first);
        first = false;
        left -= chunk;
    }
    if (fresh) {
        cost += f.cycles(p.netbackTxWorkUs);
        cost += f.cycles(p.dom0BridgeUs);
        cost += f.cycles(p.dom0XmitUs);
    } else {
        cost += f.cycles(p.netbackTxBatchedUs);
        cost += f.cycles(0.9); // amortized bridge forwarding
        cost += static_cast<Cycles>(framesFor(req.pkt.bytes)) *
                net.perTsoFrame;
    }
    cost += net.doorbell;
    cost += tx.backRespond(req);

    const Cycles done = cpu.charge(t, cost);
    mach.queue().scheduleAt(done, [done, pkt = req.pkt,
                                   on_datalink_tx] {
        on_datalink_tx(done, pkt);
    });
}

} // namespace virtsim
