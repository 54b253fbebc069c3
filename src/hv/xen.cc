#include "hv/xen.hh"

#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** Xen instrumentation taps, interned once per process. */
struct XenTaps
{
    TapId trap = internTap("xen.trap");
    TapId resume = internTap("xen.resume");
    TapId domainSwitch = internTap("xen.domain_switch");
    TapId worldSwitch = internTap("xen.world_switch");
    TapId trapHypercall = internTap("xen.trap.hypercall");
    TapId trapIrqchip = internTap("xen.trap.irqchip");
    TapId trapVipi = internTap("xen.trap.vipi");
    TapId trapEoi = internTap("xen.trap.eoi");
    TapId trapVmSwitch = internTap("xen.trap.vm_switch");
    TapId trapIoOut = internTap("xen.trap.io_out");
    TapId virqInjected = internTap("xen.virq_injected");
    TapId txKick = internTap("xen.io.tx_kick");
    TapId rxDeliver = internTap("xen.io.rx_deliver");
    /** Guest-visible operation envelopes (TraceCat::Op), shared
     *  names across hypervisors for differential attribution. */
    TapId opHypercall = internTap("op.hypercall");
    TapId opIrqTrap = internTap("op.irq_trap");
    TapId opVipi = internTap("op.vipi");
    TapId opVmSwitch = internTap("op.vm_switch");
    TapId opIoOut = internTap("op.io_out");
    TapId opIoIn = internTap("op.io_in");
    /** Machine counters (Machine::counters()). */
    TapId traps = internTap("xen.traps");
    TapId idleDomainSwitches = internTap("xen.idle_domain_switches");
    TapId domainSwitches = internTap("xen.domain_switches");
    TapId hypercalls = internTap("xen.hypercalls");
    TapId irqchipTraps = internTap("xen.irqchip_traps");
    TapId virtualIpis = internTap("xen.virtual_ipis");
    TapId virqCompleteTrap = internTap("xen.virq_complete_trap");
    TapId vmSwitches = internTap("xen.vm_switches");
    TapId ioSignalOut = internTap("xen.io_signal_out");
    TapId ioSignalIn = internTap("xen.io_signal_in");
    TapId rxEventSuppressed = internTap("xen.rx_event_suppressed");
    TapId txBackpressure = internTap("xen.tx_backpressure");
    TapId txKickSuppressed = internTap("xen.tx_kick_suppressed");
    TapId dom0Blocked = internTap("xen.dom0_blocked");
    TapId unhandledPhysIrq = internTap("xen.unhandled_phys_irq");
    TapId spuriousKick = internTap("xen.spurious_kick");
    TapId vcpuBlocked = internTap("xen.vcpu_blocked");
};

const XenTaps &
xenTaps()
{
    static const XenTaps taps;
    return taps;
}

} // namespace

XenHypervisor::XenHypervisor(Machine &m)
    : Hypervisor(m, "xen"),
      params(pol->xen),
      sched(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    // Dom0: 4 VCPUs on the upper half of the machine (Section III:
    // Dom0 capped at 4 VCPUs / 4 GB, pinned away from the DomU; a PV
    // instance on x86).
    const int half = m.numCpus() / 2;
    std::vector<PcpuId> dom0_pins;
    for (int i = 0; i < half; ++i)
        dom0_pins.push_back(half + i);
    _dom0 = std::make_unique<Vm>(0, "dom0", VmKind::Dom0, half,
                                 dom0_pins);
    dists[0] = std::make_unique<VgicDistributor>(*_dom0);
    evtchn = std::make_unique<EventChannel>(m);
}

TapId
XenHypervisor::worldSwitchTap() const
{
    return xenTaps().worldSwitch;
}

void
XenHypervisor::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
    // Guest VCPUs start executing; Dom0 VCPUs start blocked, so
    // their PCPUs run the idle domain (the paper's default state
    // when no I/O is in flight).
    for (auto &vmp : _vms) {
        for (int i = 0; i < vmp->numVcpus(); ++i) {
            Vcpu &v = vmp->vcpu(i);
            auto &s = sched[static_cast<std::size_t>(v.pcpu())];
            if (s.current == nullptr) {
                s.current = &v;
                s.inGuest = true;
                v.setLoaded(true);
                v.setState(VcpuState::Running);
                mach.cpu(v.pcpu()).regs() = v.savedRegs();
            }
        }
    }
    for (int i = 0; i < _dom0->numVcpus(); ++i)
        _dom0->vcpu(i).setState(VcpuState::Idle);
}

Cycles
XenHypervisor::trapToXen(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "trapToXen: ", v.name(), " not executing");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles c = pol->trap(cpu, v.savedRegs()) +
                     params.hypercallDispatch;
    s.inGuest = false;
    counters().counter(xenTaps().traps).inc();
    const Cycles tr = cpu.charge(t, c);
    if (pol->tracesTransitions)
        trace().span(t, tr, xenTaps().trap, TraceCat::Switch, track(v), c);
    countWorldSwitch(v);
    return tr;
}

Cycles
XenHypervisor::resumeVm(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && !s.inGuest,
                   "resumeVm: ", v.name(), " not trapped");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles c = pol->resume(cpu, v.savedRegs());
    s.inGuest = true;
    const Cycles tr = cpu.charge(t, c);
    if (pol->tracesTransitions) {
        trace().span(t, tr, xenTaps().resume, TraceCat::Switch, track(v),
                     c);
    }
    if (params.countsResume)
        countWorldSwitch(v);
    return tr;
}

Cycles
XenHypervisor::switchDomains(Cycles t, Vcpu *from, Vcpu &to,
                             bool charge_sched)
{
    auto &s = sched[static_cast<std::size_t>(to.pcpu())];
    PhysicalCpu &cpu = mach.cpu(to.pcpu());

    Cycles c = pol->saveDomain(cpu, from ? &from->savedRegs() : nullptr, t);
    if (from != nullptr) {
        VIRTSIM_ASSERT(from->pcpu() == to.pcpu(),
                       "domain switch across pcpus");
        from->setLoaded(false);
    } else {
        counters().counter(xenTaps().idleDomainSwitches).inc();
    }
    if (charge_sched)
        c += params.schedWork;
    c += pol->flushPending(t, dist(to.vm()), to);
    c += pol->restoreDomain(cpu, to.savedRegs(), t + c);

    s.current = &to;
    s.inGuest = true;
    to.setLoaded(true);
    to.setState(VcpuState::Running);
    counters().counter(xenTaps().domainSwitches).inc();
    const Cycles tr = cpu.charge(t, c);
    if (pol->tracesTransitions) {
        trace().span(t, tr, xenTaps().domainSwitch, TraceCat::Switch,
                     track(to), c);
    }
    if (params.countsDomainSwitch)
        countWorldSwitch(to);
    return tr;
}

Cycles
XenHypervisor::ensureRunning(Cycles t, Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest)
        return t;
    if (s.current == nullptr) {
        // Wake from the idle domain: scheduler wake path, then the
        // register switch-in.
        const Cycles tw =
            mach.cpu(v.pcpu()).charge(t, params.domainWakeFromIdle);
        return switchDomains(tw, nullptr, v, false);
    }
    if (s.current == &v && !s.inGuest)
        return resumeVm(t, v);
    // Preempt whoever runs there (full switch).
    return switchDomains(t, s.current, v, true);
}

void
XenHypervisor::hypercall(Cycles t, Vcpu &v, Done done)
{
    // On ARM the whole round trip happens in EL2: trap, GP save,
    // handler, GP restore, eret (Table II: 376 cycles).
    const Cycles t1 = trapToXen(t, v);
    const Cycles th = mach.cpu(v.pcpu()).charge(t1, params.hypercallHandler);
    const Cycles t2 = resumeVm(th, v);
    counters().counter(xenTaps().hypercalls).inc();
    vmMetrics(v.vm()).summary(xenTaps().trapHypercall).add(t2 - t);
    trace().span(t, t2, xenTaps().opHypercall, TraceCat::Op, track(v));
    queue().scheduleAt(t2, [t2, done = std::move(done)] { done(t2); });
}

void
XenHypervisor::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    // The interrupt controller is emulated inside Xen (Figure 2): no
    // second world to reach, unlike KVM.
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, params.irqchipEmulation);
    const Cycles t3 = resumeVm(t2, v);
    counters().counter(xenTaps().irqchipTraps).inc();
    vmMetrics(v.vm()).summary(xenTaps().trapIrqchip).add(t3 - t);
    trace().span(t, t3, xenTaps().opIrqTrap, TraceCat::Op, track(v));
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

Cycles
XenHypervisor::injectIntoRunning(Cycles t, Vcpu &v, Done done)
{
    // A physical IPI arrives while the VCPU executes guest code: Xen
    // takes it, acknowledges the physical controller, programs the
    // pending virq and resumes the guest — no other world is involved.
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(s.current == &v && s.inGuest,
                   "injectIntoRunning: ", v.name(), " not running");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles reg = mach.costs().irqChipRegAccess;

    Cycles c = pol->trapCost() + reg; // trap, physical ack
    c += params.xenIrqDispatch + params.vgicInject;
    const IrqId virq = dist(v.vm()).popPending(v.id());
    if (virq >= 0)
        c += pol->inject(t, v.pcpu(), virq);
    c += reg + pol->resumeCost(); // physical EOI, back to the guest
    // Guest side: acknowledge the virtual interrupt and dispatch.
    c += reg + params.guestIrqDispatch;

    const Cycles t1 = cpu.charge(t, c);
    const IrqId acked = pol->ack(v.pcpu(), t1);
    queue().scheduleAt(t1, [t1, done = std::move(done)] { done(t1); });
    // Completion trails the handler.
    cpu.charge(t1, pol->completeAfterHandler(v.pcpu(), acked,
                                             params.eoiEmulation));
    return t1;
}

void
XenHypervisor::kick(Cycles t, PcpuId cpu, std::function<void(Cycles)> action)
{
    kickActions[static_cast<std::size_t>(cpu)].push_back(std::move(action));
    mach.irqChip().sendIpi(t, cpu, sgiRescheduleIrq);
}

void
XenHypervisor::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    dist(v.vm()).setPending(v.id(), virq);
    counters().counter(xenTaps().virqInjected).inc();
    vmMetrics(v.vm()).counter(xenTaps().virqInjected).inc();
    if (pol->tracesTransitions) {
        trace().instant(t, xenTaps().virqInjected, TraceCat::Irq, track(v),
                        static_cast<std::uint64_t>(virq));
    }

    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    if (s.current == &v && s.inGuest) {
        // Running target: physical IPI so the target PCPU programs
        // its own virtual interface.
        kick(t, v.pcpu(), [this, &v, done = std::move(done)](
                              Cycles th) mutable {
            injectIntoRunning(th, v, std::move(done));
        });
        return;
    }
    // Blocked / descheduled target: wake it (possibly switching the
    // PCPU away from the idle domain), then it takes the virq.
    kick(t, v.pcpu(), [this, &v, done = std::move(done)](
                          Cycles th) mutable {
        const Cycles tr = ensureRunning(th, v);
        PhysicalCpu &cpu = mach.cpu(v.pcpu());
        const Cycles ta = cpu.charge(
            tr, mach.costs().irqChipRegAccess + params.guestIrqDispatch);
        const IrqId acked = pol->ack(v.pcpu(), ta);
        queue().scheduleAt(ta, [ta, done = std::move(done)] { done(ta); });
        cpu.charge(ta, pol->complete(v.pcpu(), acked));
    });
}

void
XenHypervisor::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    counters().counter(xenTaps().virtualIpis).inc();

    // Sender: the IPI register write traps into Xen; the emulation
    // runs right there.
    const Cycles t1 = trapToXen(t, src);
    const Cycles t2 = mach.cpu(src.pcpu()).charge(
        t1, params.ipiEmulation + mach.costs().irqChipRegAccess);
    if (pol->tracesTransitions)
        vmMetrics(src.vm()).summary(xenTaps().trapVipi).add(t2 - t);
    // Operation envelope closes when the receiver dispatches.
    Done wrapped = [this, t, tr = track(src),
                    done = std::move(done)](Cycles ta) {
        trace().span(t, ta, xenTaps().opVipi, TraceCat::Op, tr);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    resumeVm(t2, src);
}

void
XenHypervisor::virqComplete(Cycles t, Vcpu &v, Done done)
{
    if (!pol->eoiTraps()) {
        // The same hardware path as KVM's (Table II: 71 cycles on ARM
        // for both hypervisors), or x86 with vAPIC.
        const Cycles t1 =
            mach.cpu(v.pcpu()).charge(t, pol->completeActive(v.pcpu()));
        queue().scheduleAt(t1, [t1, done = std::move(done)] { done(t1); });
        return;
    }
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, params.eoiEmulation);
    const Cycles t3 = resumeVm(t2, v);
    counters().counter(xenTaps().virqCompleteTrap).inc();
    vmMetrics(v.vm()).summary(xenTaps().trapEoi).add(t3 - t);
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

void
XenHypervisor::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    // Both worlds are guests, so unlike the Hypercall case Xen must
    // switch the full guest state — which is why Table II shows Xen
    // ARM only slightly ahead of KVM here (8,799 vs 10,387).
    const Cycles t1 = mach.cpu(from.pcpu()).charge(t, pol->trapHw());
    sched[static_cast<std::size_t>(from.pcpu())].inGuest = false;
    from.setState(VcpuState::Idle);
    const Cycles t2 = switchDomains(t1, &from, to, true);
    counters().counter(xenTaps().vmSwitches).inc();
    vmMetrics(to.vm()).summary(xenTaps().trapVmSwitch).add(t2 - t);
    trace().span(t, t2, xenTaps().opVmSwitch, TraceCat::Op, track(from));
    queue().scheduleAt(t2, [t2, done = std::move(done)] { done(t2); });
}

Cycles
XenHypervisor::dom0TakeEvent(Cycles t, Cycles work)
{
    Vcpu &d0 = dom0Vcpu();
    const Cycles tr = ensureRunning(t, d0);
    const IrqId acked = pol->ack(d0.pcpu(), tr);
    return mach.cpu(d0.pcpu()).charge(
        tr, mach.costs().irqChipRegAccess + work +
                pol->complete(d0.pcpu(), acked));
}

void
XenHypervisor::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalOut requires an attached vNIC");
    // DomU kick: hypercall into Xen, event-channel notify, signal
    // Dom0 — which is usually idling, so its PCPU must switch away
    // from the idle domain before netback can see the signal.
    const Cycles t1 = trapToXen(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, evtchn->notify(portDom0));
    counters().counter(xenTaps().ioSignalOut).inc();
    if (pol->tracesTransitions)
        vmMetrics(v.vm()).summary(xenTaps().trapIoOut).add(t2 - t);

    kick(t2, dom0Vcpu().pcpu(), [this, t, tr = track(v),
                                 done = std::move(done)](
                                    Cycles th) mutable {
        const Cycles t3 =
            dom0TakeEvent(th, params.guestIrqDispatch + params.backendDequeue);
        queue().scheduleAt(t3, [this, t, tr, t3, done = std::move(done)] {
            trace().span(t, t3, xenTaps().opIoOut, TraceCat::Op, tr);
            done(t3);
        });
    });
    resumeVm(t2, v);
}

void
XenHypervisor::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_netback, "ioSignalIn requires an attached vNIC");
    // Dom0 signals the guest: trap to Xen, event channel, physical
    // IPI, and the receiving VM — idle in this microbenchmark — is
    // switched in from the idle domain.
    Vcpu &d0 = dom0Vcpu();
    const Cycles tr = ensureRunning(t, d0); // bench setup: not charged
                                            // when already running
    const Cycles t1 = trapToXen(tr, d0);
    const Cycles t2 = mach.cpu(d0.pcpu()).charge(t1, evtchn->notify(portDomU));
    counters().counter(xenTaps().ioSignalIn).inc();
    Done wrapped = [this, t, tr = track(v),
                    done = std::move(done)](Cycles ta) {
        trace().span(t, ta, xenTaps().opIoIn, TraceCat::Op, tr);
        done(ta);
    };
    injectVirq(t2, v, spiNicIrq, std::move(wrapped));
    resumeVm(t2, d0);
}

void
XenHypervisor::attachVirtualNic(Vm &vm, NetbackBackend::Params np)
{
    VIRTSIM_ASSERT(!_netback, "only one virtual NIC supported");
    netVm = &vm;
    netVmOwner = mach.memory().intern(vm.name());
    _netback = std::make_unique<NetbackBackend>(mach, *_dom0, vm, net,
                                                np);
    portDomU = evtchn->allocate();
    portDom0 = evtchn->allocate();
    // Frontend pre-grants rx buffers and posts the requests, like
    // netfront keeping its rx ring full.
    for (int i = 0; i < 256; ++i) {
        PvRequest req;
        const BufferId buf = mach.memory().alloc(netVmOwner, 4096);
        req.gref = _netback->grantTable().grant(buf, false);
        _netback->rxRing().frontPost(req);
    }
    mach.irqChip().routeExternal(spiNicIrq, np.dom0Pcpu);
}

void
XenHypervisor::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt,
                                 Done done)
{
    VIRTSIM_ASSERT(_netback && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    if (pol->tracesTransitions) {
        trace().instant(t, xenTaps().rxDeliver, TraceCat::Io, noTrack,
                        pkt.seq);
    }
    _netback->dom0RxToDomU(t, pkt, true,
                           [this, &vm, pkt,
                            done = std::move(done)](Cycles tr) mutable {
                               notifyGuestRx(tr, vm, pkt, std::move(done));
                           });
}

void
XenHypervisor::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt,
                             Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    const int frames = framesFor(pkt.bytes);

    auto guest_pop = [this, &vm, pkt, frames, done = std::move(done),
                      target](Cycles ti) mutable {
        // Event-channel upcall demux precedes the frontend's ring
        // work; the frontend then reaps one response (and re-grants +
        // reposts a buffer) per wire frame.
        Cycles c = params.evtchnUpcall;
        for (int i = 0; i < frames; ++i) {
            bool ok = false;
            PvRequest resp;
            _netback->rxRing().frontPopResponse(resp, ok);
            if (ok)
                _netback->rxRing().frontPost(resp);
            c += params.guestDriverRxPop;
        }
        const Cycles tg = mach.cpu(vm.vcpu(target).pcpu()).charge(ti, c);
        queue().scheduleAt(tg, [this, tg, &vm, pkt,
                                done = std::move(done)] {
            if (onGuestRx)
                onGuestRx(tg, vm, pkt);
            done(tg);
        });
    };

    if (v.state() != VcpuState::Idle && t < rxQuietUntil) {
        // Event channel masked while the frontend polls the ring.
        counters().counter(xenTaps().rxEventSuppressed).inc();
        guest_pop(t);
        return;
    }
    rxQuietUntil = t + mach.freq().cycles(2.5);

    PhysicalCpu &dcpu = mach.cpu(_netback->params().dom0Pcpu);
    const Cycles t1 = dcpu.charge(t, evtchn->notify(portDomU));
    injectVirq(t1, v, spiNicIrq,
               [guest_pop = std::move(guest_pop)](Cycles ti) mutable {
                   guest_pop(ti);
               });
}

void
XenHypervisor::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt,
                             Done done)
{
    VIRTSIM_ASSERT(_netback, "guestTransmit requires an attached vNIC");
    if (_netback->txRing().full()) {
        // Ring full: netfront blocks the frame until netback frees
        // slots (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        counters().counter(xenTaps().txBackpressure).inc();
        return;
    }
    VIRTSIM_ASSERT(&v.vm() == netVm, "guestTransmit: ", v.name(),
                   " is not on the vNIC's VM");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    // Frontend: grant each page of the payload, then post the
    // request.
    const std::uint32_t pages = (pkt.bytes + 4095) / 4096;
    PvRequest req;
    req.pkt = pkt;
    const BufferId buf = mach.memory().alloc(netVmOwner, pkt.bytes);
    req.gref = _netback->grantTable().grant(buf, true);
    Cycles c = static_cast<Cycles>(pages == 0 ? 1 : pages) *
               params.grantSetup;
    c += _netback->txRing().frontPost(req);
    const Cycles t0 = cpu.charge(t, c);
    txPending.add(pkt.seq, TxFrame{std::move(done), req.gref, buf});

    if (txPumpActive) {
        counters().counter(xenTaps().txKickSuppressed).inc();
        return;
    }

    // Kick Dom0 via the event channel.
    const Cycles t1 = trapToXen(t0, v);
    const Cycles t2 = cpu.charge(t1, evtchn->notify(portDom0));
    if (pol->tracesTransitions) {
        trace().span(t0, t2, xenTaps().txKick, TraceCat::Io, track(v),
                     pkt.seq);
    }
    resumeVm(t2, v);

    txPumpActive = true;
    kick(t2, dom0Vcpu().pcpu(), [this](Cycles th) {
        const Cycles t3 =
            dom0TakeEvent(th, params.guestIrqDispatch + params.backendDequeue);
        _netback->markTxKick();
        pumpTx(t3);
    });
}

void
XenHypervisor::pumpTx(Cycles t)
{
    if (_netback->txRing().requestDepth() == 0) {
        txPumpActive = false;
        scheduleDom0IdleCheck(t);
        return;
    }
    _netback->domUTx(t, [this](Cycles td, const Packet &pkt) {
        TxFrame f;
        if (txPending.take(pkt.seq, f)) {
            f.done(td);
            _netback->grantTable().end(f.gref);
            mach.memory().free(f.buf);
        }
        mach.nic().transmit(td, pkt);
        while (!txBacklog.empty() && !_netback->txRing().full()) {
            auto item = std::move(txBacklog.front());
            txBacklog.pop_front();
            guestTransmit(td, *item.first, item.second.first,
                          std::move(item.second.second));
        }
        pumpTx(td);
    });
}

void
XenHypervisor::idle(Vcpu &v)
{
    auto &s = sched[static_cast<std::size_t>(v.pcpu())];
    s.current = nullptr;
    s.inGuest = false;
    v.setLoaded(false);
    v.setState(VcpuState::Idle);
}

void
XenHypervisor::scheduleDom0IdleCheck(Cycles t)
{
    Vcpu &d0 = dom0Vcpu();
    const PcpuId p = d0.pcpu();
    const std::uint64_t gen = ++idleGen;
    // Dom0 blocks once it has been quiescent for a grace period; the
    // PCPU then runs the idle domain and the next I/O event pays the
    // wake cost — the effect the paper repeatedly observes.
    const Cycles grace = mach.freq().cycles(20.0);
    queue().scheduleAt(t + grace, [this, p, gen, &d0] {
        if (idleGen != gen)
            return;
        if (sched[static_cast<std::size_t>(p)].current != &d0)
            return;
        if (mach.cpu(p).frontier() > queue().now()) {
            // Work arrived (or is still draining) since the check
            // was armed: try again once the queue quiesces.
            scheduleDom0IdleCheck(mach.cpu(p).frontier());
            return;
        }
        idle(d0);
        counters().counter(xenTaps().dom0Blocked).inc();
    });
}

void
XenHypervisor::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
{
    if (irq == sgiRescheduleIrq) {
        handleKick(t, cpu);
        return;
    }
    if (irq == spiNicIrq) {
        handleNicIrq(t, cpu);
        return;
    }
    if (irq == pol->vtimerIrq) {
        auto &s = sched[static_cast<std::size_t>(cpu)];
        if (s.current && s.inGuest)
            injectVirq(t, *s.current, irq, [](Cycles) {});
        return;
    }
    counters().counter(xenTaps().unhandledPhysIrq).inc();
}

void
XenHypervisor::handleKick(Cycles t, PcpuId cpu)
{
    auto &q = kickActions[static_cast<std::size_t>(cpu)];
    if (q.empty()) {
        counters().counter(xenTaps().spuriousKick).inc();
        return;
    }
    auto action = std::move(q.front());
    q.pop_front();
    action(t);
}

void
XenHypervisor::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    // The physical interrupt is taken by Xen (all physical interrupts
    // are, while VMs run) and translated into a virtual IRQ for Dom0,
    // whose PCPU is typically running the idle domain: this pre-stamp
    // latency is why Xen's send-to-recv leg in Table V is longer than
    // native.
    const Cycles reg = mach.costs().irqChipRegAccess;
    const Cycles t1 = mach.cpu(cpu).charge(
        t, reg + params.xenIrqDispatch + params.vgicInject + reg);
    const Cycles t3 = dom0TakeEvent(t1, net.irqPath);

    // Dom0's physical driver drains the NIC, GRO-coalescing.
    PhysicalCpu &dcpu = mach.cpu(dom0Vcpu().pcpu());
    Cycles tcur = t3;
    groDrain(mach.nic(), net.groFrames, rxAggs);
    for (const auto &agg : rxAggs) {
        if (onHostDatalinkRx)
            onHostDatalinkRx(tcur, agg);
        deliverPacketToVm(tcur, *netVm, agg, [](Cycles) {});
        tcur = dcpu.frontier();
    }
    scheduleDom0IdleCheck(dcpu.frontier());
}

void
XenHypervisor::forceDom0Running()
{
    Vcpu &d0 = dom0Vcpu();
    auto &s = sched[static_cast<std::size_t>(d0.pcpu())];
    s.current = &d0;
    s.inGuest = true;
    d0.setLoaded(true);
    d0.setState(VcpuState::Running);
}

void
XenHypervisor::forceDom0Idle()
{
    idle(dom0Vcpu());
}

void
XenHypervisor::blockVcpu(Vcpu &v)
{
    VIRTSIM_ASSERT(sched[static_cast<std::size_t>(v.pcpu())].current == &v,
                   "blockVcpu: ", v.name(), " not current");
    // Guest blocked: Xen schedules the idle domain onto the PCPU.
    idle(v);
    counters().counter(xenTaps().vcpuBlocked).inc();
}

} // namespace virtsim
