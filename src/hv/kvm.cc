#include "hv/kvm.hh"

#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** KVM instrumentation taps, interned once per process. */
struct KvmTaps
{
    TapId exit = internTap("kvm.exit");
    TapId enter = internTap("kvm.enter");
    TapId worldSwitch = internTap("kvm.world_switch");
    TapId trapHypercall = internTap("kvm.trap.hypercall");
    TapId trapIrqchip = internTap("kvm.trap.irqchip");
    TapId trapVipi = internTap("kvm.trap.vipi");
    TapId trapEoi = internTap("kvm.trap.eoi");
    TapId trapVmSwitch = internTap("kvm.trap.vm_switch");
    TapId trapIoOut = internTap("kvm.trap.io_out");
    TapId ioIn = internTap("kvm.io_in");
    TapId virqInjected = internTap("kvm.virq_injected");
    TapId txKick = internTap("kvm.io.tx_kick");
    TapId rxDeliver = internTap("kvm.io.rx_deliver");
    /** Guest-visible operation envelopes (TraceCat::Op): emitted
     *  after their constituent spans so sim/attrib can parent by
     *  interval containment and count operations. Names are shared
     *  with Xen so differential reports align. */
    TapId opHypercall = internTap("op.hypercall");
    TapId opIrqTrap = internTap("op.irq_trap");
    TapId opVipi = internTap("op.vipi");
    TapId opVmSwitch = internTap("op.vm_switch");
    TapId opIoOut = internTap("op.io_out");
    TapId opIoIn = internTap("op.io_in");
    /** Machine counters (Machine::counters()). */
    TapId vmExits = internTap("kvm.vm_exits");
    TapId vmEntries = internTap("kvm.vm_entries");
    TapId hypercalls = internTap("kvm.hypercalls");
    TapId irqchipTraps = internTap("kvm.irqchip_traps");
    TapId spuriousWakeup = internTap("kvm.spurious_wakeup");
    TapId virtualIpis = internTap("kvm.virtual_ipis");
    TapId virqCompleteTrap = internTap("kvm.virq_complete_trap");
    TapId vmSwitches = internTap("kvm.vm_switches");
    TapId ioSignalOut = internTap("kvm.io_signal_out");
    TapId ioSignalIn = internTap("kvm.io_signal_in");
    TapId rxNotificationSuppressed =
        internTap("kvm.rx_notification_suppressed");
    TapId txBackpressure = internTap("kvm.tx_backpressure");
    TapId txKickSuppressed = internTap("kvm.tx_kick_suppressed");
    TapId unhandledPhysIrq = internTap("kvm.unhandled_phys_irq");
};

const KvmTaps &
kvmTaps()
{
    static const KvmTaps taps;
    return taps;
}

} // namespace

KvmHypervisor::KvmHypervisor(Machine &m, bool vhe)
    : Hypervisor(m, "kvm", vhe),
      params(pol->kvm),
      hostCtx(static_cast<std::size_t>(m.numCpus())),
      kickActions(static_cast<std::size_t>(m.numCpus())),
      net(NetstackCosts::linux(m.freq()))
{
    // Give every physical CPU a distinguishable host context so that
    // isolation tests can detect cross-context leaks.
    for (std::size_t i = 0; i < hostCtx.size(); ++i)
        hostCtx[i].regs.fillPattern(pol->hostRegPattern + i);
}

TapId
KvmHypervisor::worldSwitchTap() const
{
    return kvmTaps().worldSwitch;
}

void
KvmHypervisor::start()
{
    Hypervisor::start();
    mach.irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            onPhysIrq(t, cpu, irq);
        });
    // Load the first VM's VCPUs onto their physical CPUs; they begin
    // executing guest code at t=0 (initial condition, not charged).
    for (auto &vmp : _vms) {
        for (int i = 0; i < vmp->numVcpus(); ++i) {
            Vcpu &v = vmp->vcpu(i);
            auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
            if (ctx.loaded == nullptr) {
                ctx.loaded = &v;
                ctx.inVm = true;
                v.setLoaded(true);
                v.setState(VcpuState::Running);
                mach.cpu(v.pcpu()).regs() = v.savedRegs();
            }
        }
    }
}

Cycles
KvmHypervisor::exitToHost(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.inVm && ctx.loaded == &v,
                   "exitToHost: ", v.name(), " not running on pcpu ",
                   v.pcpu());
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const Cycles c = pol->exitToHost(cpu, v.savedRegs(), ctx.regs, t);
    ctx.inVm = false;
    v.setState(VcpuState::InHyp);
    counters().counter(kvmTaps().vmExits).inc();
    const Cycles tr = cpu.charge(t, c);
    if (pol->tracesTransitions)
        trace().span(t, tr, kvmTaps().exit, TraceCat::Switch, track(v), c);
    countWorldSwitch(v);
    return tr;
}

Cycles
KvmHypervisor::enterVm(Cycles t, Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(!ctx.inVm, "enterVm: pcpu ", v.pcpu(),
                   " already in a VM");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    // Software-pending virtual interrupts reach the hardware first.
    const Cycles flush = pol->flushPending(t, dist(v.vm()), v);
    const Cycles c = pol->enterGuest(cpu, v.savedRegs(), ctx.regs, t, flush);
    ctx.inVm = true;
    ctx.loaded = &v;
    v.setLoaded(true);
    v.setState(VcpuState::Running);
    counters().counter(kvmTaps().vmEntries).inc();
    const Cycles tr = cpu.charge(t, c);
    if (pol->tracesTransitions)
        trace().span(t, tr, kvmTaps().enter, TraceCat::Switch, track(v), c);
    countWorldSwitch(v);
    return tr;
}

void
KvmHypervisor::hypercall(Cycles t, Vcpu &v, Done done)
{
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, params.hypercallHandler);
    const Cycles t3 = enterVm(t2, v);
    counters().counter(kvmTaps().hypercalls).inc();
    vmMetrics(v.vm()).summary(kvmTaps().trapHypercall).add(t3 - t);
    trace().span(t, t3, kvmTaps().opHypercall, TraceCat::Op, track(v));
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

void
KvmHypervisor::irqControllerTrap(Cycles t, Vcpu &v, Done done)
{
    // The access traps, and because the emulation lives in the host
    // kernel (Figure 3), the exit must complete all the way to it.
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, params.irqchipEmulation);
    const Cycles t3 = enterVm(t2, v);
    counters().counter(kvmTaps().irqchipTraps).inc();
    vmMetrics(v.vm()).summary(kvmTaps().trapIrqchip).add(t3 - t);
    trace().span(t, t3, kvmTaps().opIrqTrap, TraceCat::Op, track(v));
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

Cycles
KvmHypervisor::flushAndResume(Cycles t, Vcpu &v, Done done)
{
    // Host context on v's pcpu: program the pending virq and switch
    // back into the VM; the guest then acknowledges the interrupt and
    // dispatches.
    const Cycles te = enterVm(t, v);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    const IrqId virq = pol->ack(v.pcpu(), te);
    if (virq < 0)
        counters().counter(kvmTaps().spuriousWakeup).inc();
    const Cycles ta = cpu.charge(
        te, mach.costs().irqChipRegAccess + params.guestIrqDispatch);
    queue().scheduleAt(ta, [ta, done = std::move(done)] { done(ta); });
    // After the handler runs the guest completes the interrupt. This
    // trails the measurement endpoint (handler entry), as in the
    // paper's methodology.
    cpu.charge(ta, pol->completeAfterHandler(v.pcpu(), virq,
                                             params.eoiEmulation));
    return ta;
}

void
KvmHypervisor::injectVirq(Cycles t, Vcpu &v, IrqId virq, Done done)
{
    dist(v.vm()).setPending(v.id(), virq);
    counters().counter(kvmTaps().virqInjected).inc();
    vmMetrics(v.vm()).counter(kvmTaps().virqInjected).inc();
    if (pol->tracesTransitions) {
        trace().instant(t, kvmTaps().virqInjected, TraceCat::Irq, track(v),
                        static_cast<std::uint64_t>(virq));
    }

    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    switch (v.state()) {
      case VcpuState::Running:
        // Target is executing guest code: kick it with a physical
        // IPI; the receiver-side action completes the injection.
        kickActions[static_cast<std::size_t>(v.pcpu())].push_back(
            [this, &v, done = std::move(done)](Cycles th) mutable {
                flushAndResume(th, v, std::move(done));
            });
        mach.irqChip().sendIpi(t, v.pcpu(), sgiRescheduleIrq);
        break;
      case VcpuState::Idle:
        // Blocked VCPU thread: the full wake path — cross-CPU
        // wake_up, idle exit, schedule, KVM run-loop re-entry — then
        // world switch in.
        flushAndResume(cpu.charge(t, params.vcpuWakeFromIdle), v,
                       std::move(done));
        break;
      case VcpuState::InHyp: {
        // Already in the hypervisor on its pcpu; the pending virq
        // rides along with the next VM entry. Approximate the
        // residual cost with the flush that entry will perform.
        const Cycles tw = cpu.charge(t, mach.costs().listRegWrite);
        queue().scheduleAt(tw, [tw, done = std::move(done)] { done(tw); });
        break;
      }
    }
}

void
KvmHypervisor::virtualIpi(Cycles t, Vcpu &src, Vcpu &dst, Done done)
{
    VIRTSIM_ASSERT(src.pcpu() != dst.pcpu(),
                   "virtual IPI microbenchmark requires distinct pcpus");
    counters().counter(kvmTaps().virtualIpis).inc();

    // Sender: the IPI register write traps; emulation happens in the
    // host kernel after a full exit.
    const Cycles t1 = exitToHost(t, src);
    const Cycles t2 = mach.cpu(src.pcpu()).charge(
        t1, params.ipiEmulation + mach.costs().irqChipRegAccess);

    // The kick races ahead; the sender's own re-entry is off the
    // measured path but still consumes its CPU.
    vmMetrics(src.vm()).summary(kvmTaps().trapVipi).add(t2 - t);
    // The operation envelope closes when the receiver dispatches its
    // handler — after every constituent span, as attribution needs.
    Done wrapped = [this, t, tr = track(src),
                    done = std::move(done)](Cycles ta) {
        trace().span(t, ta, kvmTaps().opVipi, TraceCat::Op, tr);
        done(ta);
    };
    injectVirq(t2, dst, sgiRescheduleIrq + 8, std::move(wrapped));
    enterVm(t2, src);
}

void
KvmHypervisor::virqComplete(Cycles t, Vcpu &v, Done done)
{
    if (!pol->eoiTraps()) {
        // The VM completes the interrupt itself (ARM's GIC virtual CPU
        // interface, Table II: 71 cycles; x86 with vAPIC).
        const Cycles t1 =
            mach.cpu(v.pcpu()).charge(t, pol->completeActive(v.pcpu()));
        queue().scheduleAt(t1, [t1, done = std::move(done)] { done(t1); });
        return;
    }
    // Without vAPIC the EOI write traps — the ARM vs x86 contrast of
    // Table II (71 vs ~1.5k cycles).
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 = mach.cpu(v.pcpu()).charge(t1, params.eoiEmulation);
    const Cycles t3 = enterVm(t2, v);
    counters().counter(kvmTaps().virqCompleteTrap).inc();
    vmMetrics(v.vm()).summary(kvmTaps().trapEoi).add(t3 - t);
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

void
KvmHypervisor::vmSwitch(Cycles t, Vcpu &from, Vcpu &to, Done done)
{
    VIRTSIM_ASSERT(from.pcpu() == to.pcpu(),
                   "vm switch is a same-pcpu operation");
    VIRTSIM_ASSERT(&from.vm() != &to.vm(), "vm switch between two VMs");
    // Exit to the host, let the host scheduler switch VCPU threads
    // (vcpu_put / vcpu_load), enter the other VM.
    const Cycles t1 = exitToHost(t, from);
    from.setState(VcpuState::Idle);
    from.setLoaded(false);
    PhysicalCpu &cpu = mach.cpu(from.pcpu());
    const Cycles t2 = cpu.charge(
        t1, pol->switchVms(cpu, from.savedRegs(), to.savedRegs(), t1,
                           params.vcpuSwitchWork));
    const Cycles t3 = enterVm(t2, to);
    counters().counter(kvmTaps().vmSwitches).inc();
    vmMetrics(to.vm()).summary(kvmTaps().trapVmSwitch).add(t3 - t);
    trace().span(t, t3, kvmTaps().opVmSwitch, TraceCat::Op, track(from));
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

void
KvmHypervisor::ioSignalOut(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalOut requires an attached vNIC");
    PhysicalCpu &cpu = mach.cpu(v.pcpu());
    counters().counter(kvmTaps().ioSignalOut).inc();
    if (params.ioeventfdFastPath) {
        // Signalled inside the vmexit loop; the guest re-enters at
        // once and the measurement ends at the signal.
        const Cycles t2 =
            cpu.charge(t, pol->trapHw() + params.ioeventfdSignal);
        cpu.charge(t2, pol->resumeCost());
        trace().span(t, t2, kvmTaps().opIoOut, TraceCat::Op, track(v));
        queue().scheduleAt(t2, [t2, done = std::move(done)] { done(t2); });
        return;
    }
    // Guest kick -> trap -> host ioeventfd signal -> vhost worker
    // notices. Measurement ends when the virtual device has the
    // signal (Table I).
    const Cycles t1 = exitToHost(t, v);
    const Cycles t2 = cpu.charge(t1, params.ioeventfdSignal);
    enterVm(t2, v); // guest resumes; off the measured path
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t3 = worker.charge(t2, params.vhostNotifyLatency);
    vmMetrics(v.vm()).summary(kvmTaps().trapIoOut).add(t3 - t);
    trace().span(t, t3, kvmTaps().opIoOut, TraceCat::Op, track(v));
    queue().scheduleAt(t3, [t3, done = std::move(done)] { done(t3); });
}

void
KvmHypervisor::ioSignalIn(Cycles t, Vcpu &v, Done done)
{
    VIRTSIM_ASSERT(_vhost, "ioSignalIn requires an attached vNIC");
    // vhost signals the VM: irqfd from the worker's CPU, then the
    // injection path (wake or kick depending on the VCPU state).
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t1 = worker.charge(t, params.irqfdInject);
    counters().counter(kvmTaps().ioSignalIn).inc();
    if (pol->tracesTransitions)
        trace().instant(t, kvmTaps().ioIn, TraceCat::Io, track(v));
    Done wrapped = [this, t, tr = track(v),
                    done = std::move(done)](Cycles ta) {
        trace().span(t, ta, kvmTaps().opIoIn, TraceCat::Op, tr);
        done(ta);
    };
    injectVirq(t1, v, spiNicIrq, std::move(wrapped));
}

void
KvmHypervisor::attachVirtualNic(Vm &vm, VhostBackend::Params vp)
{
    VIRTSIM_ASSERT(!_vhost, "only one virtual NIC supported");
    netVm = &vm;
    _vhost = std::make_unique<VhostBackend>(mach, vm, net, vp);
    // The frontend pre-posts rx descriptors backed by guest buffers,
    // exactly like virtio-net keeps its rx ring replenished.
    for (int i = 0; i < 256; ++i) {
        VirtioDesc d;
        d.buf = mach.memory().alloc(vm.name(), 2048);
        _vhost->rxRing().guestPost(d);
    }
    // Physical NIC interrupts go to the host IRQ CPU.
    mach.irqChip().routeExternal(spiNicIrq, vp.hostIrqPcpu);
}

void
KvmHypervisor::deliverPacketToVm(Cycles t, Vm &vm, const Packet &pkt,
                                 Done done)
{
    VIRTSIM_ASSERT(_vhost && netVm == &vm,
                   "deliverPacketToVm: vm has no attached vNIC");
    if (pol->tracesTransitions) {
        trace().instant(t, kvmTaps().rxDeliver, TraceCat::Io, noTrack,
                        pkt.seq);
    }
    _vhost->hostRxToGuest(t, pkt, true,
                          [this, &vm, pkt,
                           done = std::move(done)](Cycles tr) mutable {
                              notifyGuestRx(tr, vm, pkt, std::move(done));
                          });
}

void
KvmHypervisor::notifyGuestRx(Cycles t, Vm &vm, const Packet &pkt,
                             Done done)
{
    const VcpuId target = pickVirqTarget(vm);
    Vcpu &v = vm.vcpu(target);
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    auto guest_pop = [this, &vm, pkt, done = std::move(done)](Cycles tg) {
        // Guest driver reaps the used descriptor and reposts it.
        bool ok = false;
        VirtioDesc d;
        _vhost->rxRing().guestPopUsed(d, ok);
        if (ok)
            _vhost->rxRing().guestPost(d);
        if (onGuestRx)
            onGuestRx(tg, vm, pkt);
        done(tg);
    };

    const bool polling = params.rxWindowIsCpuBusy ? cpu.frontier() > t
                                                  : t < rxQuietUntil;
    if (v.state() != VcpuState::Idle && polling) {
        // The guest's NAPI poll from a just-delivered notification is
        // still active: no further interrupt (virtio EVENT_IDX); the
        // poll loop reaps this descriptor too. Every event outside
        // the window pays a full interrupt — the per-event delivery
        // cost that saturates VCPU0 in Section V.
        counters().counter(kvmTaps().rxNotificationSuppressed).inc();
        const Cycles tg = cpu.charge(t, params.guestDriverRxPop);
        queue().scheduleAt(tg, [tg, guest_pop = std::move(guest_pop)] {
            guest_pop(tg);
        });
        return;
    }
    rxQuietUntil = t + mach.freq().cycles(2.5);

    // Interrupt path: irqfd from the vhost worker, then wake/kick.
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t1 = worker.charge(t, params.irqfdInject);
    injectVirq(t1, v, spiNicIrq,
               [this, &v, guest_pop = std::move(guest_pop)](
                   Cycles ti) mutable {
                   const Cycles tg = mach.cpu(v.pcpu()).charge(
                       ti, params.guestDriverRxPop);
                   queue().scheduleAt(
                       tg, [tg, guest_pop = std::move(guest_pop)] {
                           guest_pop(tg);
                       });
               });
}

void
KvmHypervisor::guestTransmit(Cycles t, Vcpu &v, const Packet &pkt,
                             Done done)
{
    VIRTSIM_ASSERT(_vhost, "guestTransmit requires an attached vNIC");
    if (_vhost->txRing().availFull()) {
        // Ring full: the virtio driver stops the queue until the
        // backend frees descriptors (TCP backpressure).
        txBacklog.emplace_back(&v, std::make_pair(pkt, std::move(done)));
        counters().counter(kvmTaps().txBackpressure).inc();
        return;
    }
    PhysicalCpu &cpu = mach.cpu(v.pcpu());

    // Guest driver: fill a descriptor referencing the guest buffer
    // (zero copy) and publish it.
    VirtioDesc d;
    d.buf = invalidBuffer; // payload stays in guest memory in place
    d.pkt = pkt;
    const Cycles c = _vhost->txRing().guestPost(d) + params.txPost;
    const Cycles t0 = cpu.charge(t, c);
    txDone.add(pkt.seq, std::move(done));

    if (txPumpActive) {
        // Backend is actively draining the ring: notification
        // suppressed, no kick, no exit.
        counters().counter(kvmTaps().txKickSuppressed).inc();
        return;
    }

    // Kick: MMIO write traps, host signals the ioeventfd, the vhost
    // worker wakes and starts draining.
    const Cycles t1 = exitToHost(t0, v);
    const Cycles t2 = cpu.charge(t1, params.ioeventfdSignal);
    enterVm(t2, v);
    PhysicalCpu &worker = mach.cpu(_vhost->params().workerPcpu);
    const Cycles t3 = worker.charge(t2, params.vhostNotifyLatency);
    if (pol->tracesTransitions) {
        trace().span(t0, t3, kvmTaps().txKick, TraceCat::Io, track(v),
                     pkt.seq);
    }
    txPumpActive = true;
    queue().scheduleAt(t3, [this, t3] { pumpTx(t3); });
}

void
KvmHypervisor::pumpTx(Cycles t)
{
    if (_vhost->txRing().availDepth() == 0) {
        txPumpActive = false;
        return;
    }
    _vhost->txFromGuest(t, [this](Cycles td, const Packet &pkt) {
        // Physical datalink-tx point: the paper's "send" tap.
        Done done;
        if (txDone.take(pkt.seq, done))
            done(td);
        mach.nic().transmit(td, pkt);
        while (!txBacklog.empty() && !_vhost->txRing().availFull()) {
            auto item = std::move(txBacklog.front());
            txBacklog.pop_front();
            guestTransmit(td, *item.first, item.second.first,
                          std::move(item.second.second));
        }
        pumpTx(td);
    });
}

void
KvmHypervisor::onPhysIrq(Cycles t, PcpuId cpu, IrqId irq)
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
        // The virtual timer fired while a VM ran: the physical
        // interrupt is taken to EL2 and translated into a virtual
        // timer interrupt for the loaded VCPU (Section II).
        auto &ctx = hostCtx[static_cast<std::size_t>(cpu)];
        if (ctx.loaded && ctx.inVm)
            injectVirq(t, *ctx.loaded, irq, [](Cycles) {});
        return;
    }
    counters().counter(kvmTaps().unhandledPhysIrq).inc();
}

void
KvmHypervisor::handleKick(Cycles t, PcpuId cpu)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(cpu)];
    auto &q = kickActions[static_cast<std::size_t>(cpu)];

    Cycles th = t;
    if (ctx.inVm && ctx.loaded) {
        // Physical IRQ while in guest: full exit, then the host
        // acknowledges and handles the IPI.
        Vcpu &v = *ctx.loaded;
        th = exitToHost(t, v);
        th = mach.cpu(cpu).charge(
            th, pol->hostIrqAck() + params.reschedIrqHandler);
        if (q.empty()) {
            // Spurious kick: just resume the guest.
            enterVm(th, v);
            return;
        }
    } else {
        // Host context: cheap IRQ handling, then run the action.
        th = mach.cpu(cpu).charge(t, mach.costs().irqEntryExit);
        if (q.empty())
            return;
    }
    auto action = std::move(q.front());
    q.pop_front();
    action(th);
}

void
KvmHypervisor::handleNicIrq(Cycles t, PcpuId cpu)
{
    if (!netVm)
        return;
    const Cycles t1 = mach.cpu(cpu).charge(t, net.irqPath);
    // Drain the rx queue, GRO-coalescing same-flow frames into
    // aggregates the stack processes as one unit.
    groDrain(mach.nic(), net.groFrames, rxAggs);
    for (const auto &agg : rxAggs) {
        if (onHostDatalinkRx)
            onHostDatalinkRx(t1, agg);
        deliverPacketToVm(t1, *netVm, agg, [](Cycles) {});
    }
}

void
KvmHypervisor::blockVcpu(Vcpu &v)
{
    auto &ctx = hostCtx[static_cast<std::size_t>(v.pcpu())];
    VIRTSIM_ASSERT(ctx.loaded == &v,
                   "blockVcpu: ", v.name(), " not loaded");
    // Guest blocked: the VCPU thread sits in the host run loop; the
    // PCPU is in host context awaiting a wakeup.
    ctx.inVm = false;
    v.setState(VcpuState::Idle);
}

} // namespace virtsim
