#include "core/testbed.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "core/report.hh"
#include "os/kernel.hh"
#include "sim/env.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** One-way wire latency between server and client, in microseconds.
 *  [calibrated] so native send-to-recv lands at 29.7 us (Table V)
 *  with the NIC DMA and client processing of the netperf model. */
constexpr double wireOneWayUs = 12.0;

/** Default p99 round-trip SLO for testbed workloads, in
 *  microseconds. Like the watchdog thresholds, it sits well above
 *  every paper-configuration round trip (tens of microseconds,
 *  Table V), so a breach flags a genuinely pathological run rather
 *  than normal virtualization overhead. VIRTSIM_SLO_P99_US
 *  overrides. */
constexpr double testbedDefaultSloP99Us = 500.0;

} // namespace

std::string
to_string(SutKind k)
{
    switch (k) {
      case SutKind::Native:
        return "Native";
      case SutKind::NativeX86:
        return "Native x86";
      case SutKind::KvmArm:
        return "KVM ARM";
      case SutKind::XenArm:
        return "Xen ARM";
      case SutKind::KvmX86:
        return "KVM x86";
      case SutKind::XenX86:
        return "Xen x86";
      case SutKind::KvmArmVhe:
        return "KVM ARM (VHE)";
    }
    panic("bad SutKind");
}

bool
isVirtualized(SutKind k)
{
    return k != SutKind::Native && k != SutKind::NativeX86;
}

Arch
archOf(SutKind k)
{
    switch (k) {
      case SutKind::KvmX86:
      case SutKind::XenX86:
      case SutKind::NativeX86:
        return Arch::X86;
      default:
        return Arch::Arm;
    }
}

Testbed::Testbed(TestbedConfig config)
    : cfg(config), rng(config.seed),
      net(NetstackCosts::linux(
          (archOf(config.kind) == Arch::Arm ? CostModel::armAtlas()
                                            : CostModel::x86Xeon())
              .freq))
{
    MachineConfig mc = archOf(cfg.kind) == Arch::Arm
                           ? MachineConfig::hpMoonshotM400()
                           : MachineConfig::dellR320();
    server = std::make_unique<Machine>(eq, mc);
    wire_ = std::make_unique<Wire>(
        eq, server->counters(), server->freq().cycles(wireOneWayUs),
        &server->probe());

    wire_->setServerEndpoint([this](Cycles t, const Packet &pkt) {
        server->nic().receiveFromWire(t, pkt);
    });
    wire_->setClientEndpoint([this](Cycles t, const Packet &pkt) {
        if (onClientRx)
            onClientRx(t, pkt);
    });
    server->nic().onWireTx = [this](Cycles t, const Packet &pkt) {
        wire_->sendToClient(t, pkt);
    };

    if (isVirtualized(cfg.kind))
        buildVirtualized();
    else
        buildNative();

    // Observability opt-in: VIRTSIM_TRACE=<file> records and exports
    // a Perfetto-loadable trace; VIRTSIM_METRICS=<file> dumps the
    // metrics snapshot as JSON.
    // VIRTSIM_TRACE_CAPACITY=<records> resizes the ring before it is
    // enabled (rounded up to a power of two; 24 bytes per record).
    // Numeric knobs parse through envPositiveCount, which fatal()s on
    // garbage instead of silently keeping the default.
    if (const auto cap = envPositiveCount("VIRTSIM_TRACE_CAPACITY",
                                          std::uint64_t{1} << 32)) {
        server->trace().setCapacity(static_cast<std::size_t>(*cap));
    }
    if (const char *p = std::getenv("VIRTSIM_TRACE")) {
        if (*p)
            tracePath = p;
    }
    if (const char *p = std::getenv("VIRTSIM_METRICS")) {
        if (*p)
            metricsPath = p;
    }
    // VIRTSIM_FLAME=<file> streams blame through the causal analyzer
    // and writes a folded-stack file (flamegraph.pl input) at
    // teardown.
    if (const char *p = std::getenv("VIRTSIM_FLAME")) {
        if (*p)
            flamePath = p;
    }
    // VIRTSIM_TIMELINE=<file> samples gauges and writes the series
    // (JSON, or CSV when the path ends in .csv) at teardown;
    // VIRTSIM_TIMELINE_HZ tunes the simulated-time sampling rate.
    if (const char *p = std::getenv("VIRTSIM_TIMELINE")) {
        if (*p)
            timelinePath = p;
    }
    if (const auto hz = envPositiveCount("VIRTSIM_TIMELINE_HZ",
                                         std::uint64_t{1} << 40)) {
        timelineHz = static_cast<double>(*hz);
    }
    // VIRTSIM_LATENCY=<file> arms per-request phase histograms and
    // the SLO engine, and writes the virtsim-latency-1 JSON at
    // teardown. VIRTSIM_SLO_P99_US / VIRTSIM_SLO_MAX_VIOLATION
    // override the objective's threshold / tolerated fraction.
    if (const char *p = std::getenv("VIRTSIM_LATENCY")) {
        if (*p)
            latencyPath = p;
    }
    // VIRTSIM_INCIDENTS=<dir> arms the always-on flight recorder and
    // writes one virtsim-incident-1 JSON per captured incident into
    // the directory at teardown. VIRTSIM_INCIDENT_WINDOW_US /
    // VIRTSIM_INCIDENT_CAP size the frozen window and the capture cap.
    if (const char *p = std::getenv("VIRTSIM_INCIDENTS")) {
        if (*p)
            incidentsDir = p;
    }
    applyObservability();
}

void
Testbed::applyObservability()
{
    // Incident forensics needs both the stamping tee (trace sink) and
    // the timeline tick chain, so arming it arms both.
    const bool incidentsOn = !incidentsDir.empty();
    if (!tracePath.empty() || incidentsOn)
        server->trace().enable();
    if (!flamePath.empty())
        attribution();
    const bool latencyOn = latencyWanted || !latencyPath.empty();
    if (latencyOn) {
        Probe &p = server->probe();
        if (!p.latency.enabled()) {
            p.latency.configure(server->numCpus());
            p.latency.enable();
        }
        if (!slo.armed()) {
            SloSpec def;
            def.name = "rtt_p99";
            def.phase = LatencyPhase::Rtt;
            def.quantile = 0.99;
            def.thresholdCycles =
                server->freq().cycles(testbedDefaultSloP99Us);
            def.maxViolationFraction = 0.01;
            def.burnWindow = server->freq().cycles(2000.0);
            if (const auto us =
                    envPositiveReal("VIRTSIM_SLO_P99_US", 1e12))
                def.thresholdCycles = server->freq().cycles(*us);
            if (const auto f =
                    envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION"))
                def.maxViolationFraction = *f;
            slo.addSpec(std::move(def));
            slo.bind(&p.latency);
        }
    }
    // Sampling also arms under VIRTSIM_TRACE alone so the Perfetto
    // export carries counter tracks next to its spans and flows, and
    // under latency tracking: SLO burn windows evaluate in the
    // timeline sample hook.
    if (timelineWanted || !timelinePath.empty() ||
        !tracePath.empty() || latencyOn || incidentsOn) {
        const Cycles period = std::max<Cycles>(
            1, server->freq().cyclesFromSeconds(1.0 / timelineHz));
        TimelineSampler &tl = server->probe().timeline;
        tl.enable(period);
        installWatchdogRules();
        // A repeat call (enableTimeline/enableLatency after
        // construction) must not install the SLO gauges twice.
        if (slo.armed() &&
            tl.findGauge("slo." + slo.specs().front().name +
                         ".q_us") < 0) {
            slo.installTimeline(tl, server->freq());
        }
        if (incidentsOn && !flight.enabled()) {
            // Arm last — enable() sizes tick-row storage from the
            // gauge count, so every registration above must be done.
            const double winUs =
                envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US", 1e9)
                    .value_or(100.0);
            const std::uint32_t icap = static_cast<std::uint32_t>(
                envPositiveCount("VIRTSIM_INCIDENT_CAP",
                                 std::uint64_t{1} << 20)
                    .value_or(16));
            Probe &p = server->probe();
            flight.configure(
                std::max<Cycles>(1, server->freq().cycles(winUs)),
                tl.period(), icap);
            flight.bind(&tl, p.latency.enabled() ? &p.latency
                                                 : nullptr);
            flight.enable();
            server->trace().setFlightRecorder(&flight);
            FlightRecorder *fr = &flight;
            tl.addPostSampleHook(
                [fr](Cycles now) { fr->onSample(now); });
            const TimelineSampler *tlp = &tl;
            tl.setAnomalyHook(
                [fr, tlp](Cycles now, std::uint32_t ri, bool open) {
                    fr->onAnomaly(now, tlp->ruleName(ri), open);
                });
            if (slo.armed()) {
                SloEngine *se = &slo;
                slo.setBreachHook(
                    [fr, se](Cycles now, std::size_t i) {
                        fr->trigger(now, "slo." + se->specs()[i].name +
                                             ".burn");
                    });
            }
        }
    }
}

void
Testbed::installWatchdogRules()
{
    TimelineSampler &tl = server->probe().timeline;
    if (tl.ruleCount() > 0)
        return;
    const Frequency &f = server->freq();
    // Thresholds sit well above anything the paper-config workloads
    // produce, so anomalies flag genuinely pathological states (a
    // wedged VCPU, a saturated LR file held across samples, drop
    // bursts) rather than normal bursts.
    for (std::size_t g = 0; g < tl.gaugeCount(); ++g) {
        const std::string &name = tl.gaugeName(g);
        if (name.size() > 6 &&
            name.compare(name.size() - 6, 6, ".state") == 0) {
            // VcpuState::InHyp sustained: an exit being handled for
            // 200 us straight means the VCPU is wedged in the
            // hypervisor (every Table I operation is tens of us at
            // worst).
            tl.addRule("stalled." + name, name,
                       static_cast<std::int64_t>(VcpuState::InHyp),
                       f.cycles(200.0));
        } else if (name.size() > 12 &&
                   name.compare(name.size() - 12, 12,
                                ".gic.lr_used") == 0) {
            // All four list registers occupied across consecutive
            // samples: virtual interrupts are backing up faster than
            // the guest acknowledges them.
            tl.addRule("lr_saturation." + name, name,
                       static_cast<std::int64_t>(numListRegs),
                       f.cycles(100.0));
        }
    }
    if (tl.findGauge("nic.rx_queue") >= 0) {
        tl.addRule("rx_queue_depth", "nic.rx_queue", 1024,
                   f.cycles(100.0));
    }
    if (tl.findGauge("nic.rx_drop.rate") >= 0)
        tl.addRule("rx_drop_burst", "nic.rx_drop.rate", 8, 0);
}

namespace {

/** "out.json" + KVM ARM -> "out.kvm_arm.json": benches that build
 *  several testbeds export one distinct file per configuration
 *  instead of clobbering a shared path. */
std::string
perKindPath(const std::string &path, SutKind kind)
{
    std::string tag = to_string(kind);
    for (char &c : tag)
        c = std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(
                      std::tolower(static_cast<unsigned char>(c)))
                : '_';
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos || path.find('/', dot) !=
                                        std::string::npos)
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

} // namespace

Testbed::~Testbed()
{
    exportObservability();
}

void
Testbed::exportObservability()
{
    if (tracePath.empty() && metricsPath.empty() &&
        flamePath.empty() && timelinePath.empty() &&
        latencyPath.empty() && incidentsDir.empty()) {
        return;
    }
    // Parallel sweeps tear testbeds down from worker threads; exports
    // go one at a time. Same-kind testbeds still share a path (last
    // writer wins); distinct configurations never clobber each other.
    static std::mutex export_mutex;
    std::lock_guard<std::mutex> lock(export_mutex);
    const TimelineSampler &tl = server->probe().timeline;
    // Capture incident windows still waiting on their post-trigger
    // half before the trace annotations and incident files write.
    if (flight.enabled())
        flight.finalize(eq.now());
    if (!tracePath.empty()) {
        exportChromeTrace(perKindPath(tracePath, cfg.kind),
                          server->trace(), server->freq(),
                          to_string(cfg.kind), &tl,
                          flight.enabled() ? &flight : nullptr);
    }
    if (!incidentsDir.empty() && flight.enabled()) {
        std::string tag = to_string(cfg.kind);
        for (char &c : tag)
            c = std::isalnum(static_cast<unsigned char>(c))
                    ? static_cast<char>(std::tolower(
                          static_cast<unsigned char>(c)))
                    : '_';
        flight.exportIncidents(incidentsDir, server->freq(), tag);
        const std::string s =
            renderIncidentSummary(flight, server->freq());
        if (!s.empty())
            inform("\n", s);
    }
    if (!flamePath.empty() && _attrib) {
        _attrib->writeFoldedFile(perKindPath(flamePath, cfg.kind),
                                 to_string(cfg.kind));
    }
    if (!timelinePath.empty()) {
        const std::string path = perKindPath(timelinePath, cfg.kind);
        std::ofstream os(path);
        if (!os) {
            warn("cannot open timeline file ", path);
        } else if (path.size() > 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0) {
            os << tl.renderCsv(server->freq());
        } else {
            os << tl.renderJson(server->freq()) << "\n";
        }
    }
    if (!latencyPath.empty()) {
        const std::string path = perKindPath(latencyPath, cfg.kind);
        std::ofstream os(path);
        if (!os) {
            warn("cannot open latency file ", path);
        } else {
            os << renderLatencyJson(
                      server->probe().latency, server->freq(),
                      to_string(cfg.kind),
                      slo.armed() ? slo.verdictsJson(server->freq())
                                  : std::string())
               << "\n";
        }
        inform("\n", renderLatencySummary(server->probe().latency,
                                          server->freq()));
    }
    if (!metricsPath.empty()) {
        server->probe().syncTraceHealth();
        // Watchdog findings land in the snapshot too, so a metrics
        // dump carries the anomaly verdict even when nobody keeps
        // the timeline file.
        tl.publishAnomalies(server->metrics());
        if (slo.armed())
            slo.publish(server->metrics());
        const std::string path = perKindPath(metricsPath, cfg.kind);
        std::ofstream os(path);
        if (!os) {
            warn("cannot open metrics file ", path);
        } else {
            os << server->metrics().snapshot().toJson() << "\n";
        }
    }
}

CausalAnalyzer &
Testbed::attribution()
{
    if (!_attrib) {
        _attrib = std::make_unique<CausalAnalyzer>();
        server->trace().enable();
        server->trace().setObserver(_attrib.get());
    }
    return *_attrib;
}

void
Testbed::beginRun()
{
    server->counters().reset();
    server->probe().reset();
    // Histogram counts went back to zero; the burn-window bases the
    // live SLO state holds would be stale against them.
    slo.reset();
    flight.reset();
    if (_attrib)
        _attrib->reset();
}

void
Testbed::buildNative()
{
    // Native Linux capped at 4 cores; all device interrupts on CPU 0
    // (the paper verified native performance is unchanged by
    // single-CPU interrupt affinity).
    server->irqChip().routeExternal(spiNicIrq, 0);
    server->irqChip().setPhysIrqHandler(
        [this](Cycles t, PcpuId cpu, IrqId irq) {
            if (irq == spiNicIrq) {
                PhysicalCpu &c = server->cpu(cpu);
                const Cycles t1 = c.charge(t, net.irqPath);
                const auto aggs = groDrain(server->nic(),
                                           net.groFrames);
                for (const auto &agg : aggs) {
                    if (onHostRx)
                        onHostRx(t1, agg);
                    if (onVmRx)
                        onVmRx(t1, agg);
                }
                return;
            }
            if (irq == sgiRescheduleIrq) {
                // Native IPI: receiver runs the scheduler IPI
                // handler; the registered completion fires.
                PhysicalCpu &c = server->cpu(cpu);
                const Cycles t1 =
                    c.charge(t, server->costs().irqEntryExit);
                auto &q =
                    nativeIpiDone[static_cast<std::size_t>(cpu)];
                if (!q.empty()) {
                    Done d = std::move(q.front());
                    q.pop_front();
                    eq.scheduleAt(t1, [t1, d] { d(t1); });
                }
                return;
            }
        });
}

void
Testbed::buildVirtualized()
{
    switch (cfg.kind) {
      case SutKind::KvmArm:
      case SutKind::KvmX86:
        hv = std::make_unique<KvmHypervisor>(*server);
        break;
      case SutKind::KvmArmVhe:
        hv = std::make_unique<KvmHypervisor>(*server, true);
        break;
      case SutKind::XenArm:
      case SutKind::XenX86:
        hv = std::make_unique<XenHypervisor>(*server);
        break;
      case SutKind::Native:
      case SutKind::NativeX86:
        panic("buildVirtualized on native config");
    }
    hv->setVirqDistribution(cfg.virqDist);

    // The measured VM: 4 VCPUs / 12 GB, one VCPU per dedicated PCPU
    // (Section III).
    Vm &vm = hv->createVm("vm0", width(), {0, 1, 2, 3});
    guestVm = &vm;

    if (cfg.vApic && server->arch() == Arch::X86)
        server->apic().setVApic(true);

    // Paravirtual networking, per Section III ("All VMs used
    // paravirtualized I/O, typical of cloud infrastructure
    // deployments such as Amazon EC2").
    if (auto *kvm = dynamic_cast<KvmHypervisor *>(hv.get())) {
        VhostBackend::Params vp;
        vp.workerPcpu = 4;
        vp.hostIrqPcpu = 5;
        kvm->attachVirtualNic(vm, vp);
    } else if (auto *xen = dynamic_cast<XenHypervisor *>(hv.get())) {
        NetbackBackend::Params np;
        np.dom0Pcpu = 4;
        np.zeroCopyGrants = cfg.zeroCopyGrants;
        xen->attachVirtualNic(vm, np);
    }

    hv->onHostDatalinkRx = [this](Cycles t, const Packet &pkt) {
        if (onHostRx)
            onHostRx(t, pkt);
    };
    hv->onGuestRx = [this](Cycles t, Vm &, const Packet &pkt) {
        if (onVmRx)
            onVmRx(t, pkt);
    };

    // Backend wake and kick edges join the queue's channel table.
    hv->declareShardChannels(eq);
    hv->start();
}

PhysicalCpu &
Testbed::lcpuOf(int lcpu)
{
    VIRTSIM_ASSERT(lcpu >= 0 && lcpu < width(), "bad lcpu ", lcpu);
    if (!virtualized())
        return server->cpu(lcpu);
    return server->cpu(guestVm->vcpu(lcpu).pcpu());
}

Vcpu &
Testbed::vcpuOf(int lcpu)
{
    VIRTSIM_ASSERT(virtualized(), "vcpuOf on native testbed");
    VIRTSIM_ASSERT(lcpu >= 0 && lcpu < width(), "bad lcpu ", lcpu);
    return guestVm->vcpu(lcpu);
}

Cycles
Testbed::charge(Cycles t, int lcpu, Cycles work)
{
    return lcpuOf(lcpu).charge(t, work);
}

Cycles
Testbed::frontier(int lcpu)
{
    return lcpuOf(lcpu).frontier();
}

void
Testbed::setIdle(int lcpu, bool idle)
{
    if (!virtualized())
        return;
    Vcpu &v = vcpuOf(lcpu);
    if (idle) {
        if (v.state() != VcpuState::Idle)
            hv->blockVcpu(v);
    } else if (v.state() == VcpuState::Idle) {
        // The wake itself happens (and is charged) on the next
        // injection; this only reverses a premature block.
        v.setState(VcpuState::Running);
    }
}

void
Testbed::send(Cycles t, int lcpu, const Packet &pkt, Done on_datalink_tx)
{
    Packet p = pkt;
    p.seq = ++txSeq;
    if (virtualized()) {
        hv->guestTransmit(t, vcpuOf(lcpu), p,
                          std::move(on_datalink_tx));
        return;
    }
    // Native: the driver hands the frame straight to the NIC.
    PhysicalCpu &c = lcpuOf(lcpu);
    const Cycles t1 = c.charge(t, net.doorbell);
    server->nic().transmit(t1, p);
    eq.scheduleAt(t1, [t1, d = std::move(on_datalink_tx)] { d(t1); });
}

void
Testbed::sendIpi(Cycles t, int from_lcpu, int to_lcpu, Done done)
{
    if (virtualized()) {
        hv->virtualIpi(t, vcpuOf(from_lcpu), vcpuOf(to_lcpu),
                       std::move(done));
        return;
    }
    // Native SGI: sender writes the distributor, hardware delivers,
    // receiver runs the scheduler-IPI handler.
    PhysicalCpu &src = lcpuOf(from_lcpu);
    const Cycles t1 = src.charge(t, server->costs().irqChipRegAccess);
    nativeIpiDone[static_cast<std::size_t>(to_lcpu)].push_back(
        std::move(done));
    server->irqChip().sendIpi(t1, to_lcpu, sgiRescheduleIrq);
}

void
Testbed::completeVirq(Cycles t, int lcpu, Done done)
{
    if (virtualized()) {
        hv->virqComplete(t, vcpuOf(lcpu), std::move(done));
        return;
    }
    // Native: the EOI write to the physical controller.
    PhysicalCpu &c = lcpuOf(lcpu);
    const Cycles t1 = c.charge(t, server->costs().irqChipRegAccess);
    eq.scheduleAt(t1, [t1, d = std::move(done)] { d(t1); });
}

std::uint32_t
Testbed::tsoBytes() const
{
    const bool xen =
        cfg.kind == SutKind::XenArm || cfg.kind == SutKind::XenX86;
    if (xen && cfg.tsoRegression)
        return net.tsoBytesRegressed;
    return net.tsoBytes;
}

void
Testbed::clientSend(Cycles t, const Packet &pkt)
{
    wire_->sendToServer(t, pkt);
}

} // namespace virtsim
