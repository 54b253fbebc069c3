#include "core/fleet.hh"

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/report.hh"
#include "hw/gic.hh"
#include "hw/machine.hh"
#include "sim/attrib.hh"
#include "sim/channel.hh"
#include "sim/env.hh"
#include "sim/flight.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/random.hh"
#include "sim/slo.hh"

namespace virtsim {

namespace {

/** "out.json" -> "out.fleet.json": fleet exports carry their own tag
 *  so a bench run arming both a testbed world and the fleet never
 *  clobbers one export with the other. */
std::string
perTagPath(const std::string &path)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos ||
        path.find('/', dot) != std::string::npos)
        return path + ".fleet";
    return path.substr(0, dot) + ".fleet" + path.substr(dot);
}

std::string
envPath(const char *name)
{
    const char *p = std::getenv(name);
    return (p && *p) ? std::string(p) : std::string();
}

/** One persistent TCP_RR connection. All fields except `cpu` are
 *  client-side state. `remaining` counts responses still owed in the
 *  closed loop, arrivals still to depart in the open loop. Request
 *  departure times are threaded through the event chain rather than
 *  stored here — open-loop connections can have several requests in
 *  flight at once. */
struct FleetConn
{
    int cpu = 0;
    int remaining = 0;
    Cycles rttSum = 0;
    Cycles lastDone = 0;
    std::uint64_t completed = 0;
};

/** The running world: machine, channels, connections. */
struct FleetWorld
{
    FleetConfig cfg;
    EventQueue eq;
    MachineConfig mc;
    std::unique_ptr<Machine> mach;
    Gic *gic = nullptr;
    Cycles wire = 0;
    std::vector<ShardChannel *> req; ///< per-CPU client -> server
    std::vector<ShardChannel *> rsp; ///< per-CPU server -> client
    std::vector<FleetConn> conns;
    std::uint64_t transactions = 0;

    /** Observability opt-ins (same env knobs as core/testbed, with a
     *  ".fleet" path tag). */
    std::string tracePath;
    std::string metricsPath;
    std::string flamePath;
    std::string timelinePath;
    std::string latencyPath;
    double timelineHz = 100000.0;
    std::unique_ptr<CausalAnalyzer> attrib;
    /** Request-latency tracking armed (cfg.latency or
     *  VIRTSIM_LATENCY). */
    bool latencyOn = false;
    SloEngine slo;

    /** Incident forensics (VIRTSIM_INCIDENTS): the flight recorder
     *  plus the causal span/edge taps the request path stamps so an
     *  incident window reconstructs a nonempty critical path. The
     *  client side stamps on a pseudo-track one past the last CPU. */
    std::string incidentsDir;
    FlightRecorder flight;
    TapId queueTap = internTap("fleet.queue");
    TapId serveTap = internTap("fleet.serve");

    std::uint16_t
    clientTrack() const
    {
        return static_cast<std::uint16_t>(cfg.nCpus);
    }

    /** Open-loop arrival state: one RNG stream per connection plus
     *  the global MMPP burst chain with its own stream. */
    std::vector<Random> arrivalRng;
    Random burstRng{1};
    bool bursting = false;
    std::uint64_t arrivalsLeft = 0;

    /** Connections VM `i` serves (uniform unless connsByVm skews). */
    int
    connsOf(int i) const
    {
        return cfg.connsByVm.empty()
                   ? cfg.connsPerCpu
                   : cfg.connsByVm[static_cast<std::size_t>(i)];
    }

    explicit FleetWorld(const FleetConfig &c)
        : cfg(c), mc(MachineConfig::hpMoonshotM400())
    {
        // The VM-count scale axis: each VM is one netperf-RR service
        // pinned to its own vCPU, so the machine is sized to the VM
        // count. The env override lets CI and benches sweep fleet
        // size without a code change.
        if (const auto vms =
                envPositiveCount("VIRTSIM_FLEET_VMS", maxFleetVms))
            cfg.nVms = static_cast<int>(*vms);
        if (cfg.nVms > 0)
            cfg.nCpus = cfg.nVms;
        VIRTSIM_ASSERT(cfg.nCpus <= maxFleetVms, "fleet of ",
                       cfg.nCpus, " VMs exceeds maxFleetVms (",
                       maxFleetVms, ")");
        VIRTSIM_ASSERT(cfg.nCpus >= 1 && cfg.connsPerCpu >= 1 &&
                           cfg.transactionsPerConn >= 1,
                       "empty fleet workload");
        VIRTSIM_ASSERT(cfg.connsByVm.empty() ||
                           cfg.connsByVm.size() ==
                               static_cast<std::size_t>(cfg.nCpus),
                       "connsByVm has ", cfg.connsByVm.size(),
                       " entries for ", cfg.nCpus, " VMs");
        for (const int k : cfg.connsByVm)
            VIRTSIM_ASSERT(k >= 1, "connsByVm entries must be >= 1");
        mc.name = "fleet";
        mc.nCpus = cfg.nCpus;

        // Overload injection from the environment: a burst factor
        // switches the fleet to open-loop MMPP arrivals so CI can
        // drive the same binary past its SLO without a code change.
        if (const auto bf =
                envPositiveReal("VIRTSIM_FLEET_BURST_FACTOR", 1e6)) {
            cfg.openLoop = true;
            cfg.burstRateFactor = *bf;
        }
        if (const auto us = envPositiveReal(
                "VIRTSIM_FLEET_INTERARRIVAL_US", 1e9)) {
            cfg.openLoop = true;
            cfg.meanInterarrivalUs = *us;
        }
        VIRTSIM_ASSERT(cfg.meanInterarrivalUs > 0.0 &&
                           cfg.burstRateFactor > 0.0 &&
                           cfg.meanBurstUs > 0.0 &&
                           cfg.meanCalmUs > 0.0,
                       "open-loop arrival parameters must be positive");

        mach = std::make_unique<Machine>(eq, mc);
        gic = static_cast<Gic *>(&mach->irqChip());
        wire = mach->freq().cycles(cfg.wireUs);

        for (int i = 0; i < cfg.nCpus; ++i) {
            const std::string n = "cpu" + std::to_string(i);
            req.push_back(&eq.channel("fleet.req." + n, wire));
            rsp.push_back(&eq.channel("fleet.rsp." + n, wire));
        }

        armLatency();
        armObservability();

        // VM 0's connections first, then VM 1's, and so on — the
        // fixed index order the checksum folds.
        for (int i = 0; i < cfg.nCpus; ++i) {
            for (int j = 0; j < connsOf(i); ++j) {
                FleetConn conn;
                conn.cpu = i;
                conn.remaining = cfg.transactionsPerConn;
                conns.push_back(conn);
            }
        }

        if (cfg.openLoop) {
            // One independent stream per connection, derived from the
            // single seed with a golden-ratio stride; the burst chain
            // gets its own.
            arrivalRng.reserve(conns.size());
            for (std::size_t k = 0; k < conns.size(); ++k) {
                arrivalRng.emplace_back(
                    cfg.arrivalSeed +
                    0x9e3779b97f4a7c15ULL * (k + 1));
            }
            burstRng = Random(cfg.arrivalSeed ^
                              0xc2b2ae3d27d4eb4fULL);
            arrivalsLeft =
                conns.size() *
                static_cast<std::uint64_t>(cfg.transactionsPerConn);
        }
    }

    /**
     * Read the latency/SLO environment and configure the tracker and
     * the SLO engine. The default objective (when cfg.slos is empty)
     * is the fleet contract: p99 RTT within fleetDefaultSloP99Us with at
     * most 1% of requests above it, judged live over 2 ms burn
     * windows. VIRTSIM_SLO_P99_US / VIRTSIM_SLO_MAX_VIOLATION
     * override the threshold / tolerated fraction of every spec.
     */
    void
    armLatency()
    {
        latencyPath = envPath("VIRTSIM_LATENCY");
        latencyOn = cfg.latency || !latencyPath.empty();
        if (!latencyOn)
            return;
        mach->probe().latency.configure(cfg.nCpus);

        std::vector<SloSpec> specs = cfg.slos;
        if (specs.empty()) {
            SloSpec def;
            def.name = "rtt_p99";
            def.phase = LatencyPhase::Rtt;
            def.quantile = 0.99;
            def.thresholdCycles =
                mach->freq().cycles(fleetDefaultSloP99Us);
            def.maxViolationFraction = 0.01;
            def.burnWindow = mach->freq().cycles(2000.0);
            specs.push_back(def);
        }
        if (const auto us =
                envPositiveReal("VIRTSIM_SLO_P99_US", 1e12)) {
            for (SloSpec &s : specs)
                s.thresholdCycles = mach->freq().cycles(*us);
        }
        if (const auto f =
                envUnitFraction("VIRTSIM_SLO_MAX_VIOLATION")) {
            for (SloSpec &s : specs)
                s.maxViolationFraction = *f;
        }
        for (SloSpec &s : specs)
            slo.addSpec(std::move(s));
        slo.bind(&mach->probe().latency);
    }

    /** Arm the observability sinks the environment asked for. */
    void
    armObservability()
    {
        tracePath = envPath("VIRTSIM_TRACE");
        metricsPath = envPath("VIRTSIM_METRICS");
        flamePath = envPath("VIRTSIM_FLAME");
        timelinePath = envPath("VIRTSIM_TIMELINE");
        incidentsDir = envPath("VIRTSIM_INCIDENTS");
        if (const auto hz = envPositiveCount("VIRTSIM_TIMELINE_HZ",
                                             std::uint64_t{1} << 40)) {
            timelineHz = static_cast<double>(*hz);
        }
        // Incident forensics needs both the stamping tee (trace) and
        // the sampling-tick maintenance hook (timeline), so arming it
        // arms both.
        const bool incidentsOn = !incidentsDir.empty();

        Probe &probe = mach->probe();
        if (cfg.trace || !tracePath.empty() || !flamePath.empty() ||
            incidentsOn) {
            if (const auto cap = envPositiveCount(
                    "VIRTSIM_TRACE_CAPACITY", std::uint64_t{1} << 32))
                probe.trace.setCapacity(
                    static_cast<std::size_t>(*cap));
            probe.trace.enable();
        }
        if (!flamePath.empty()) {
            // The analyzer streams through the deferred observer: the
            // run flushes records to it in canonical merged order at
            // every sampling instant.
            attrib = std::make_unique<CausalAnalyzer>("fleet");
            probe.trace.setObserver(attrib.get());
            probe.trace.setObserverDeferred(true);
        }
        if (latencyOn) {
            probe.latency.enable();
        }
        // As in the testbed, sampling also arms under VIRTSIM_TRACE
        // alone so the Perfetto export carries counter tracks. run()
        // samples gauges between runs of the queue (sampleTick) — the
        // fleet never runs the in-queue tick chain. Latency tracking
        // also arms it: the SLO engine's burn windows and rolling
        // quantile gauges live in the sampling tick.
        if (!timelinePath.empty() || !tracePath.empty() ||
            latencyOn || incidentsOn) {
            const Cycles period = std::max<Cycles>(
                1,
                mach->freq().cyclesFromSeconds(1.0 / timelineHz));
            probe.timeline.enable(period);
        }
        // After the machine's own gauges so registration order (the
        // export order) is stable.
        if (slo.armed())
            slo.installTimeline(probe.timeline, mach->freq());
        if (incidentsOn) {
            // enable() last: it sizes tick rows from the gauge count,
            // so every registration (machine + SLO) must be done.
            const double winUs =
                envPositiveReal("VIRTSIM_INCIDENT_WINDOW_US", 1e9)
                    .value_or(100.0);
            const std::uint32_t icap = static_cast<std::uint32_t>(
                envPositiveCount("VIRTSIM_INCIDENT_CAP",
                                 std::uint64_t{1} << 20)
                    .value_or(16));
            flight.configure(
                std::max<Cycles>(1, mach->freq().cycles(winUs)),
                probe.timeline.period(), icap);
            flight.bind(&probe.timeline,
                        latencyOn ? &probe.latency : nullptr);
            flight.enable();
            probe.trace.setFlightRecorder(&flight);
            FlightRecorder *fr = &flight;
            probe.timeline.addPostSampleHook(
                [fr](Cycles now) { fr->onSample(now); });
            const TimelineSampler *tlp = &probe.timeline;
            probe.timeline.setAnomalyHook(
                [fr, tlp](Cycles now, std::uint32_t ri, bool open) {
                    fr->onAnomaly(now, tlp->ruleName(ri), open);
                });
            if (slo.armed()) {
                SloEngine *se = &slo;
                slo.setBreachHook([fr, se](Cycles now,
                                           std::size_t i) {
                    fr->trigger(now, "slo." + se->specs()[i].name +
                                         ".burn");
                });
            }
        }
    }

    /** Write every armed export. Called once, after the run. */
    void
    exportObservability()
    {
        const TimelineSampler &tl = mach->probe().timeline;
        if (!tracePath.empty()) {
            exportChromeTrace(perTagPath(tracePath), mach->trace(),
                              mach->freq(), "fleet", &tl,
                              flight.enabled() ? &flight : nullptr);
        }
        if (!incidentsDir.empty() && flight.enabled()) {
            flight.exportIncidents(incidentsDir, mach->freq(),
                                   "fleet");
            const std::string s =
                renderIncidentSummary(flight, mach->freq());
            if (!s.empty())
                inform("\n", s);
        }
        if (!flamePath.empty() && attrib)
            attrib->writeFoldedFile(perTagPath(flamePath), "fleet");
        if (!timelinePath.empty()) {
            const std::string path = perTagPath(timelinePath);
            std::ofstream os(path);
            if (!os) {
                warn("cannot open timeline file ", path);
            } else if (path.size() > 4 &&
                       path.compare(path.size() - 4, 4, ".csv") ==
                           0) {
                os << tl.renderCsv(mach->freq());
            } else {
                os << tl.renderJson(mach->freq()) << "\n";
            }
        }
        if (!latencyPath.empty()) {
            const std::string path = perTagPath(latencyPath);
            std::ofstream os(path);
            if (!os) {
                warn("cannot open latency file ", path);
            } else {
                os << renderLatencyJson(
                          mach->probe().latency, mach->freq(),
                          "fleet",
                          slo.armed()
                              ? slo.verdictsJson(mach->freq())
                              : std::string())
                   << "\n";
            }
            inform("\n", renderLatencySummary(mach->probe().latency,
                                              mach->freq()));
        }
        if (!metricsPath.empty()) {
            mach->probe().syncTraceHealth();
            tl.publishAnomalies(mach->metrics());
            if (slo.armed())
                slo.publish(mach->metrics());
            const std::string path = perTagPath(metricsPath);
            std::ofstream os(path);
            if (!os) {
                warn("cannot open metrics file ", path);
            } else {
                os << mach->metrics().snapshot().toJson() << "\n";
            }
        }
    }

    /** Dispatch a request: leaves the client at `depart`, hits the
     *  server CPU one wire flight later. */
    void
    sendRequest(std::size_t connIdx, Cycles depart)
    {
        const int cpu = conns[connIdx].cpu;
        const Cycles at = depart + wire;
        // Open the client->server wire edge on the client's
        // pseudo-track. The token rides the event chain and is
        // redeemed on the server CPU's track, linking the two tracks
        // in the incident window's causal graph.
        const std::uint64_t token = mach->trace().edgeOut(
            depart, edgeWireTap(), TraceCat::Io, clientTrack());
        req[static_cast<std::size_t>(cpu)]->send(
            at, [this, connIdx, cpu, at, token] {
                serveRequest(connIdx, cpu, at, token);
            });
    }

    /** The server side of one transaction on its CPU: NIC
     *  interrupt, LR injection, guest ack, service body, virq
     *  completion — the paper's receive path — then the response
     *  leaves as a separate tx-softirq event. The departure time
     *  (at - wire) rides the event chain so the client can account
     *  the RTT even with several requests of one connection in
     *  flight (open loop). */
    void
    serveRequest(std::size_t connIdx, int cpu, Cycles at,
                 std::uint64_t token)
    {
        PhysicalCpu &p = mach->cpu(cpu);
        const CostModel &cm = mach->costs();
        const Cycles t = std::max(at, p.frontier());

        gic->injectVirq(t, cpu, spiNicIrq);
        Cycles cost = cm.irqEntryExit + gic->lrWriteCost() +
                      gic->regAccessCost();
        const IrqId virq = gic->guestAckVirq(cpu, t);
        cost += cfg.requestWork;
        cost += gic->guestCompleteVirq(cpu, virq);
        // t is at or past the frontier, so the service runs
        // [t, t + cost) and p.run below completes it at done.
        const Cycles done = t + cost;

        // Phase stamps on the server: the request's wire flight, the
        // queue wait in front of this CPU and the service body.
        // Together with the stamps in completeTransaction they record
        // the exact identity
        //   rtt = wire + server_queue + service + wire.
        RequestTracker &lat = mach->probe().latency;
        lat.record(cpu, LatencyPhase::WireFlight, wire);
        lat.record(cpu, LatencyPhase::ServerQueue, t - at);
        lat.record(cpu, LatencyPhase::Service, cost);

        p.run(
            t, cost, [this, connIdx, cpu, at, t, done, token,
                      sentAt = at - wire] {
                // Causal stamps on the server's own track, at the
                // completion event so each of these whens is at or
                // before the stamping instant. Not every stamp of the
                // transaction is: injectVirq above runs at
                // t = max(at, frontier), so the GIC's lrWrite and
                // edge.lr stamps are future-dated to the CPU frontier,
                // ahead of the queue clock. The flight recorder's
                // expiry index evicts by stamp time either way.
                // Redeem the wire edge, then the queue wait and
                // service body as spans, then open the response's
                // wire edge.
                const std::uint16_t trk =
                    static_cast<std::uint16_t>(cpu);
                TraceSink &trace = mach->trace();
                trace.edgeIn(at, token, edgeWireTap(), TraceCat::Io,
                             trk);
                trace.span(at, t, queueTap, TraceCat::Op, trk);
                trace.span(t, done, serveTap, TraceCat::Op, trk);
                const std::uint64_t rtok = trace.edgeOut(
                    done, edgeWireTap(), TraceCat::Io, trk);
                rsp[static_cast<std::size_t>(cpu)]->send(
                    done + wire,
                    [this, connIdx, tr = done + wire, sentAt, rtok] {
                        completeTransaction(connIdx, tr, sentAt,
                                            rtok);
                    });
            });
    }

    /** Client receives the response: account the RTT and,
     *  in the closed loop with transactions remaining, think then
     *  send the next one. Open-loop departures are driven by the
     *  arrival chain instead. */
    void
    completeTransaction(std::size_t connIdx, Cycles tr, Cycles sentAt,
                        std::uint64_t token)
    {
        mach->trace().edgeIn(tr, token, edgeWireTap(), TraceCat::Io,
                             clientTrack());
        FleetConn &c = conns[connIdx];
        c.rttSum += tr - sentAt;
        c.lastDone = tr;
        ++c.completed;
        ++transactions;
        RequestTracker &lat = mach->probe().latency;
        lat.record(c.cpu, LatencyPhase::Rtt, tr - sentAt);
        lat.record(c.cpu, LatencyPhase::WireFlight, wire);
        if (!cfg.openLoop && --c.remaining > 0) {
            lat.record(c.cpu, LatencyPhase::ClientThink,
                       cfg.clientThink);
            sendRequest(connIdx, tr + cfg.clientThink);
        }
    }

    /** Next open-loop inter-arrival gap for connection `k`, at the
     *  rate the current MMPP state dictates. */
    Cycles
    drawInterarrival(std::size_t k)
    {
        const double mean = bursting
                                ? cfg.meanInterarrivalUs /
                                      cfg.burstRateFactor
                                : cfg.meanInterarrivalUs;
        return std::max<Cycles>(
            1, mach->freq().cycles(arrivalRng[k].exponential(mean)));
    }

    /** Open-loop arrival for connection `k` at `when`: the
     *  request departs regardless of outstanding responses, and the
     *  chain reschedules itself while arrivals remain. */
    void
    scheduleArrival(std::size_t k, Cycles when)
    {
        eq.scheduleAt(when, [this, k, when] {
            sendRequest(k, when);
            --arrivalsLeft;
            if (--conns[k].remaining > 0)
                scheduleArrival(k, when + drawInterarrival(k));
        });
    }

    /** MMPP state flip: toggle burst/calm and reschedule
     *  after an exponential sojourn — unless every arrival has
     *  already departed, so the run can drain. */
    void
    scheduleBurstFlip(Cycles when)
    {
        eq.scheduleAt(when, [this, when] {
            bursting = !bursting;
            if (arrivalsLeft == 0)
                return;
            const double mean =
                bursting ? cfg.meanBurstUs : cfg.meanCalmUs;
            const Cycles dt = std::max<Cycles>(
                1, mach->freq().cycles(burstRng.exponential(mean)));
            scheduleBurstFlip(when + dt);
        });
    }

    /**
     * Run the queue dry, sampling the timeline (when armed) at every
     * period-aligned instant. The deferred trace observer is flushed
     * after every stretch between two instants and once at the end.
     * @return the final simulated time.
     */
    Cycles
    drain()
    {
        TimelineSampler &tl = mach->probe().timeline;
        TraceSink *trace = &mach->trace();
        if (tl.enabled())
            tl.runSampled(eq, [trace] { trace->flushObserver(); });
        else
            eq.run();
        trace->flushObserver();
        return eq.now();
    }

    FleetResult
    run()
    {
        // Stagger the opening requests/arrivals with a prime stride
        // so the initial burst does not land on one cycle; steady
        // state is governed by the modelled RTTs (closed loop) or the
        // arrival process (open loop) from then on.
        if (cfg.openLoop) {
            for (std::size_t k = 0; k < conns.size(); ++k)
                scheduleArrival(k, 1 + static_cast<Cycles>(k) * 97);
            if (cfg.burstRateFactor != 1.0) {
                scheduleBurstFlip(
                    1 + std::max<Cycles>(
                            1, mach->freq().cycles(
                                   burstRng.exponential(
                                       cfg.meanCalmUs))));
            }
        } else {
            for (std::size_t k = 0; k < conns.size(); ++k)
                sendRequest(k, 1 + static_cast<Cycles>(k) * 97);
        }

        FleetResult r;
        r.finalTime = drain();
        // Flush incident windows still waiting on their post-trigger
        // half before anything exports.
        if (flight.enabled())
            flight.finalize(r.finalTime);
        r.transactions = transactions;
        if (slo.armed())
            r.sloBreaches = slo.breaches();
        r.anomalies = mach->probe().timeline.anomalyCount();

        std::uint64_t h = 1469598103934665603ULL;
        const auto mix = [&h](std::uint64_t v) {
            for (int b = 0; b < 8; ++b) {
                h ^= (v >> (8 * b)) & 0xff;
                h *= 1099511628211ULL;
            }
        };
        for (std::size_t k = 0; k < conns.size(); ++k) {
            const FleetConn &c = conns[k];
            r.totalRttCycles += c.rttSum;
            mix(k);
            mix(c.completed);
            mix(c.rttSum);
            mix(c.lastDone);
        }
        mix(r.finalTime);
        r.checksum = h;

        exportObservability();
        return r;
    }
};

} // namespace

FleetResult
runNetperfRrFleet(const FleetConfig &cfg, int /*lanes*/)
{
    FleetWorld world(cfg);
    return world.run();
}

} // namespace virtsim
