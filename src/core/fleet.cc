#include "core/fleet.hh"

#include <memory>
#include <optional>
#include <vector>

#include "core/observe.hh"
#include "hw/gic.hh"
#include "hw/machine.hh"
#include "sim/env.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/random.hh"

namespace virtsim {

namespace {

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

/** The running world: machine, queue, connections. */
struct FleetWorld
{
    FleetConfig cfg;
    EventQueue eq;
    MachineConfig mc;
    std::unique_ptr<Machine> mach;
    Gic *gic = nullptr;
    Cycles wire = 0;
    std::vector<FleetConn> conns;
    std::uint64_t transactions = 0;

    /** Every sink, armed once the machine exists; exports carry the
     *  "fleet" tag. */
    std::optional<Observability> obs;

    /** The causal span taps the request path stamps, so an incident
     *  window reconstructs a nonempty critical path. The client side
     *  stamps on a pseudo-track one past the last CPU. */
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
        VIRTSIM_ASSERT(cfg.meanInterarrivalUs > 0.0 &&
                           cfg.burstRateFactor > 0.0 &&
                           cfg.meanBurstUs > 0.0 &&
                           cfg.meanCalmUs > 0.0,
                       "open-loop arrival parameters must be positive");

        mach = std::make_unique<Machine>(eq, mc);
        gic = static_cast<Gic *>(&mach->irqChip());
        wire = mach->freq().cycles(cfg.wireUs);

        // The run drains in sampled stretches, so the analyzer takes
        // its records at each flush, in canonical merged order.
        ObserveConfig oc;
        oc.label = "fleet";
        oc.slos = cfg.slos;
        oc.sloP99Us = fleetDefaultSloP99Us;
        oc.deferAnalyzer = true;
        oc.trace = cfg.trace;
        oc.latency = cfg.latency;
        obs.emplace(*mach, std::move(oc));

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
        eq.scheduleAt(at, [this, connIdx, cpu, at, token] {
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
                // ahead of the queue clock. An incident window selects
                // records by stamp, so it sees them either way.
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
                eq.scheduleAt(done + wire, [this, connIdx, tr = done + wire,
                                            sentAt, rtok] {
                    completeTransaction(connIdx, tr, sentAt, rtok);
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
        r.finalTime = obs->drain();
        r.transactions = transactions;
        r.sloBreaches = obs->sloBreaches();
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

        obs->finish(r.finalTime);
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
