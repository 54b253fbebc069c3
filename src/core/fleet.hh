/**
 * @file
 * A multi-CPU netperf TCP_RR fleet: the request-level observability
 * and scale-out world.
 *
 * The paper's multicore experiments (Section V.C) run one netperf
 * instance per core; this world models that shape directly — a bank
 * of server CPUs each serving a set of persistent request/response
 * connections from a client behind the 10 GbE wire. The per-CPU
 * request streams interact only through the wire: a request or
 * response is scheduled one wire flight after it departs.
 *
 * The world runs on one EventQueue. With the timeline armed (any of
 * the latency, trace, timeline or incident exports), the run stops at
 * every period-aligned instant to sample the gauges: a sample at t
 * sees every event below t and none at or after t.
 *
 * Every modelled quantity (per-connection RTT sums, CPU frontiers,
 * the final clock) depends only on per-connection and per-CPU state;
 * the checksum folds them in a fixed connection order.
 */

#ifndef VIRTSIM_CORE_FLEET_HH
#define VIRTSIM_CORE_FLEET_HH

#include <cstdint>
#include <vector>

#include "sim/slo.hh"
#include "sim/types.hh"

namespace virtsim {

/** Shape of the fleet workload. Defaults model the paper's 4-CPU
 *  multicore point: 2.4 GHz ARM server, 12 us one-way wire. */
struct FleetConfig
{
    /** Server CPUs (one netperf service per CPU). */
    int nCpus = 4;
    /**
     * Server VMs, the cloud-consolidation scale axis: each VM is one
     * netperf-RR service pinned to its own vCPU, so nVms > 0 sizes
     * the machine to nVms CPUs and overrides nCpus. 0 (the default)
     * keeps the classic one-service-per-CPU shape of nCpus.
     * VIRTSIM_FLEET_VMS=<n> overrides it from the environment, up to
     * maxFleetVms.
     */
    int nVms = 0;
    /** Persistent TCP_RR connections per server CPU. */
    int connsPerCpu = 32;
    /**
     * Per-VM connection counts — the load-skew axis. Empty = uniform
     * (connsPerCpu everywhere); otherwise one entry per VM, each >=
     * 1, and connsPerCpu is ignored.
     */
    std::vector<int> connsByVm;
    /** Request/response transactions each connection performs. */
    int transactionsPerConn = 250;
    /** One-way wire latency in microseconds (client <-> server). */
    double wireUs = 12.0;
    /** Service body per request (protocol + application work). */
    Cycles requestWork = 9000;
    /** Client think time between a response and the next request. */
    Cycles clientThink = 600;
    /** Force trace recording on even without VIRTSIM_TRACE (no file
     *  export) — benches measuring traced-run overhead use this. */
    bool trace = false;

    /**
     * Open-loop arrivals: each connection's requests depart on a
     * modelled arrival process regardless of outstanding responses
     * (requests from one connection may overlap), instead of the
     * default closed think-send-wait loop. transactionsPerConn then
     * bounds the number of arrivals per connection. This is the
     * overload-injection mode: an arrival rate beyond the service
     * capacity grows the server queues without the closed loop's
     * self-limiting, which is what pushes tail latency past an SLO.
     */
    bool openLoop = false;
    /** Mean request inter-arrival time per connection, microseconds
     *  (open loop only; exponential draws). */
    double meanInterarrivalUs = 30.0;
    /**
     * MMPP burst modulation (open loop only): the fleet alternates
     * between calm and burst states with exponential sojourn times;
     * while bursting, every connection's arrival rate is multiplied
     * by this factor. 1 disables modulation (plain Poisson arrivals).
     */
    double burstRateFactor = 1.0;
    /** Mean burst-state sojourn, microseconds. */
    double meanBurstUs = 400.0;
    /** Mean calm-state sojourn, microseconds. */
    double meanCalmUs = 1600.0;
    /** Seed for the arrival and burst-state processes. */
    std::uint64_t arrivalSeed = 0x1ee7;
    /** Force request-latency tracking on even without VIRTSIM_LATENCY
     *  (no file export) — tests and benches reading the tracker or
     *  the SLO verdicts directly use this. */
    bool latency = false;
    /**
     * Latency objectives judged over the run (sim/slo). Only active
     * while latency tracking is armed. Empty = the default fleet SLO
     * (p99 RTT within fleetDefaultSloP99Us, at most 1% of requests
     * above it, judged over 2 ms burn windows).
     */
    std::vector<SloSpec> slos;
};

/** Ceiling on the fleet's VM count (FleetConfig::nVms and the
 *  VIRTSIM_FLEET_VMS override). 256 covers the scale-out story — a
 *  rack's worth of consolidated netperf-RR VMs — while keeping a
 *  typo'd VIRTSIM_FLEET_VMS=1e6 a loud failure instead of a
 *  melted host. */
inline constexpr int maxFleetVms = 256;

/** Default fleet SLO threshold on p99 RTT, microseconds. Roomy for
 *  the default closed-loop fleet (whose steady-state RTT is governed
 *  by connsPerCpu * service time), tight enough that open-loop
 *  overload trips it. FleetConfig::slos replaces the default spec. */
inline constexpr double fleetDefaultSloP99Us = 200.0;

/**
 * What a fleet run produced.
 *
 * rounds/parallelRounds/laneDispatches remain for callers that still
 * read them; a run always reports one round on one lane (1 / 0 / 1).
 */
struct FleetResult
{
    Cycles finalTime = 0;
    std::uint64_t transactions = 0;
    std::uint64_t totalRttCycles = 0;
    /** FNV-1a over every connection's (index, count, rtt-sum, last
     *  completion) in fixed index order, then the final time. */
    std::uint64_t checksum = 0;

    /** SLO objectives that failed end-of-run judgment (0 while
     *  latency tracking is off). */
    std::uint64_t sloBreaches = 0;
    /** Watchdog anomaly windows the timeline recorded (0 while the
     *  timeline is off). */
    std::uint64_t anomalies = 0;

    std::uint64_t rounds = 1;
    std::uint64_t parallelRounds = 0;
    std::uint64_t laneDispatches = 1;

    bool
    sameModelledResult(const FleetResult &o) const
    {
        return finalTime == o.finalTime &&
               transactions == o.transactions &&
               totalRttCycles == o.totalRttCycles &&
               checksum == o.checksum &&
               sloBreaches == o.sloBreaches &&
               anomalies == o.anomalies;
    }
};

/** Run the fleet. `lanes` is accepted and ignored: the fleet runs on
 *  one event queue. */
FleetResult runNetperfRrFleet(const FleetConfig &cfg, int lanes = 1);

} // namespace virtsim

#endif // VIRTSIM_CORE_FLEET_HH
