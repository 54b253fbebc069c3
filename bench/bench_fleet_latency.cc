/**
 * @file
 * Fleet tail-latency and SLO bench: the request-level observability
 * acceptance harness.
 *
 * Two scenarios on the same 4-CPU netperf TCP_RR fleet:
 *
 *  1. nominal — the default closed-loop fleet. The closed loop
 *     self-limits (each connection waits for its response before
 *     thinking and sending again), so steady-state RTT is governed by
 *     connsPerCpu * service time and the default SLO (p99 RTT within
 *     fleetDefaultSloP99Us) must hold: zero breaches, zero watchdog
 *     anomalies.
 *
 *  2. overload — open-loop MMPP arrivals beyond the service capacity
 *     (plus 4x bursts). Without the closed loop's self-limiting the
 *     server queues grow, the tail blows past the threshold, and the
 *     run MUST trip the SLO: a failed rtt_p99 verdict in the latency
 *     export and a named "slo.rtt_p99" watchdog anomaly.
 *
 * Exit status is 0 only when the nominal run passes AND the overload
 * run breaches — this bench guards both directions: an SLO engine
 * that never fires is as broken as one that always does.
 *
 * The overload scenario additionally arms the flight recorder
 * (VIRTSIM_INCIDENTS=incidents): the SLO burn breach must freeze at
 * least one incident whose report names the breached slo.* rule —
 * guarding the trigger wiring, the window capture and the export in
 * one pass.
 *
 * Artifacts: virtsim-latency-1 JSON exports land in the working
 * directory (latency_nominal.fleet.json / latency_overload.fleet.json)
 * and virtsim-incident-1 reports under incidents/ for CI upload,
 * scripts/validate_latency.py and scripts/validate_incident.py.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/fleet.hh"
#include "core/report.hh"
#include "hw/machine.hh"

using namespace virtsim;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

bool
contains(const std::string &hay, const std::string &needle)
{
    return hay.find(needle) != std::string::npos;
}

FleetResult
runScenario(const char *name, const FleetConfig &cfg,
            const Frequency &freq)
{
    const std::string path = std::string("latency_") + name + ".json";
    setenv("VIRTSIM_LATENCY", path.c_str(), 1);
    std::cout << "== " << name << " ==\n";
    const FleetResult r = runNetperfRrFleet(cfg);
    const double meanRttUs =
        r.transactions == 0
            ? 0.0
            : freq.us(r.totalRttCycles) /
                  static_cast<double>(r.transactions);
    std::cout << "transactions " << r.transactions << ", mean RTT "
              << formatFixed(meanRttUs, 2) << " us, final time "
              << formatFixed(freq.us(r.finalTime) / 1000.0, 2)
              << " ms, SLO breaches " << r.sloBreaches
              << ", watchdog anomalies " << r.anomalies << "\n\n";
    return r;
}

} // namespace

int
main()
{
    std::cout << "Fleet tail latency & SLOs\n"
              << "Request-level observability acceptance: HDR"
                 " histograms, phase decomposition, SLO engine.\n\n";

    const Frequency freq =
        MachineConfig::hpMoonshotM400().costs.freq;

    // The bench owns its export paths; the fleet tags them ".fleet".
    FleetConfig nominal;
    const FleetResult rNominal =
        runScenario("nominal", nominal, freq);

    FleetConfig over;
    // Freeze forensic context around the breach: one incident per
    // trigger instant, windows annotated into any VIRTSIM_TRACE.
    setenv("VIRTSIM_INCIDENTS", "incidents", 1);
    over.transactionsPerConn = 150;
    over.openLoop = true;
    // Per-CPU offered load: connsPerCpu / meanInterarrivalUs
    // ~= 0.53 req/us against ~0.25 req/us of service capacity —
    // about 2x overcommit even between bursts, 8x inside them.
    over.meanInterarrivalUs = 60.0;
    over.burstRateFactor = 4.0;
    const FleetResult rOver =
        runScenario("overload", over, freq);

    const std::string overJson = slurp("latency_overload.fleet.json");

    // At least one exported incident must name the breached SLO rule
    // as a trigger source and carry a nonempty critical path.
    bool incidentNamesRule = false;
    std::error_code ec;
    for (const auto &de :
         std::filesystem::directory_iterator("incidents", ec)) {
        const std::string body = slurp(de.path().string());
        if (contains(body, "\"schema\":\"virtsim-incident-1\"") &&
            contains(body, "slo.rtt_p99") &&
            !contains(body, "\"steps\":[]")) {
            incidentNamesRule = true;
        }
    }
    const bool nominalPass =
        rNominal.sloBreaches == 0 && rNominal.anomalies == 0;
    const bool overloadTripped =
        rOver.sloBreaches > 0 && rOver.anomalies > 0 &&
        contains(overJson, "\"name\":\"rtt_p99\"") &&
        contains(overJson, "\"pass\":false") && incidentNamesRule;

    std::cout << "Nominal fleet meets the SLO (no breach, no"
                 " anomaly): "
              << (nominalPass ? "yes" : "NO") << "\n"
              << "Overload trips the SLO (breach + named"
                 " slo.rtt_p99 anomaly + incident report): "
              << (overloadTripped ? "yes" : "NO") << "\n";

    return (nominalPass && overloadTripped) ? 0 : 1;
}
