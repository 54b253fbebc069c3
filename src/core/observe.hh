/**
 * @file
 * The observability harness every world arms its machine with.
 *
 * Six environment switches choose the exports, each naming a file
 * (VIRTSIM_INCIDENTS a directory):
 *
 *   VIRTSIM_TRACE      Perfetto trace; arms the trace sink and timeline
 *   VIRTSIM_METRICS    metrics snapshot JSON
 *   VIRTSIM_FLAME      folded stacks; arms the causal analyzer
 *   VIRTSIM_TIMELINE   gauge series, JSON (CSV for a .csv path)
 *   VIRTSIM_LATENCY    request latency and SLO verdicts; arms the
 *                      tracker, the SLO engine and the timeline
 *   VIRTSIM_INCIDENTS  incident reports; arms the flight recorder,
 *                      the trace sink and the timeline
 *
 * and VIRTSIM_TRACE_CAPACITY resizes the trace ring. The harness reads
 * them and arms the machine's probe once, at construction; finish()
 * writes every armed export. Each file carries the world's tag before
 * its extension ("out.json" -> "out.kvm_arm.json", "out.fleet.json"),
 * so worlds that share a process never clobber each other's files.
 */

#ifndef VIRTSIM_CORE_OBSERVE_HH
#define VIRTSIM_CORE_OBSERVE_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/attrib.hh"
#include "sim/flight.hh"
#include "sim/slo.hh"

namespace virtsim {

class Machine;

/** What a world decides about its own observability; everything else
 *  comes from the environment. */
struct ObserveConfig
{
    /** Names the world in exports ("KVM ARM", "fleet"); file names and
     *  incident reports carry fileTag(label). */
    std::string label;
    /** Objectives judged while latency tracking is armed. Empty = one
     *  objective: p99 RTT within sloP99Us, at most 1% of requests
     *  above it, judged over 2 ms burn windows. */
    std::vector<SloSpec> slos;
    double sloP99Us = 0;
    /** The analyzer sees records only at TraceSink::flushObserver(),
     *  which drain() calls after every sampled stretch. */
    bool deferAnalyzer = false;
    /** Arm a sink without its export (no file is written). */
    bool trace = false;
    bool timeline = false;
    bool latency = false;
    /** The world's watchdog rules, installed when the sampler arms,
     *  ahead of the SLO's own rules. */
    std::function<void(TimelineSampler &)> rules;
};

/** "KVM ARM (VHE)" -> "kvm_arm__vhe_": alphanumerics lowercased,
 *  everything else '_'. */
std::string fileTag(std::string_view label);

/** "out.json" + "kvm_arm" -> "out.kvm_arm.json"; a path with no
 *  extension in its last component gets ".kvm_arm" appended. */
std::string taggedPath(const std::string &path, const std::string &tag);

class Observability
{
  public:
    /** Read the environment and arm `machine`'s probe. The machine's
     *  gauges must all be registered: the SLO gauges and the flight
     *  recorder's tick rows follow them. */
    Observability(Machine &machine, ObserveConfig config);

    Observability(const Observability &) = delete;
    Observability &operator=(const Observability &) = delete;

    /** The streaming causal analyzer. The first call creates it,
     *  enables the trace sink and attaches it as the sink's observer;
     *  VIRTSIM_FLAME makes that call at construction. */
    CausalAnalyzer &attribution();

    /** Failing end-of-run SLO verdicts so far; 0 when unarmed. */
    std::uint64_t
    sloBreaches() const
    {
        return slo.armed() ? slo.breaches() : 0;
    }

    /**
     * Run the machine's queue dry. With the timeline armed the queue
     * stops at every period-aligned instant for a sample
     * (TimelineSampler::runSampled); otherwise it runs straight
     * through. The deferred trace observer is flushed after every
     * stretch between two instants and once at the end.
     * @return the final simulated time.
     */
    Cycles drain();

    /** Forget run-scoped sink state (SLO windows, flight recorder,
     *  blame) after the probe itself was reset. */
    void reset();

    /** Capture incident windows still open at `now`, then write every
     *  armed export. */
    void finish(Cycles now);

  private:
    Machine &m;
    std::string label;
    std::string tag;
    bool deferAnalyzer;
    std::string tracePath;
    std::string metricsPath;
    std::string flamePath;
    std::string timelinePath;
    std::string latencyPath;
    std::string incidentsDir;
    SloEngine slo;
    FlightRecorder flight;
    std::unique_ptr<CausalAnalyzer> attrib;
};

} // namespace virtsim

#endif // VIRTSIM_CORE_OBSERVE_HH
