#include "core/observe.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "core/report.hh"
#include "hw/machine.hh"
#include "sim/env.hh"
#include "sim/latency.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** Sampling rate in simulated Hz: one sample per simulated 10 us keeps
 *  a Table V run well inside the per-series capacity. */
constexpr double timelineHz = 100000.0;

/** Incident half-window W in microseconds: a trigger at t captures
 *  [t - W, t + W]. */
constexpr double incidentWindowUs = 100.0;

/** Incidents captured per run; later triggers are counted as dropped. */
constexpr std::uint32_t incidentCap = 16;

std::string
envPath(const char *name)
{
    const char *p = std::getenv(name);
    return (p && *p) ? std::string(p) : std::string();
}

} // namespace

std::string
fileTag(std::string_view label)
{
    std::string tag(label);
    for (char &c : tag)
        c = std::isalnum(static_cast<unsigned char>(c))
                ? static_cast<char>(
                      std::tolower(static_cast<unsigned char>(c)))
                : '_';
    return tag;
}

std::string
taggedPath(const std::string &path, const std::string &tag)
{
    const std::size_t dot = path.rfind('.');
    if (dot == std::string::npos ||
        path.find('/', dot) != std::string::npos)
        return path + "." + tag;
    return path.substr(0, dot) + "." + tag + path.substr(dot);
}

Observability::Observability(Machine &machine, ObserveConfig config)
    : m(machine), label(std::move(config.label)), tag(fileTag(label)),
      deferAnalyzer(config.deferAnalyzer),
      tracePath(envPath("VIRTSIM_TRACE")),
      metricsPath(envPath("VIRTSIM_METRICS")),
      flamePath(envPath("VIRTSIM_FLAME")),
      timelinePath(envPath("VIRTSIM_TIMELINE")),
      latencyPath(envPath("VIRTSIM_LATENCY")),
      incidentsDir(envPath("VIRTSIM_INCIDENTS"))
{
    Probe &p = m.probe();
    const Frequency &f = m.freq();
    // Rounded up to a power of two; 24 bytes per record.
    if (const auto cap = envPositiveCount("VIRTSIM_TRACE_CAPACITY",
                                          std::uint64_t{1} << 32))
        p.trace.setCapacity(static_cast<std::size_t>(*cap));
    // The flight recorder reads its windows from the trace ring and
    // keeps its books in the sampling tick, so incidents arm the
    // trace sink and the timeline too.
    const bool incidentsOn = !incidentsDir.empty();
    if (config.trace || !tracePath.empty() || incidentsOn)
        p.trace.enable();
    if (!flamePath.empty())
        attribution();
    const bool latencyOn = config.latency || !latencyPath.empty();
    if (latencyOn) {
        p.latency.configure(m.numCpus());
        p.latency.enable();
        if (config.slos.empty()) {
            SloSpec def;
            def.name = "rtt_p99";
            def.phase = LatencyPhase::Rtt;
            def.quantile = 0.99;
            def.thresholdCycles = f.cycles(config.sloP99Us);
            def.maxViolationFraction = 0.01;
            def.burnWindow = f.cycles(2000.0);
            config.slos.push_back(def);
        }
        for (SloSpec &s : config.slos)
            slo.addSpec(std::move(s));
        slo.bind(&p.latency);
    }
    // Sampling also arms under VIRTSIM_TRACE alone, so the Perfetto
    // export carries counter tracks next to its spans, and under
    // latency tracking: the SLO burn windows evaluate in the sample
    // hook.
    if (!(config.timeline || !timelinePath.empty() ||
          !tracePath.empty() || latencyOn || incidentsOn))
        return;
    TimelineSampler &tl = p.timeline;
    tl.enable(std::max<Cycles>(1, f.cyclesFromSeconds(1.0 / timelineHz)));
    if (config.rules)
        config.rules(tl);
    if (slo.armed())
        slo.installTimeline(tl, f);
    if (!incidentsOn)
        return;
    // Arm last: enable() sizes tick-row storage from the gauge count,
    // so every registration above must be done.
    flight.configure(std::max<Cycles>(1, f.cycles(incidentWindowUs)),
                     tl.period(), incidentCap);
    flight.bind(&p.trace, &tl, latencyOn ? &p.latency : nullptr);
    flight.enable();
    FlightRecorder *fr = &flight;
    tl.addPostSampleHook([fr](Cycles now) { fr->onSample(now); });
    const TimelineSampler *tlp = &tl;
    tl.setAnomalyHook([fr, tlp](Cycles now, std::uint32_t ri, bool open) {
        fr->onAnomaly(now, tlp->ruleName(ri), open);
    });
    if (slo.armed()) {
        SloEngine *se = &slo;
        slo.setBreachHook([fr, se](Cycles now, std::size_t i) {
            fr->trigger(now, "slo." + se->specs()[i].name + ".burn");
        });
    }
}

CausalAnalyzer &
Observability::attribution()
{
    if (!attrib) {
        attrib = std::make_unique<CausalAnalyzer>(label);
        TraceSink &trace = m.trace();
        trace.enable();
        trace.setObserver(attrib.get());
        trace.setObserverDeferred(deferAnalyzer);
    }
    return *attrib;
}

Cycles
Observability::drain()
{
    EventQueue &eq = m.queue();
    TimelineSampler &tl = m.probe().timeline;
    TraceSink *trace = &m.trace();
    if (tl.enabled())
        tl.runSampled(eq, [trace] { trace->flushObserver(); });
    else
        eq.run();
    trace->flushObserver();
    return eq.now();
}

void
Observability::reset()
{
    // Histogram counts went back to zero; the burn-window bases the
    // live SLO state holds would be stale against them.
    slo.reset();
    flight.reset();
    if (attrib)
        attrib->reset();
}

void
Observability::finish(Cycles now)
{
    if (tracePath.empty() && metricsPath.empty() && flamePath.empty() &&
        timelinePath.empty() && latencyPath.empty() &&
        incidentsDir.empty()) {
        return;
    }
    // Parallel sweeps tear worlds down from worker threads; exports go
    // one at a time.
    static std::mutex exportMutex;
    std::lock_guard<std::mutex> lock(exportMutex);
    Probe &p = m.probe();
    const Frequency &f = m.freq();
    const TimelineSampler &tl = p.timeline;
    // Capture incident windows still waiting on their post-trigger
    // half before the trace annotations and incident files write.
    if (flight.enabled())
        flight.finalize(now);
    if (!tracePath.empty()) {
        exportChromeTrace(taggedPath(tracePath, tag), p.trace, f, label,
                          &tl, flight.enabled() ? &flight : nullptr);
    }
    if (!incidentsDir.empty() && flight.enabled()) {
        flight.exportIncidents(incidentsDir, f, tag);
        const std::string s = renderIncidentSummary(flight, f);
        if (!s.empty())
            inform("\n", s);
    }
    if (!flamePath.empty() && attrib)
        attrib->writeFoldedFile(taggedPath(flamePath, tag), label);
    if (!timelinePath.empty()) {
        const std::string path = taggedPath(timelinePath, tag);
        std::ofstream os(path);
        if (!os) {
            warn("cannot open timeline file ", path);
        } else if (path.size() > 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0) {
            os << tl.renderCsv(f);
        } else {
            os << tl.renderJson(f) << "\n";
        }
    }
    if (!latencyPath.empty()) {
        const std::string path = taggedPath(latencyPath, tag);
        std::ofstream os(path);
        if (!os) {
            warn("cannot open latency file ", path);
        } else {
            os << renderLatencyJson(p.latency, f, label,
                                    slo.armed() ? slo.verdictsJson(f)
                                                 : std::string())
               << "\n";
        }
        inform("\n", renderLatencySummary(p.latency, f));
    }
    if (!metricsPath.empty()) {
        p.syncTraceHealth();
        // Watchdog findings land in the snapshot too, so a metrics
        // dump carries the anomaly verdict even when nobody keeps the
        // timeline file.
        tl.publishAnomalies(p.metrics);
        if (slo.armed())
            slo.publish(p.metrics);
        const std::string path = taggedPath(metricsPath, tag);
        std::ofstream os(path);
        if (!os)
            warn("cannot open metrics file ", path);
        else
            os << p.metrics.snapshot().toJson() << "\n";
    }
}

} // namespace virtsim
