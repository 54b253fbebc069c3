/**
 * @file
 * Incident forensics: an always-on flight recorder with automated
 * anomaly root-cause reports.
 *
 * The interesting behavior in the paper's multicore results — IPI
 * storms, LR maintenance bursts, vhost wakeup stalls — is transient:
 * by the time a 256-VM overload run exports, the trace context
 * surrounding a watchdog anomaly has long been overwritten. The
 * FlightRecorder fixes that by freezing a *simulated-time window* of
 * the machine's trace ring, timeline tick rows and latency-phase
 * cumulatives into a structured incident when a trigger fires.
 *
 * The recorder keeps no copy of the trace: an incident reads its
 * records straight out of the bound TraceSink, so the ring's capacity
 * (VIRTSIM_TRACE_CAPACITY) bounds how much of a window survives. The
 * only state it stores per tick is a row of gauge values and latency
 * cumulatives, which the trace ring does not carry. All bookkeeping
 * (tick rows, reference sealing, incident capture) runs in a timeline
 * post-sample hook at period-aligned simulated instants, so the
 * stamping path pays nothing for the recorder.
 *
 * Window model: a trigger at simulated time t freezes [t−W, t+W]
 * (W = 100 us, set by core/observe, which arms the recorder).
 * Capture happens at the first sampling tick strictly after t+W, so
 * tick rows are kept for R = 2W + 8·period behind the sampling clock,
 * which always covers a full window at capture: now ≤ t+W+period and
 * now − (t−W) ≤ 2W+period < R. A window is flagged truncated when the
 * ring overwrote a record stamped at or after its begin.
 *
 * Trigger sources: watchdog anomaly open/close (TimelineSampler's
 * anomaly hook) and SLO burn breach (SloEngine's breach hook).
 * Same-tick firings merge into one incident. Each captured incident
 * carries: the in-window record multiset (canonically sorted — the
 * same key TraceSink::forEachMerged uses), a CausalAnalyzer blame
 * report over just the
 * window, the window's critical path, a blame diff against a healthy
 * reference window sealed early in the run ("what changed when the
 * anomaly started"), in-window gauge series, and per-phase latency
 * deltas. Export is one "virtsim-incident-1" JSON per incident under
 * VIRTSIM_INCIDENTS=<dir>, capped with drop accounting.
 */

#ifndef VIRTSIM_SIM_FLIGHT_HH
#define VIRTSIM_SIM_FLIGHT_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/attrib.hh"
#include "sim/latency.hh"
#include "sim/probe.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

/** One frozen incident: the forensic context around a trigger. */
struct FlightIncident
{
    std::uint32_t seq = 0;  ///< 0-based capture order
    Cycles triggerAt = 0;   ///< simulated instant of the first firing
    /** Trigger source labels ("watchdog.<rule>.open",
     *  "slo.<name>.burn", ...), sorted and deduplicated. */
    std::vector<std::string> sources;

    Cycles begin = 0; ///< window start, max(triggerAt − W, 0)
    Cycles end = 0;   ///< window end, triggerAt + W (clamped when clipped)
    /** Run ended before the post-trigger half of the window elapsed;
     *  end was clamped to the final time. */
    bool clipped = false;
    /** The trace ring overwrote records stamped at/after begin — the
     *  window may be missing context (surfaced, never silent). */
    bool truncated = false;

    /** In-window records, canonically sorted (when, EdgeOut-first,
     *  track, write position). */
    std::vector<TraceRecord> records;

    /** Per-primitive self-cycle blame over just the window. */
    BlameReport blame;
    /** Latency-critical chain through the window's causal graph. */
    CriticalPath critical;

    /** One in-window gauge series (carry-in sample plus changes). */
    struct GaugeSeries
    {
        std::string name;
        std::uint16_t track = gaugeNoTrack;
        std::vector<TimelineSample> samples;
    };
    std::vector<GaugeSeries> gauges; ///< timeline registration order

    /** Per-phase latency inside the window plus cumulative quantiles
     *  at capture time. */
    struct PhaseStat
    {
        std::uint64_t windowCount = 0; ///< samples recorded in-window
        std::uint64_t windowSum = 0;   ///< their summed cycles
        std::uint64_t p50 = 0;         ///< cumulative p50 at capture
        std::uint64_t p99 = 0;         ///< cumulative p99 at capture
    };
    std::array<PhaseStat, numLatencyPhases> phases{};
};

/**
 * The always-on flight recorder. Owned by the observability harness
 * (core/observe), driven by a timeline post-sample hook and reading
 * its windows from the machine's TraceSink.
 *
 * Setup order: configure() the window, bind() the trace sink, timeline
 * and request tracker, then enable() *last* — after every gauge is
 * registered (installTimeline) — since enable() sizes the tick-row
 * storage from the bound timeline's gauge count.
 */
class FlightRecorder
{
  public:
    FlightRecorder() = default;
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /**
     * Set the window half-width W, the timeline period driving the
     * maintenance hook, and the captured-incident cap. Tick-row
     * retention is derived (2W + 8·period). Call before enable().
     */
    void configure(Cycles windowHalf, Cycles period,
                   std::uint32_t incidentCap);

    /** Bind the record source, the gauge source and the latency
     *  tracker (any may be null: the matching incident sections
     *  export empty). */
    void
    bind(const TraceSink *sink, const TimelineSampler *tl,
         const RequestTracker *lat)
    {
        trace = sink;
        timeline = tl;
        tracker = lat;
    }

    /** Arm recording. Allocates the tick-row storage; call after
     *  configure()/bind() and after the bound timeline registered
     *  every gauge. */
    void enable();

    bool enabled() const { return _enabled; }

    Cycles windowHalf() const { return window; }

    /**
     * Open a pending incident around simulated instant `now`.
     * Triggers at the same instant merge into one incident; beyond
     * the incident cap the firing is counted in incidentsDropped().
     * Trigger sources are timeline and SLO hooks, which run at
     * sampling ticks.
     */
    void trigger(Cycles now, std::string source);

    /** Watchdog anomaly trigger adapter: labels the source
     *  "watchdog.<rule>.open" / ".close". */
    void onAnomaly(Cycles now, const std::string &rule, bool open);

    /**
     * Window maintenance, run as a timeline post-sample hook at every
     * sampling tick: drop tick rows past retention, append the tick
     * row (gauge values + latency cumulatives), seal the healthy
     * reference window once 2W of run has elapsed, and capture any
     * pending incident whose window has fully elapsed.
     */
    void onSample(Cycles now);

    /** End-of-run flush: capture still-pending incidents with their
     *  windows clipped to `now`. Call before exporting. */
    void finalize(Cycles now);

    std::size_t incidentCount() const { return incidents.size(); }
    const FlightIncident &incident(std::size_t i) const;
    /** Trigger firings lost to the incident cap. */
    std::uint64_t incidentsDropped() const { return _dropped; }

    /** The healthy reference window, once sealed. */
    bool referenceSealed() const { return refSealed; }
    Cycles referenceEnd() const { return refEnd; }
    const BlameReport &referenceBlame() const { return refBlame; }

    /** One incident as a "virtsim-incident-1" JSON document. */
    std::string renderIncidentJson(std::size_t i, const Frequency &freq,
                                   const std::string &world) const;

    /**
     * Write one JSON file per captured incident into `dir`
     * ("incident.<world>.<NNN>.json"), creating the directory as
     * needed. @return false when the directory or a file could not
     * be created (logged). */
    bool exportIncidents(const std::string &dir, const Frequency &freq,
                         const std::string &world) const;

    /** Emit Chrome-trace annotation events (one complete event per
     *  incident window plus a trigger instant), each preceded by
     *  ",\n" — the TimelineSampler::writeCounterEvents contract. */
    void writeAnnotationEvents(std::ostream &os,
                               const Frequency &freq) const;

    /** Drop rows, incidents, pendings and the reference; keep
     *  configuration, binding and the enabled flag (the
     *  Probe::reset() contract). */
    void reset();

  private:
    /** A trigger whose post-window has not elapsed yet. */
    struct Pending
    {
        Cycles at = 0;
        Cycles begin = 0;
        Cycles end = 0;
        std::vector<std::string> sources;
    };

    /** Trace records stamped in [begin, end], canonically sorted —
     *  what an incident over that window freezes. Empty when no
     *  sink is bound. */
    std::vector<TraceRecord>
    collectWindow(Cycles begin, Cycles end) const
    {
        return trace ? trace->mergedWindow(begin, end)
                     : std::vector<TraceRecord>{};
    }

    void evict(Cycles now);
    void appendRow(Cycles now);
    void sealReference(Cycles now);
    void capture(Pending &p, bool clipped);

    const TraceSink *trace = nullptr;
    const TimelineSampler *timeline = nullptr;
    const RequestTracker *tracker = nullptr;

    Cycles window = 0;     ///< half-width W
    Cycles _period = 0;
    Cycles _retention = 0; ///< 2W + 8·period
    std::uint32_t cap = 0; ///< captured-incident cap

    /** Tick-row ring: per-tick gauge values and latency cumulatives,
     *  laid out flat (row r at r·stride). */
    std::unique_ptr<Cycles[]> rowWhen;
    std::unique_ptr<std::int64_t[]> rowGauge;    ///< rows × nGauges
    std::unique_ptr<std::uint64_t[]> rowPhase;   ///< rows × phases × 2
    std::size_t rowCap = 0;
    std::size_t rowHead = 0;  ///< next write row
    std::size_t rowCount = 0; ///< live rows
    std::size_t nGauges = 0;

    std::vector<Pending> pendings;
    std::vector<FlightIncident> incidents;
    std::uint64_t _dropped = 0;

    bool refSealed = false;
    Cycles refEnd = 0;
    std::uint64_t refRecords = 0;
    BlameReport refBlame;

    bool _enabled = false;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_FLIGHT_HH
