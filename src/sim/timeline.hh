/**
 * @file
 * Deterministic simulated-time gauge sampling: counter timelines and
 * an anomaly watchdog.
 *
 * Spans (TraceSink) capture *what happened*; the timeline captures
 * *state over time* — how deep the NIC ring sits, which exception
 * level each CPU occupies, how full the GIC list registers are.
 * Components register lightweight gauge providers at construction;
 * runSampled() drains the event queue in stretches, stopping at every
 * period-aligned simulated instant to read every gauge into
 * fixed-capacity POD series. The sampler schedules no event of its
 * own, so it reads the model without becoming part of it. Because the
 * instants are simulated timestamps of the deterministic event queue,
 * the exported series are byte-identical across VIRTSIM_JOBS.
 *
 * Cost model mirrors TraceSink: when disabled, a world's drain
 * (Observability::drain) runs its queue straight through and the
 * sampler costs nothing; when enabled, a sampling tick touches
 * preallocated arrays only — no heap traffic.
 *
 * The Watchdog layers declarative rules over the live series
 * ("value >= threshold sustained for N cycles") and records
 * structured anomaly windows; benches assert anomalyCount() == 0 so
 * a saturated LR file or a ring-drop burst fails CI instead of
 * silently skewing a table.
 *
 * Include-cycle note: probe.hh includes this header and defines
 * MetricsRegistry, so MetricsRegistry (and EventQueue, to keep this
 * header light) are forward-declared and everything that needs their
 * definitions lives in timeline.cc.
 */

#ifndef VIRTSIM_SIM_TIMELINE_HH
#define VIRTSIM_SIM_TIMELINE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

class EventQueue;
class MetricsRegistry;

/** Gauge callbacks capture raw pointers into the owning component;
 *  48 bytes covers a this-pointer plus a couple of indices. */
using GaugeFn = InlineFunction<std::int64_t(), 48>;

/** Pre-gauge sample hook: runs at the top of every sampling tick,
 *  before gauges are read (see addSampleHook). */
using SampleHookFn = InlineFunction<void(Cycles), 48>;

/** Watchdog anomaly notification: (now, rule index, open). Fires once
 *  when a rule first crosses its minDuration (open = true) and once
 *  when the gauge drops back below threshold (open = false) — also for
 *  windows the saturated anomaly buffer could not record. */
using AnomalyHookFn = InlineFunction<void(Cycles, std::uint32_t, bool), 48>;

/** Track id for gauges with no per-CPU affinity. */
inline constexpr std::uint16_t gaugeNoTrack = 0xffff;

/** One stored sample: 16-byte POD, memcpy-friendly. */
struct TimelineSample {
    Cycles when;
    std::int64_t value;
};

class TimelineSampler
{
  public:
    /** How the sampler interprets a gauge's return value. */
    enum class GaugeKind : std::uint8_t {
        Level, ///< instantaneous level, stored as read
        Rate,  ///< monotone cumulative count, stored as per-period delta
    };

    /** Per-gauge samples kept once enabled. Sized so a full Table V
     *  netperf run (tens of thousands of ticks) fits after change
     *  deduplication; overflow drops newest with accounting. */
    static constexpr std::uint32_t seriesCapacity = 4096;
    /** Upper bound on recorded anomaly windows per run. */
    static constexpr std::uint32_t anomalyCapacity = 64;

    TimelineSampler() = default;
    TimelineSampler(const TimelineSampler &) = delete;
    TimelineSampler &operator=(const TimelineSampler &) = delete;

    /** Register an instantaneous-level gauge. Registration order is
     *  the export order, so callers must register deterministically.
     *  Setup-path only; never called while sampling. */
    void addGauge(std::string name, GaugeFn fn,
                  std::uint16_t track = gaugeNoTrack);

    /** Register a gauge over a monotone cumulative counter; the
     *  sampler stores the per-period delta. */
    void addRateGauge(std::string name, GaugeFn fn,
                      std::uint16_t track = gaugeNoTrack);

    /**
     * Register a hook that runs at the top of every sampling tick,
     * before any gauge is read — the SLO engine refreshes its
     * rolling-quantile readings here.
     * Hooks run in registration order; like gauges, registration
     * must be deterministic. Kept by resetSeries().
     */
    void addSampleHook(SampleHookFn fn);

    /**
     * Register a hook that runs at the bottom of every sampling tick,
     * after every gauge has been read and the watchdog rules have been
     * evaluated. Same quiescence and determinism contract as
     * addSampleHook(); the flight recorder folds its window
     * maintenance (tick rows, reference sealing, incident capture)
     * here. Kept by resetSeries().
     */
    void addPostSampleHook(SampleHookFn fn);

    /** Install the (single) anomaly open/close observer. */
    void setAnomalyHook(AnomalyHookFn fn) { anomalyHook = std::move(fn); }

    /** Index of a registered gauge, or -1 when absent. */
    int findGauge(std::string_view name) const;

    std::size_t gaugeCount() const { return series.size(); }
    const std::string &gaugeName(std::size_t g) const;
    std::uint16_t gaugeTrack(std::size_t g) const;
    /** Value read on the most recent tick (what watchdog rules judge). */
    std::int64_t gaugeLive(std::size_t g) const;

    /**
     * Declare a watchdog rule: fire when `gauge`'s sampled value sits
     * at or above `threshold` for at least `minDuration` consecutive
     * simulated cycles (0 = fire on first offending sample).
     */
    void addRule(std::string name, std::string_view gauge,
                 std::int64_t threshold, Cycles minDuration);

    std::size_t ruleCount() const { return rules.size(); }

    /** Arm sampling at the given simulated-time period. Idempotent;
     *  allocates the per-gauge sample buffers on first call. */
    void enable(Cycles period);
    bool enabled() const { return _enabled; }
    Cycles period() const { return _period; }

    /**
     * Run `eq` dry, stopping at every period-aligned instant t from
     * eq.now() on to take one sample of every gauge: each sample sees
     * every event below t and none at or after t. No sample is taken
     * once the queue has drained, and an instant an earlier drain
     * already sampled is not sampled again. `afterStretch`, if set,
     * runs after each stretch of events between two instants.
     * @pre enabled()
     * @return the final simulated time.
     */
    Cycles runSampled(EventQueue &eq,
                      InlineFunction<void()> afterStretch = nullptr);

    /** Samples stored for gauge `g` (after change deduplication). */
    std::uint32_t sampleCount(std::size_t g) const;
    const TimelineSample *samplesFor(std::size_t g) const;
    /** Samples discarded because a series hit capacity. */
    std::uint64_t droppedSamples() const { return _dropped; }
    /** Total sampling ticks taken since the last resetSeries(). */
    std::uint64_t tickCount() const { return _ticks; }

    /** One recorded rule violation window. */
    struct Anomaly {
        std::uint32_t rule;  ///< index into rules, stable per run
        Cycles begin;        ///< first sample at/above threshold
        Cycles end;          ///< latest sample still above threshold
        std::int64_t peak;   ///< maximum sampled value in the window
    };

    std::uint32_t anomalyCount() const { return anomalyUsed; }
    const Anomaly *anomalies() const { return anomalyBuf.get(); }
    /** Anomaly windows lost to a saturated buffer (one per window, not
     *  per tick) — nonzero means anomalyCount() undercounts. */
    std::uint64_t anomaliesDropped() const { return _anomaliesDropped; }
    const std::string &ruleName(std::uint32_t r) const;

    /** Publish anomaly totals as watchdog.* machine counters —
     *  watchdog.anomalies plus one counter per offending rule.
     *  Export-path; allocation is fine here. */
    void publishAnomalies(MetricsRegistry &metrics) const;

    /**
     * Drop sampled data and live rule state but keep gauge and rule
     * registrations and the enable/period configuration. Called from
     * Probe::reset() (Testbed::beginRun()) so back-to-back workloads
     * on one testbed start from an empty timeline.
     */
    void resetSeries();

    /** Standalone JSON export (schema "virtsim-timeline-1"). */
    std::string renderJson(const Frequency &freq) const;
    /** Standalone CSV export: series,track,kind,cycles,us,value. */
    std::string renderCsv(const Frequency &freq) const;
    /**
     * Emit Chrome-trace counter events ("ph":"C") for every stored
     * sample, one counter track per gauge, for merging into the
     * TraceSink Perfetto export. Writes nothing when no samples are
     * stored. Each event is preceded by ",\n" so the caller can
     * append directly after its last event object.
     */
    void writeCounterEvents(std::ostream &os,
                            const Frequency &freq) const;

  private:
    struct Series {
        std::string name;
        GaugeFn fn;
        std::uint16_t track = gaugeNoTrack;
        GaugeKind kind = GaugeKind::Level;
        std::unique_ptr<TimelineSample[]> samples;
        std::uint32_t used = 0;
        /** Last *stored* value, for change deduplication. */
        std::int64_t lastStored = 0;
        bool hasStored = false;
        /** Value read on the most recent tick (updated even when
         *  deduplication or capacity suppressed the append) — what
         *  watchdog rules judge. */
        std::int64_t live = 0;
        /** Previous cumulative reading for Rate gauges. */
        std::int64_t prev = 0;
        bool hasPrev = false;
    };

    struct Rule {
        std::string name;
        std::uint32_t gauge = 0;
        std::int64_t threshold = 0;
        Cycles minDuration = 0;
        // Live evaluation state, cleared by resetSeries().
        bool above = false;
        Cycles aboveSince = 0;
        std::int64_t peak = 0;
        /** Open anomaly record index, or -1 while below threshold or
         *  under minDuration. */
        std::int32_t openAnomaly = -1;
        /** The current window fired past a saturated anomaly buffer;
         *  it was counted dropped once and must not count again. */
        bool droppedOpen = false;
    };

    /** Take one sample of every gauge at simulated instant `now`. */
    void sampleTick(Cycles now);
    void store(Series &s, Cycles now, std::int64_t value);
    void evaluateRules(Cycles now);

    std::vector<Series> series;
    std::vector<Rule> rules;
    std::vector<SampleHookFn> hooks;
    std::vector<SampleHookFn> postHooks;
    AnomalyHookFn anomalyHook;
    std::unique_ptr<Anomaly[]> anomalyBuf;
    std::uint32_t anomalyUsed = 0;
    std::uint64_t _anomaliesDropped = 0;
    std::uint64_t _dropped = 0;
    std::uint64_t _ticks = 0;
    Cycles _period = 0;
    bool _enabled = false;
    /** The next period-aligned instant runSampled() owes a sample;
     *  kept across drains, cleared by resetSeries(). */
    Cycles nextTick = 0;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_TIMELINE_HH
