/**
 * @file
 * Declarative service-level objectives over request latency.
 *
 * An SloSpec states the contract a workload must meet in the
 * SRE idiom: "quantile q of phase P stays at or under threshold T,
 * and no more than fraction F of requests exceed T", judged both
 * end-of-run and continuously over burn-rate windows of simulated
 * time. The engine reads the RequestTracker histograms — exact
 * integer counts, so every verdict is byte-identical at every
 * VIRTSIM_JOBS setting — and surfaces breaches through three
 * channels:
 *
 *  - timeline gauges: "slo.<name>.q_us" (the rolling observed
 *    quantile, a Perfetto counter track) and "slo.<name>.burn"
 *    (1 while the latest burn window violated the contract),
 *  - the PR 5 watchdog: a rule named "slo.<name>" over the burn gauge
 *    turns sustained violation into a recorded anomaly window, which
 *    benches already fail on,
 *  - metrics: "slo.<name>.violations" / ".requests" / ".breached"
 *    machine counters in the snapshot.
 *
 * Live evaluation runs in a timeline sample hook at period-aligned
 * simulated instants, so the readings (and therefore burn verdicts
 * and anomalies) are a pure function of the model.
 */

#ifndef VIRTSIM_SIM_SLO_HH
#define VIRTSIM_SIM_SLO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/latency.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

class TimelineSampler;
class MetricsRegistry;

/** Burn-breach notification: (now, spec index). Fires on the 0→1 edge
 *  of a spec's burn state — the instant a completed burn window first
 *  violates the contract after a clean one. */
using SloBreachHookFn = InlineFunction<void(Cycles, std::size_t), 48>;

/** One latency objective. */
struct SloSpec
{
    /** Short stable identifier; gauges, rules and metrics derive
     *  their names from it ("slo.<name>..."). */
    std::string name = "rtt_p99";
    /** Which request phase the objective constrains. */
    LatencyPhase phase = LatencyPhase::Rtt;
    /** Target quantile in (0, 1) — e.g. 0.99 for p99. */
    double quantile = 0.99;
    /** Latency threshold the quantile must not exceed. */
    Cycles thresholdCycles = 0;
    /** Highest tolerable fraction of requests above the threshold. */
    double maxViolationFraction = 0.01;
    /** Burn-rate window in simulated cycles; each completed window's
     *  violation fraction is judged against maxViolationFraction.
     *  0 disables windowed (live) judging — end-of-run only. */
    Cycles burnWindow = 0;
};

/** End-of-run judgment of one spec. */
struct SloVerdict
{
    SloSpec spec;
    std::uint64_t requests = 0;   ///< samples of the judged phase
    std::uint64_t violations = 0; ///< samples above the threshold
    Cycles observedQuantile = 0;  ///< spec.quantile over the run
    /** Completed burn windows and how many of them violated. */
    std::uint64_t windows = 0;
    std::uint64_t burntWindows = 0;

    double
    violationFraction() const
    {
        return requests == 0 ? 0.0
                             : static_cast<double>(violations) /
                                   static_cast<double>(requests);
    }
    bool
    quantileOk() const
    {
        return observedQuantile <= spec.thresholdCycles;
    }
    bool
    fractionOk() const
    {
        return static_cast<double>(violations) <=
               spec.maxViolationFraction *
                   static_cast<double>(requests);
    }
    bool pass() const { return quantileOk() && fractionOk(); }
};

/**
 * Judges a set of SloSpecs against one RequestTracker. Setup order:
 * addSpec() the objectives, bind() the tracker, installTimeline() after
 * the world's own gauges are registered. Everything else is driven by the
 * timeline (onSample via the sample hook) and the export path
 * (judge/publish/verdictsJson).
 */
class SloEngine
{
  public:
    void
    addSpec(SloSpec spec)
    {
        VIRTSIM_ASSERT(spec.quantile > 0.0 && spec.quantile < 1.0,
                       "SLO quantile must be in (0,1)");
        VIRTSIM_ASSERT(spec.maxViolationFraction >= 0.0 &&
                           spec.maxViolationFraction <= 1.0,
                       "SLO violation fraction must be in [0,1]");
        VIRTSIM_ASSERT(spec.thresholdCycles > 0,
                       "SLO threshold must be positive");
        specs_.push_back(std::move(spec));
        live.emplace_back();
    }

    const std::vector<SloSpec> &specs() const { return specs_; }
    bool armed() const { return !specs_.empty(); }

    void bind(const RequestTracker *t) { tracker = t; }

    /**
     * Register the gauges, watchdog rules and the sample hook with a
     * timeline sampler. `freq` converts the rolling quantile gauge to
     * microseconds for the counter track. Call once per run, after
     * the world's own gauges (registration order is export order).
     */
    void installTimeline(TimelineSampler &tl, const Frequency &freq);

    /**
     * Refresh rolling readings and close elapsed burn windows at
     * simulated instant `now`. Runs in the timeline sample hook.
     * Public for tests.
     */
    void onSample(Cycles now);

    /** End-of-run verdicts, one per spec, from the final merged
     *  histograms. */
    std::vector<SloVerdict> judge() const;

    /** Count of failing end-of-run verdicts. */
    std::uint64_t breaches() const;

    /** Publish slo.* machine counters (export path). */
    void publish(MetricsRegistry &metrics) const;

    /** JSON array of verdicts for the virtsim-latency-1 export. */
    std::string verdictsJson(const Frequency &freq) const;

    /** Install the (single) burn-breach observer — the flight
     *  recorder's SLO trigger source. Kept across reset(). */
    void setBreachHook(SloBreachHookFn fn) { breachHook = std::move(fn); }

    /** Drop live window state; keep specs, binding and hook. */
    void reset();

  private:
    /** Per-spec rolling state the gauges read. */
    struct LiveState
    {
        std::int64_t quantileUs = 0; ///< rolling observed quantile
        std::int64_t burning = 0;    ///< latest window violated
        bool windowOpen = false;
        Cycles windowStart = 0;
        /** Cumulative (requests, violations) at window start. */
        std::uint64_t baseRequests = 0;
        std::uint64_t baseViolations = 0;
        std::uint64_t windows = 0;
        std::uint64_t burnt = 0;
    };

    const RequestTracker *tracker = nullptr;
    std::vector<SloSpec> specs_;
    std::vector<LiveState> live;
    SloBreachHookFn breachHook;
    double usPerCycle = 0.0;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_SLO_HH
