#include "sim/slo.hh"

#include <cmath>
#include <sstream>

#include "sim/format.hh"
#include "sim/probe.hh"
#include "sim/timeline.hh"

namespace virtsim {

void
SloEngine::installTimeline(TimelineSampler &tl, const Frequency &freq)
{
    VIRTSIM_ASSERT(tracker != nullptr,
                   "SloEngine::installTimeline() before bind()");
    usPerCycle = 1.0 / freq.cyclesPerUs();
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const std::string base = "slo." + specs_[i].name;
        // Rolling observed quantile as a Perfetto counter track, in
        // microseconds so the track reads like the paper's tables.
        tl.addGauge(base + ".q_us",
                    [this, i] { return live[i].quantileUs; });
        // 1 while the most recently completed burn window violated
        // the contract; the rule below turns that into a named
        // anomaly that benches fail on.
        tl.addGauge(base + ".burn",
                    [this, i] { return live[i].burning; });
        tl.addRule(base, base + ".burn", 1, 0);
    }
    // Refresh runs before gauges are read on each tick.
    tl.addSampleHook([this](Cycles now) { onSample(now); });
}

void
SloEngine::onSample(Cycles now)
{
    if (tracker == nullptr)
        return;
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const SloSpec &s = specs_[i];
        LiveState &st = live[i];
        const std::uint64_t q =
            tracker->quantileAcross(s.phase, s.quantile);
        st.quantileUs = static_cast<std::int64_t>(
            std::llround(static_cast<double>(q) * usPerCycle));
        if (s.burnWindow == 0)
            continue;
        const std::uint64_t requests = tracker->totalCount(s.phase);
        const std::uint64_t violations =
            tracker->totalAbove(s.phase, s.thresholdCycles);
        if (!st.windowOpen) {
            st.windowOpen = true;
            st.windowStart = now;
            st.baseRequests = requests;
            st.baseViolations = violations;
            continue;
        }
        if (now - st.windowStart < s.burnWindow)
            continue;
        // Close the elapsed window: judge its exact request mass.
        const std::uint64_t dReq = requests - st.baseRequests;
        const std::uint64_t dViol = violations - st.baseViolations;
        ++st.windows;
        const bool burnt =
            dReq > 0 && static_cast<double>(dViol) >
                            s.maxViolationFraction *
                                static_cast<double>(dReq);
        const bool was = st.burning != 0;
        st.burning = burnt ? 1 : 0;
        if (burnt) {
            ++st.burnt;
            if (!was && breachHook)
                breachHook(now, i);
        }
        st.windowStart = now;
        st.baseRequests = requests;
        st.baseViolations = violations;
    }
}

std::vector<SloVerdict>
SloEngine::judge() const
{
    std::vector<SloVerdict> out;
    if (tracker == nullptr)
        return out;
    out.reserve(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        const SloSpec &s = specs_[i];
        SloVerdict v;
        v.spec = s;
        v.requests = tracker->totalCount(s.phase);
        v.violations =
            tracker->totalAbove(s.phase, s.thresholdCycles);
        v.observedQuantile =
            tracker->quantileAcross(s.phase, s.quantile);
        v.windows = live[i].windows;
        v.burntWindows = live[i].burnt;
        out.push_back(std::move(v));
    }
    return out;
}

std::uint64_t
SloEngine::breaches() const
{
    std::uint64_t n = 0;
    for (const SloVerdict &v : judge())
        if (!v.pass())
            ++n;
    return n;
}

void
SloEngine::publish(MetricsRegistry &metrics) const
{
    for (const SloVerdict &v : judge()) {
        const std::string base = "slo." + v.spec.name;
        metrics.machine()
            .counter(internTap(base + ".requests"))
            .inc(v.requests);
        metrics.machine()
            .counter(internTap(base + ".violations"))
            .inc(v.violations);
        metrics.machine()
            .counter(internTap(base + ".breached"))
            .inc(v.pass() ? 0 : 1);
    }
}

std::string
SloEngine::verdictsJson(const Frequency &freq) const
{
    std::ostringstream os;
    os << "[";
    bool first = true;
    for (const SloVerdict &v : judge()) {
        if (!first)
            os << ",";
        first = false;
        os << "\n{\"name\":\"" << v.spec.name << "\",\"phase\":\""
           << to_string(v.spec.phase) << "\",\"quantile\":"
           << formatFixed(v.spec.quantile, 4)
           << ",\"threshold_cycles\":" << v.spec.thresholdCycles
           << ",\"threshold_us\":"
           << formatFixed(freq.us(v.spec.thresholdCycles), 4)
           << ",\"max_violation_fraction\":"
           << formatFixed(v.spec.maxViolationFraction, 6)
           << ",\"requests\":" << v.requests
           << ",\"violations\":" << v.violations
           << ",\"violation_fraction\":"
           << formatFixed(v.violationFraction(), 6)
           << ",\"observed_quantile_cycles\":" << v.observedQuantile
           << ",\"observed_quantile_us\":"
           << formatFixed(freq.us(v.observedQuantile), 4)
           << ",\"windows\":" << v.windows << ",\"burnt_windows\":"
           << v.burntWindows << ",\"pass\":"
           << (v.pass() ? "true" : "false") << "}";
    }
    os << (first ? "]" : "\n]");
    return os.str();
}

void
SloEngine::reset()
{
    for (LiveState &st : live)
        st = LiveState{};
}

} // namespace virtsim
