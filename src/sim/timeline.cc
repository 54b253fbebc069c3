#include "sim/timeline.hh"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "sim/event_queue.hh"
#include "sim/format.hh"
#include "sim/log.hh"
#include "sim/probe.hh"

namespace virtsim {

namespace {

const char *
kindName(TimelineSampler::GaugeKind k)
{
    return k == TimelineSampler::GaugeKind::Rate ? "rate" : "gauge";
}

} // namespace

void
TimelineSampler::addGauge(std::string name, GaugeFn fn,
                          std::uint16_t track)
{
    VIRTSIM_ASSERT(findGauge(name) < 0,
                   "duplicate timeline gauge: ", name);
    Series s;
    s.name = std::move(name);
    s.fn = std::move(fn);
    s.track = track;
    s.kind = GaugeKind::Level;
    if (_enabled)
        s.samples = std::make_unique<TimelineSample[]>(seriesCapacity);
    series.push_back(std::move(s));
}

void
TimelineSampler::addRateGauge(std::string name, GaugeFn fn,
                              std::uint16_t track)
{
    addGauge(std::move(name), std::move(fn), track);
    series.back().kind = GaugeKind::Rate;
}

int
TimelineSampler::findGauge(std::string_view name) const
{
    for (std::size_t i = 0; i < series.size(); ++i) {
        if (series[i].name == name)
            return static_cast<int>(i);
    }
    return -1;
}

const std::string &
TimelineSampler::gaugeName(std::size_t g) const
{
    VIRTSIM_ASSERT(g < series.size(), "gauge index out of range");
    return series[g].name;
}

std::uint16_t
TimelineSampler::gaugeTrack(std::size_t g) const
{
    VIRTSIM_ASSERT(g < series.size(), "gauge index out of range");
    return series[g].track;
}

std::int64_t
TimelineSampler::gaugeLive(std::size_t g) const
{
    VIRTSIM_ASSERT(g < series.size(), "gauge index out of range");
    return series[g].live;
}

void
TimelineSampler::addRule(std::string name, std::string_view gauge,
                         std::int64_t threshold, Cycles minDuration)
{
    const int g = findGauge(gauge);
    VIRTSIM_ASSERT(g >= 0, "watchdog rule \"", name,
                   "\" references unknown gauge \"", gauge, "\"");
    Rule r;
    r.name = std::move(name);
    r.gauge = static_cast<std::uint32_t>(g);
    r.threshold = threshold;
    r.minDuration = minDuration;
    rules.push_back(std::move(r));
}

void
TimelineSampler::enable(Cycles period)
{
    VIRTSIM_ASSERT(period > 0, "timeline period must be positive");
    _period = period;
    _enabled = true;
    for (Series &s : series) {
        if (!s.samples)
            s.samples =
                std::make_unique<TimelineSample[]>(seriesCapacity);
    }
    if (!anomalyBuf)
        anomalyBuf = std::make_unique<Anomaly[]>(anomalyCapacity);
}

std::uint32_t
TimelineSampler::sampleCount(std::size_t g) const
{
    VIRTSIM_ASSERT(g < series.size(), "gauge index out of range");
    return series[g].used;
}

const TimelineSample *
TimelineSampler::samplesFor(std::size_t g) const
{
    VIRTSIM_ASSERT(g < series.size(), "gauge index out of range");
    return series[g].samples.get();
}

const std::string &
TimelineSampler::ruleName(std::uint32_t r) const
{
    VIRTSIM_ASSERT(r < rules.size(), "rule index out of range");
    return rules[r].name;
}

void
TimelineSampler::store(Series &s, Cycles now, std::int64_t value)
{
    // Change deduplication: a gauge that sits at the same level for
    // thousands of ticks costs one stored sample, which is also
    // exactly how Perfetto counter tracks render (value holds until
    // the next event).
    if (s.hasStored && s.lastStored == value)
        return;
    if (s.used >= seriesCapacity) {
        ++_dropped;
        return;
    }
    s.samples[s.used++] = TimelineSample{now, value};
    s.lastStored = value;
    s.hasStored = true;
}

void
TimelineSampler::evaluateRules(Cycles now)
{
    for (Rule &r : rules) {
        const std::uint32_t ri =
            static_cast<std::uint32_t>(&r - rules.data());
        const std::int64_t v = series[r.gauge].live;
        if (v < r.threshold) {
            if ((r.openAnomaly >= 0 || r.droppedOpen) && anomalyHook)
                anomalyHook(now, ri, false);
            r.above = false;
            r.openAnomaly = -1;
            r.droppedOpen = false;
            continue;
        }
        if (!r.above) {
            r.above = true;
            r.aboveSince = now;
            r.peak = v;
        } else if (v > r.peak) {
            r.peak = v;
        }
        if (now - r.aboveSince < r.minDuration)
            continue;
        if (r.openAnomaly >= 0) {
            Anomaly &a = anomalyBuf[r.openAnomaly];
            a.end = now;
            a.peak = r.peak;
        } else if (r.droppedOpen) {
            // Already accounted: a saturated buffer drops the whole
            // window once, not once per tick it stays above threshold.
        } else if (anomalyUsed < anomalyCapacity) {
            r.openAnomaly = static_cast<std::int32_t>(anomalyUsed);
            anomalyBuf[anomalyUsed++] =
                Anomaly{ri, r.aboveSince, now, r.peak};
            if (anomalyHook)
                anomalyHook(now, ri, true);
        } else {
            r.droppedOpen = true;
            ++_anomaliesDropped;
            if (anomalyHook)
                anomalyHook(now, ri, true);
        }
    }
}

void
TimelineSampler::addSampleHook(SampleHookFn fn)
{
    hooks.push_back(std::move(fn));
}

void
TimelineSampler::addPostSampleHook(SampleHookFn fn)
{
    postHooks.push_back(std::move(fn));
}

void
TimelineSampler::sampleTick(Cycles now)
{
    if (!_enabled)
        return;
    ++_ticks;
    for (SampleHookFn &h : hooks)
        h(now);
    for (Series &s : series) {
        const std::int64_t raw = s.fn();
        std::int64_t value = raw;
        if (s.kind == GaugeKind::Rate) {
            value = s.hasPrev ? raw - s.prev : 0;
            s.prev = raw;
            s.hasPrev = true;
        }
        s.live = value;
        store(s, now, value);
    }
    evaluateRules(now);
    for (SampleHookFn &h : postHooks)
        h(now);
}

Cycles
TimelineSampler::runSampled(EventQueue &eq,
                            InlineFunction<void()> afterStretch)
{
    VIRTSIM_ASSERT(_enabled, "runSampled() on a disabled sampler");
    // Instants land on period multiples, so they do not depend on when
    // the sampler was armed. A drain that ended on a multiple already
    // sampled it; nextTick carries on past it.
    nextTick = std::max(nextTick,
                        (eq.now() + _period - 1) / _period * _period);
    for (Cycles next;
         (next = eq.nextEventTime()) != noPendingEvent;) {
        for (; nextTick <= next; nextTick += _period)
            sampleTick(nextTick);
        eq.runBefore(nextTick);
        if (afterStretch)
            afterStretch();
    }
    return eq.now();
}

void
TimelineSampler::publishAnomalies(MetricsRegistry &metrics) const
{
    if (anomalyUsed == 0 && _anomaliesDropped == 0)
        return;
    if (anomalyUsed > 0)
        metrics.machine().counter(internTap("watchdog.anomalies"))
            .inc(anomalyUsed);
    if (_anomaliesDropped > 0)
        metrics.machine()
            .counter(internTap("watchdog.anomalies_dropped"))
            .inc(_anomaliesDropped);
    for (std::uint32_t i = 0; i < anomalyUsed; ++i) {
        const std::string name =
            "watchdog." + rules[anomalyBuf[i].rule].name;
        metrics.machine().counter(internTap(name)).inc(1);
    }
}

void
TimelineSampler::resetSeries()
{
    for (Series &s : series) {
        s.used = 0;
        s.lastStored = 0;
        s.hasStored = false;
        s.live = 0;
        s.prev = 0;
        s.hasPrev = false;
    }
    for (Rule &r : rules) {
        r.above = false;
        r.aboveSince = 0;
        r.peak = 0;
        r.openAnomaly = -1;
        r.droppedOpen = false;
    }
    anomalyUsed = 0;
    _anomaliesDropped = 0;
    _dropped = 0;
    _ticks = 0;
    nextTick = 0;
}

std::string
TimelineSampler::renderJson(const Frequency &freq) const
{
    std::ostringstream os;
    os << "{\"schema\":\"virtsim-timeline-1\""
       << ",\"period_cycles\":" << _period
       << ",\"frequency_ghz\":" << formatFixed(freq.ghz(), 4)
       << ",\"ticks\":" << _ticks
       << ",\"dropped_samples\":" << _dropped << ",\"series\":[";
    bool firstSeries = true;
    for (const Series &s : series) {
        if (!firstSeries)
            os << ",";
        firstSeries = false;
        os << "{\"name\":\"" << jsonEscape(s.name) << "\""
           << ",\"track\":" << s.track << ",\"kind\":\""
           << kindName(s.kind) << "\",\"samples\":[";
        for (std::uint32_t i = 0; i < s.used; ++i) {
            if (i)
                os << ",";
            os << "[" << s.samples[i].when << ","
               << s.samples[i].value << "]";
        }
        os << "]}";
    }
    os << "],\"anomaly_count\":" << anomalyUsed
       << ",\"anomalies_dropped\":" << _anomaliesDropped
       << ",\"anomalies\":[";
    for (std::uint32_t i = 0; i < anomalyUsed; ++i) {
        if (i)
            os << ",";
        const Anomaly &a = anomalyBuf[i];
        os << "{\"rule\":\"" << jsonEscape(rules[a.rule].name)
           << "\",\"begin_cycles\":" << a.begin
           << ",\"end_cycles\":" << a.end << ",\"peak\":" << a.peak
           << "}";
    }
    os << "]}";
    return os.str();
}

std::string
TimelineSampler::renderCsv(const Frequency &freq) const
{
    std::string out = "series,track,kind,cycles,us,value\n";
    for (const Series &s : series) {
        for (std::uint32_t i = 0; i < s.used; ++i) {
            out += s.name;
            out += ",";
            out += std::to_string(s.track);
            out += ",";
            out += kindName(s.kind);
            out += ",";
            out += std::to_string(s.samples[i].when);
            out += ",";
            out += formatFixed(freq.us(s.samples[i].when), 4);
            out += ",";
            out += std::to_string(s.samples[i].value);
            out += "\n";
        }
    }
    return out;
}

void
TimelineSampler::writeCounterEvents(std::ostream &os,
                                    const Frequency &freq) const
{
    for (const Series &s : series) {
        const std::string name = jsonEscape(s.name);
        for (std::uint32_t i = 0; i < s.used; ++i) {
            os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":"
               << formatFixed(freq.us(s.samples[i].when), 4)
               << ",\"name\":\"" << name << "\",\"args\":{\"value\":"
               << s.samples[i].value << "}}";
        }
    }
}

} // namespace virtsim
