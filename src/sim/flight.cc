#include "sim/flight.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "sim/format.hh"
#include "sim/log.hh"

namespace virtsim {

void
FlightRecorder::configure(Cycles windowHalf, Cycles period,
                          std::uint32_t incidentCap)
{
    VIRTSIM_ASSERT(windowHalf > 0,
                   "flight recorder window must be positive");
    VIRTSIM_ASSERT(period > 0,
                   "flight recorder period must be positive");
    VIRTSIM_ASSERT(incidentCap > 0,
                   "flight recorder incident cap must be positive");
    window = windowHalf;
    _period = period;
    // Covers any window at its capture tick: capture runs at the
    // first sampling tick past end, so now - begin <= 2W + period.
    // The slack absorbs coarse tick alignment.
    _retention = 2 * window + 8 * period;
    cap = incidentCap;
}

void
FlightRecorder::enable()
{
    VIRTSIM_ASSERT(window > 0 && _period > 0,
                   "FlightRecorder::enable() before configure()");
    nGauges = timeline ? timeline->gaugeCount() : 0;
    rowCap = static_cast<std::size_t>(_retention / _period) + 4;
    rowWhen = std::make_unique<Cycles[]>(rowCap);
    rowGauge = std::make_unique<std::int64_t[]>(
        rowCap * (nGauges ? nGauges : 1));
    rowPhase =
        std::make_unique<std::uint64_t[]>(rowCap * numLatencyPhases * 2);
    rowHead = 0;
    rowCount = 0;
    _enabled = true;
}

void
FlightRecorder::evict(Cycles now)
{
    if (now <= _retention)
        return;
    const Cycles cut = now - _retention;
    while (rowCount > 0) {
        const std::size_t tail =
            (rowHead + rowCap - rowCount) % rowCap;
        if (rowWhen[tail] >= cut)
            break;
        --rowCount;
    }
}

void
FlightRecorder::appendRow(Cycles now)
{
    if (rowCount == rowCap)
        --rowCount; // drop the oldest row
    const std::size_t slot = rowHead;
    rowWhen[slot] = now;
    for (std::size_t g = 0; g < nGauges; ++g)
        rowGauge[slot * nGauges + g] = timeline->gaugeLive(g);
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        const auto phase = static_cast<LatencyPhase>(p);
        const std::size_t base = (slot * numLatencyPhases + p) * 2;
        rowPhase[base] = tracker ? tracker->totalCount(phase) : 0;
        rowPhase[base + 1] = tracker ? tracker->totalSum(phase) : 0;
    }
    rowHead = (rowHead + 1) % rowCap;
    ++rowCount;
}

void
FlightRecorder::sealReference(Cycles now)
{
    refSealed = true;
    refEnd = now;
    const std::vector<TraceRecord> recs = collectWindow(0, now);
    refRecords = recs.size();
    CausalAnalyzer an("reference");
    for (const TraceRecord &r : recs)
        an.onTraceRecord(r);
    refBlame = an.report();
}

void
FlightRecorder::trigger(Cycles now, std::string source)
{
    if (!_enabled)
        return;
    for (Pending &p : pendings) {
        if (p.at == now) {
            p.sources.push_back(std::move(source));
            return;
        }
    }
    if (incidents.size() + pendings.size() >=
        static_cast<std::size_t>(cap)) {
        ++_dropped;
        return;
    }
    Pending p;
    p.at = now;
    p.begin = now > window ? now - window : 0;
    p.end = now + window;
    p.sources.push_back(std::move(source));
    pendings.push_back(std::move(p));
}

void
FlightRecorder::onAnomaly(Cycles now, const std::string &rule,
                          bool open)
{
    trigger(now, "watchdog." + rule + (open ? ".open" : ".close"));
}

void
FlightRecorder::onSample(Cycles now)
{
    if (!_enabled)
        return;
    evict(now);
    appendRow(now);
    if (!refSealed && now >= 2 * window)
        sealReference(now);
    std::size_t w = 0;
    for (std::size_t i = 0; i < pendings.size(); ++i) {
        Pending &p = pendings[i];
        if (p.end < now) {
            capture(p, false);
        } else {
            if (w != i)
                pendings[w] = std::move(p);
            ++w;
        }
    }
    pendings.resize(w);
}

void
FlightRecorder::finalize(Cycles now)
{
    if (!_enabled)
        return;
    if (!refSealed && (!pendings.empty() || !incidents.empty()))
        sealReference(now);
    for (Pending &p : pendings) {
        const bool clip = p.end > now;
        if (clip)
            p.end = now;
        capture(p, clip);
    }
    pendings.clear();
}

void
FlightRecorder::capture(Pending &p, bool clipped)
{
    FlightIncident inc;
    inc.seq = static_cast<std::uint32_t>(incidents.size());
    inc.triggerAt = p.at;
    std::sort(p.sources.begin(), p.sources.end());
    p.sources.erase(std::unique(p.sources.begin(), p.sources.end()),
                    p.sources.end());
    inc.sources = std::move(p.sources);
    inc.begin = p.begin;
    inc.end = p.end;
    inc.clipped = clipped;
    inc.truncated = trace && trace->dropped() > 0 &&
                    trace->newestDroppedWhen() >= inc.begin;

    inc.records = collectWindow(inc.begin, inc.end);

    CausalAnalyzer an("incident");
    for (const TraceRecord &r : inc.records)
        an.onTraceRecord(r);
    inc.blame = an.report();

    const CausalGraph g = buildCausalGraphFromRecords(
        inc.records.data(), inc.records.size());
    inc.critical = extractCriticalPath(g);

    // Gauge series: the last row at/before begin carries the level
    // into the window; in-window rows append on change only (the
    // timeline's own deduplication idiom).
    if (timeline && nGauges > 0) {
        inc.gauges.resize(nGauges);
        for (std::size_t gi = 0; gi < nGauges; ++gi) {
            FlightIncident::GaugeSeries &gs = inc.gauges[gi];
            gs.name = timeline->gaugeName(gi);
            gs.track = timeline->gaugeTrack(gi);
            bool have = false;
            std::int64_t last = 0;
            for (std::size_t i = 0; i < rowCount; ++i) {
                const std::size_t slot =
                    (rowHead + rowCap - rowCount + i) % rowCap;
                const Cycles when = rowWhen[slot];
                if (when > inc.end)
                    break;
                const std::int64_t v = rowGauge[slot * nGauges + gi];
                if (when <= inc.begin) {
                    // Carry-in: keep only the latest pre-window level.
                    if (!gs.samples.empty())
                        gs.samples.clear();
                    gs.samples.push_back(TimelineSample{when, v});
                    have = true;
                    last = v;
                    continue;
                }
                if (have && last == v)
                    continue;
                gs.samples.push_back(TimelineSample{when, v});
                have = true;
                last = v;
            }
        }
    }

    // Latency: window deltas between the rows bracketing the window,
    // cumulative quantiles at capture time.
    for (std::size_t pi = 0; pi < numLatencyPhases; ++pi) {
        FlightIncident::PhaseStat &ps = inc.phases[pi];
        std::uint64_t baseCount = 0, baseSum = 0;
        std::uint64_t endCount = 0, endSum = 0;
        for (std::size_t i = 0; i < rowCount; ++i) {
            const std::size_t slot =
                (rowHead + rowCap - rowCount + i) % rowCap;
            const Cycles when = rowWhen[slot];
            if (when > inc.end)
                break;
            const std::size_t base =
                (slot * numLatencyPhases + pi) * 2;
            if (when <= inc.begin) {
                baseCount = rowPhase[base];
                baseSum = rowPhase[base + 1];
            }
            endCount = rowPhase[base];
            endSum = rowPhase[base + 1];
        }
        ps.windowCount =
            endCount > baseCount ? endCount - baseCount : 0;
        ps.windowSum = endSum > baseSum ? endSum - baseSum : 0;
        if (tracker) {
            const auto phase = static_cast<LatencyPhase>(pi);
            ps.p50 = tracker->quantileAcross(phase, 0.5);
            ps.p99 = tracker->quantileAcross(phase, 0.99);
        }
    }

    incidents.push_back(std::move(inc));
}

const FlightIncident &
FlightRecorder::incident(std::size_t i) const
{
    VIRTSIM_ASSERT(i < incidents.size(),
                   "incident index out of range");
    return incidents[i];
}

std::string
FlightRecorder::renderIncidentJson(std::size_t i,
                                   const Frequency &freq,
                                   const std::string &world) const
{
    const FlightIncident &inc = incident(i);
    std::ostringstream os;
    os << "{\"schema\":\"virtsim-incident-1\""
       << ",\"world\":\"" << jsonEscape(world) << "\""
       << ",\"seq\":" << inc.seq
       << ",\"frequency_ghz\":" << formatFixed(freq.ghz(), 4)
       << ",\"window_us\":" << formatFixed(freq.us(window), 4);

    os << ",\n\"trigger\":{\"at_cycles\":" << inc.triggerAt
       << ",\"at_us\":" << formatFixed(freq.us(inc.triggerAt), 4)
       << ",\"sources\":[";
    for (std::size_t s = 0; s < inc.sources.size(); ++s) {
        if (s)
            os << ",";
        os << "\"" << jsonEscape(inc.sources[s]) << "\"";
    }
    os << "]}";

    os << ",\n\"window\":{\"begin_cycles\":" << inc.begin
       << ",\"begin_us\":" << formatFixed(freq.us(inc.begin), 4)
       << ",\"end_cycles\":" << inc.end
       << ",\"end_us\":" << formatFixed(freq.us(inc.end), 4)
       << ",\"clipped\":" << (inc.clipped ? "true" : "false")
       << ",\"truncated\":" << (inc.truncated ? "true" : "false")
       << ",\"records\":" << inc.records.size() << "}";

    os << ",\n\"critical_path\":{\"span_cycles\":" << inc.critical.span
       << ",\"attributed_cycles\":" << inc.critical.attributed
       << ",\"steps\":[";
    for (std::size_t s = 0; s < inc.critical.steps.size(); ++s) {
        const CriticalPathStep &st = inc.critical.steps[s];
        if (s)
            os << ",";
        os << "\n{\"name\":\"" << jsonEscape(st.name) << "\""
           << ",\"track\":" << st.track << ",\"t0\":" << st.t0
           << ",\"t1\":" << st.t1 << ",\"edge\":"
           << (st.isEdge ? "true" : "false") << "}";
    }
    os << "]}";

    os << ",\n\"blame\":" << inc.blame.toJson();

    os << ",\n\"reference\":{\"begin_cycles\":0,\"end_cycles\":"
       << refEnd << ",\"records\":" << refRecords
       << ",\"blame\":" << refBlame.toJson() << "}";

    const DiffReport diff = diffBlame(inc.blame, refBlame);
    os << ",\n\"blame_diff\":{\"incident_total_cycles\":"
       << inc.blame.attributed() << ",\"reference_total_cycles\":"
       << refBlame.attributed() << ",\"rows\":[";
    for (std::size_t r = 0; r < diff.rows.size(); ++r) {
        const DiffRow &row = diff.rows[r];
        if (r)
            os << ",";
        os << "\n{\"name\":\"" << jsonEscape(row.name) << "\""
           << ",\"incident_cycles\":" << row.a
           << ",\"reference_cycles\":" << row.b
           << ",\"delta_cycles\":" << row.delta() << "}";
    }
    os << "]}";

    os << ",\n\"gauges\":[";
    for (std::size_t g = 0; g < inc.gauges.size(); ++g) {
        const FlightIncident::GaugeSeries &gs = inc.gauges[g];
        if (g)
            os << ",";
        os << "\n{\"name\":\"" << jsonEscape(gs.name) << "\""
           << ",\"track\":" << gs.track << ",\"samples\":[";
        for (std::size_t s = 0; s < gs.samples.size(); ++s) {
            if (s)
                os << ",";
            os << "[" << gs.samples[s].when << ","
               << gs.samples[s].value << "]";
        }
        os << "]}";
    }
    os << "]";

    os << ",\n\"latency\":{\"phases\":[";
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        const FlightIncident::PhaseStat &ps = inc.phases[p];
        if (p)
            os << ",";
        const double meanUs =
            ps.windowCount == 0
                ? 0.0
                : freq.us(ps.windowSum) /
                      static_cast<double>(ps.windowCount);
        os << "\n{\"phase\":\""
           << to_string(static_cast<LatencyPhase>(p)) << "\""
           << ",\"window_count\":" << ps.windowCount
           << ",\"window_sum_cycles\":" << ps.windowSum
           << ",\"window_mean_us\":" << formatFixed(meanUs, 4)
           << ",\"p50_us\":" << formatFixed(freq.us(ps.p50), 4)
           << ",\"p99_us\":" << formatFixed(freq.us(ps.p99), 4) << "}";
    }
    os << "]}";

    os << ",\n\"health\":{\"incidents_dropped\":" << _dropped
       << "}}\n";
    return os.str();
}

bool
FlightRecorder::exportIncidents(const std::string &dir,
                                const Frequency &freq,
                                const std::string &world) const
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec) {
        warn("cannot create incident directory ", dir, ": ",
             ec.message());
        return false;
    }
    bool ok = true;
    for (std::size_t i = 0; i < incidents.size(); ++i) {
        char name[64];
        std::snprintf(name, sizeof(name), "incident.%s.%03zu.json",
                      world.c_str(), i);
        const std::string path = dir + "/" + name;
        std::ofstream os(path);
        if (!os) {
            warn("cannot open incident file ", path);
            ok = false;
            continue;
        }
        os << renderIncidentJson(i, freq, world);
    }
    return ok;
}

void
FlightRecorder::writeAnnotationEvents(std::ostream &os,
                                      const Frequency &freq) const
{
    for (const FlightIncident &inc : incidents) {
        std::string sources;
        for (const std::string &s : inc.sources) {
            if (!sources.empty())
                sources += ",";
            sources += s;
        }
        os << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":"
           << formatFixed(freq.us(inc.begin), 4) << ",\"dur\":"
           << formatFixed(freq.us(inc.end - inc.begin), 4)
           << ",\"name\":\"incident #" << inc.seq
           << "\",\"cat\":\"incident\",\"args\":{\"sources\":\""
           << jsonEscape(sources) << "\"}}";
        os << ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":"
           << formatFixed(freq.us(inc.triggerAt), 4)
           << ",\"name\":\"incident.trigger\",\"s\":\"g\""
           << ",\"cat\":\"incident\",\"args\":{\"seq\":" << inc.seq
           << "}}";
    }
}

void
FlightRecorder::reset()
{
    rowHead = 0;
    rowCount = 0;
    pendings.clear();
    incidents.clear();
    _dropped = 0;
    refSealed = false;
    refEnd = 0;
    refRecords = 0;
    refBlame = BlameReport{};
}

} // namespace virtsim
