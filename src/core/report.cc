#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/flight.hh"
#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/timeline.hh"
#include "sim/units.hh"

namespace virtsim {

TextTable::TextTable(std::vector<std::string> headers)
    : head(std::move(headers))
{
    VIRTSIM_ASSERT(!head.empty(), "table needs headers");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    VIRTSIM_ASSERT(cells.size() == head.size(),
                   "row width ", cells.size(), " != header width ",
                   head.size());
    body.push_back(std::move(cells));
}

std::string
TextTable::render() const
{
    std::vector<std::size_t> width(head.size());
    for (std::size_t i = 0; i < head.size(); ++i)
        width[i] = head[i].size();
    for (const auto &row : body) {
        for (std::size_t i = 0; i < row.size(); ++i)
            width[i] = std::max(width[i], row[i].size());
    }

    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << "  ";
            // First column left-aligned (names), rest right-aligned.
            if (i == 0) {
                oss << row[i]
                    << std::string(width[i] - row[i].size(), ' ');
            } else {
                oss << std::string(width[i] - row[i].size(), ' ')
                    << row[i];
            }
        }
        oss << "\n";
    };
    emit(head);
    std::size_t total = head.size() > 0 ? head.size() * 2 - 2 : 0;
    for (std::size_t w : width)
        total += w;
    oss << std::string(total, '-') << "\n";
    for (const auto &row : body)
        emit(row);
    return oss.str();
}

namespace {

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (char c : cell) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

std::string
TextTable::renderCsv() const
{
    std::ostringstream oss;
    auto emit = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            if (i)
                oss << ",";
            oss << csvEscape(row[i]);
        }
        oss << "\n";
    };
    emit(head);
    for (const auto &row : body)
        emit(row);
    return oss.str();
}

std::string
formatCycles(double cycles)
{
    const auto v = static_cast<long long>(std::llround(cycles));
    std::string digits = std::to_string(v < 0 ? -v : v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.insert(out.begin(), ',');
        out.insert(out.begin(), *it);
        ++count;
    }
    if (v < 0)
        out.insert(out.begin(), '-');
    return out;
}

std::string
renderSparkline(const TimelineSampler &timeline, std::size_t gauge,
                std::size_t width)
{
    static const char ramp[] = " .:-=+*#%@";
    const std::uint32_t n = timeline.sampleCount(gauge);
    if (n == 0 || width == 0)
        return "";
    const TimelineSample *s = timeline.samplesFor(gauge);

    // The stored series is change-deduplicated, so it describes a
    // step function: s[k].value holds from s[k].when until s[k+1].
    const Cycles begin = s[0].when;
    const Cycles end = std::max<Cycles>(s[n - 1].when, begin + 1);
    std::int64_t maxv = 0;
    for (std::uint32_t k = 0; k < n; ++k)
        maxv = std::max(maxv, s[k].value);

    std::string out(width, ' ');
    if (maxv <= 0)
        return out;
    std::uint32_t k = 0;
    for (std::size_t b = 0; b < width; ++b) {
        const Cycles lo =
            begin + (end - begin) * b / width;
        const Cycles hi =
            begin + (end - begin) * (b + 1) / width;
        // Value entering the bucket, then any step inside it.
        while (k + 1 < n && s[k + 1].when <= lo)
            ++k;
        std::int64_t bucket = s[k].value;
        for (std::uint32_t j = k + 1; j < n && s[j].when < hi; ++j)
            bucket = std::max(bucket, s[j].value);
        if (bucket > 0) {
            const std::size_t idx = 1 +
                static_cast<std::size_t>(bucket * 8 / maxv);
            out[b] = ramp[std::min<std::size_t>(idx, 9)];
        }
    }
    return out;
}

std::string
renderTimelineSummary(const TimelineSampler &timeline,
                      const Frequency &freq,
                      const std::vector<std::string> &gauges)
{
    std::ostringstream oss;
    std::uint64_t stored = 0;
    for (std::size_t g = 0; g < timeline.gaugeCount(); ++g)
        stored += timeline.sampleCount(g);
    oss << "Timeline: " << timeline.tickCount() << " ticks @ "
        << timeline.period() << " cy, " << stored
        << " samples stored";
    if (timeline.droppedSamples() > 0)
        oss << ", " << timeline.droppedSamples() << " DROPPED";
    oss << "\n";

    std::size_t label = 0;
    for (const std::string &name : gauges)
        label = std::max(label, name.size());
    for (const std::string &name : gauges) {
        const int g = timeline.findGauge(name);
        if (g < 0)
            continue;
        std::int64_t maxv = 0;
        const TimelineSample *s = timeline.samplesFor(g);
        for (std::uint32_t k = 0; k < timeline.sampleCount(g); ++k)
            maxv = std::max(maxv, s[k].value);
        oss << "  " << name
            << std::string(label - name.size(), ' ') << " |"
            << renderSparkline(timeline, g) << "| max "
            << maxv << "\n";
    }

    if (timeline.anomalyCount() == 0) {
        oss << "Watchdog: 0 anomalies\n";
        return oss.str();
    }
    oss << "Watchdog: " << timeline.anomalyCount()
        << " ANOMALIES\n";
    for (std::uint32_t a = 0; a < timeline.anomalyCount(); ++a) {
        const TimelineSampler::Anomaly &an = timeline.anomalies()[a];
        oss << "  " << timeline.ruleName(an.rule) << ": "
            << formatFixed(freq.us(an.begin), 1) << "us - "
            << formatFixed(freq.us(an.end), 1) << "us, peak "
            << an.peak << "\n";
    }
    return oss.str();
}

std::string
renderLatencySummary(const RequestTracker &latency,
                     const Frequency &freq)
{
    constexpr LatencyPhase phases[] = {
        LatencyPhase::Rtt, LatencyPhase::ClientThink,
        LatencyPhase::WireFlight, LatencyPhase::ServerQueue,
        LatencyPhase::Service};

    TextTable t({"phase", "count", "mean us", "p50 us", "p90 us",
                 "p99 us", "p999 us", "max us"});
    for (LatencyPhase ph : phases) {
        const LatencyHistogram h = latency.aggregate(ph);
        if (h.empty())
            continue;
        t.addRow({to_string(ph), std::to_string(h.count()),
                  formatFixed(freq.us(h.sum()) /
                                  static_cast<double>(h.count()),
                              2),
                  formatFixed(freq.us(h.p50()), 2),
                  formatFixed(freq.us(h.p90()), 2),
                  formatFixed(freq.us(h.p99()), 2),
                  formatFixed(freq.us(h.p999()), 2),
                  formatFixed(freq.us(h.max()), 2)});
    }
    if (t.rows() == 0)
        return "";

    std::ostringstream oss;
    oss << "Request latency (" << latency.cpus() << " cpus, "
        << latency.totalCount(LatencyPhase::Rtt)
        << " transactions):\n"
        << t.render();
    return oss.str();
}

std::string
renderIncidentSummary(const FlightRecorder &flight,
                      const Frequency &freq)
{
    if (flight.incidentCount() == 0 && flight.incidentsDropped() == 0)
        return "";

    TextTable t({"incident", "trigger us", "window us", "records",
                 "crit path", "top blame-diff term", "sources"});
    bool truncated = false;
    for (std::size_t i = 0; i < flight.incidentCount(); ++i) {
        const FlightIncident &inc = flight.incident(i);
        truncated = truncated || inc.truncated;
        const DiffReport diff =
            diffBlame(inc.blame, flight.referenceBlame());
        // Rows sort by descending delta, so the top row is the largest
        // growth; when nothing grew there is no growth to name.
        const DiffRow *top = diff.top();
        std::string topTerm = "-";
        if (top != nullptr && top->delta() > 0) {
            topTerm = top->name + " +" +
                      formatCycles(static_cast<double>(top->delta())) +
                      " cy";
        }
        std::string sources;
        for (const std::string &s : inc.sources) {
            if (!sources.empty())
                sources += ",";
            sources += s;
        }
        std::string label = "#";
        label += std::to_string(inc.seq);
        t.addRow({std::move(label),
                  formatFixed(freq.us(inc.triggerAt), 2),
                  formatFixed(freq.us(inc.begin), 2) + ".." +
                      formatFixed(freq.us(inc.end), 2) +
                      (inc.clipped ? " (clipped)" : ""),
                  std::to_string(inc.records.size()) +
                      (inc.truncated ? " (truncated)" : ""),
                  std::to_string(inc.critical.steps.size()) + " steps",
                  topTerm, sources});
    }

    std::ostringstream oss;
    oss << "Incidents: " << flight.incidentCount() << " captured";
    if (flight.incidentsDropped() > 0)
        oss << ", " << flight.incidentsDropped()
            << " dropped past the cap";
    if (flight.referenceSealed())
        oss << " (reference window [0.."
            << formatFixed(freq.us(flight.referenceEnd()), 2)
            << " us])";
    oss << "\n" << t.render();
    if (truncated)
        oss << "Truncated windows lost records to trace ring overwrite"
               " (raise VIRTSIM_TRACE_CAPACITY)\n";
    return oss.str();
}

std::string
formatDelta(double measured, double reference)
{
    if (reference == 0.0)
        return "n/a";
    const double pct = (measured - reference) / reference * 100.0;
    // Appended piecewise: GCC 12's -Wrestrict misfires on the
    // operator+ chain at -O3.
    std::string out = pct >= 0 ? "+" : "";
    out += formatFixed(pct, 1);
    out += '%';
    return out;
}

} // namespace virtsim
