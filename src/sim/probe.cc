#include "sim/probe.hh"

#include <algorithm>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "sim/flight.hh"
#include "sim/format.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** Global tap intern table. Guarded by a mutex so parallel sweep
 *  workers can intern concurrently; the hot stamping path never
 *  comes here. */
struct InternTable
{
    std::mutex mu;
    std::unordered_map<std::string, std::uint32_t> ids;
    std::deque<std::string> names; ///< stable element addresses

    InternTable() { names.push_back("?"); }
};

InternTable &
internTable()
{
    static InternTable table;
    return table;
}

} // namespace

TapId
internTap(std::string_view name)
{
    VIRTSIM_ASSERT(!name.empty(), "interning an empty tap name");
    InternTable &t = internTable();
    std::lock_guard<std::mutex> lock(t.mu);
    std::string key(name);
    auto it = t.ids.find(key);
    if (it != t.ids.end())
        return TapId(it->second);
    const auto id = static_cast<std::uint32_t>(t.names.size());
    t.names.push_back(key);
    t.ids.emplace(std::move(key), id);
    return TapId(id);
}

std::string
tapName(TapId tap)
{
    InternTable &t = internTable();
    std::lock_guard<std::mutex> lock(t.mu);
    if (tap.raw() >= t.names.size())
        return "?";
    return t.names[tap.raw()];
}

const char *
to_string(TraceCat cat)
{
    switch (cat) {
      case TraceCat::Tap:
        return "tap";
      case TraceCat::Switch:
        return "switch";
      case TraceCat::Irq:
        return "irq";
      case TraceCat::Io:
        return "io";
      case TraceCat::Sched:
        return "sched";
      case TraceCat::Op:
        return "op";
    }
    return "?";
}

void
TraceSink::setCapacity(std::size_t records)
{
    std::size_t n = 1;
    while (n < records)
        n <<= 1;
    cap = n;
    // Uninitialized on purpose: slots are write-before-read, and a
    // zero-fill here would fault in every page of a ring most runs
    // only partially use.
    ring = std::make_unique_for_overwrite<TraceRecord[]>(n);
    clear();
}

bool
TraceSink::mergeLess(const MergeRef &a, const MergeRef &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    if (a.kindPrio != b.kindPrio)
        return a.kindPrio < b.kindPrio;
    if (a.track != b.track)
        return a.track < b.track;
    return a.pos < b.pos;
}

std::vector<TraceSink::MergeRef>
TraceSink::mergeOrder(std::uint64_t mark, Cycles begin, Cycles end) const
{
    const std::size_t n = size();
    const std::uint64_t first = _total - n;
    const std::uint64_t from = mark > first ? mark : first;
    std::vector<MergeRef> order;
    order.reserve(static_cast<std::size_t>(_total - from));
    for (std::uint64_t i = from; i < _total; ++i) {
        const std::size_t slot =
            slotOf(static_cast<std::size_t>(i - first));
        const TraceRecord &r = ring[slot];
        if (r.when < begin || r.when > end)
            continue;
        order.push_back({r.when, i, static_cast<std::uint32_t>(slot),
                         r.track,
                         static_cast<std::uint8_t>(
                             r.kind == TraceKind::EdgeOut ? 0 : 1)});
    }
    // No ties: pos is unique, so the non-stable sort is
    // deterministic.
    std::sort(order.begin(), order.end(), mergeLess);
    return order;
}

std::vector<TraceRecord>
TraceSink::mergedWindow(Cycles begin, Cycles end) const
{
    const std::vector<MergeRef> order = mergeOrder(0, begin, end);
    std::vector<TraceRecord> out;
    out.reserve(order.size());
    for (const MergeRef &m : order)
        out.push_back(ring[m.slot]);
    return out;
}

void
TraceSink::flushObserver()
{
    if (!obs || !obsDeferred)
        return;
    const std::vector<MergeRef> batch = mergeOrder(obsMark);
    obsMark = _total;
    for (const MergeRef &m : batch)
        obs->onTraceRecord(ring[m.slot]);
}

void
writeChromeTrace(std::ostream &os, const TraceSink &sink,
                 const Frequency &freq, const std::string &process,
                 const TimelineSampler *timeline,
                 const FlightRecorder *flight)
{
    os << "{\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"" << jsonEscape(process) << "\"}}";

    // Name one thread track per physical CPU seen in the records.
    std::vector<std::uint16_t> tracks;
    sink.forEach([&tracks](const TraceRecord &r) {
        if (std::find(tracks.begin(), tracks.end(), r.track) ==
            tracks.end()) {
            tracks.push_back(r.track);
        }
    });
    std::sort(tracks.begin(), tracks.end());
    for (std::uint16_t tr : tracks) {
        os << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\"" << ":" << tr
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
        if (tr == noTrack)
            os << "global";
        else
            os << "cpu" << tr;
        os << "\"}}";
    }

    // Overflow is never silent: emit a warning instant so anyone
    // reading the timeline sees that the ring wrapped and spans may
    // have lost their opening edges.
    if (sink.dropped() > 0) {
        os << ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":" << noTrack
           << ",\"ts\":0.0000,\"s\":\"g\",\"name\":"
              "\"trace_ring_overflow\",\"cat\":\"warning\","
              "\"args\":{\"droppedRecords\":" << sink.dropped()
           << ",\"truncatedSpans\":" << sink.truncatedSpans()
           << "}}";
    }

    // Renumber flows by first appearance in canonical merged order,
    // so flow ids do not depend on stamping order.
    std::unordered_map<std::uint64_t, std::uint64_t> flowIds;
    sink.forEachMerged([&os, &freq, &flowIds](const TraceRecord &r) {
        // Causal edges render as Chrome flow events: an arrow from
        // the EdgeOut record to the matching EdgeIn, tied by token.
        if (r.kind == TraceKind::EdgeOut ||
            r.kind == TraceKind::EdgeIn) {
            const bool out = r.kind == TraceKind::EdgeOut;
            const auto it =
                flowIds.try_emplace(r.arg, flowIds.size() + 1).first;
            os << ",\n{\"ph\":\"" << (out ? "s" : "f") << "\"";
            if (!out)
                os << ",\"bp\":\"e\"";
            os << ",\"pid\":0,\"tid\":" << r.track
               << ",\"ts\":" << formatFixed(freq.us(r.when), 4)
               << ",\"id\":" << it->second << ",\"name\":\""
               << jsonEscape(tapName(r.tap)) << "\",\"cat\":\""
               << to_string(r.cat) << "\"}";
            return;
        }
        const char *ph = r.kind == TraceKind::Begin ? "B"
                         : r.kind == TraceKind::End ? "E"
                                                    : "i";
        os << ",\n{\"ph\":\"" << ph << "\",\"pid\":0,\"tid\":"
           << r.track << ",\"ts\":" << formatFixed(freq.us(r.when), 4)
           << ",\"name\":\"" << jsonEscape(tapName(r.tap))
           << "\",\"cat\":\"" << to_string(r.cat) << "\"";
        if (r.kind == TraceKind::Instant)
            os << ",\"s\":\"t\",\"args\":{\"arg\":" << r.arg << "}";
        os << "}";
    });

    // Sampled gauges merge in as counter tracks so queue depths and
    // occupancy levels render under the spans that caused them.
    if (timeline)
        timeline->writeCounterEvents(os, freq);

    // Captured incident windows annotate the timeline so the forensic
    // JSON and the Perfetto view line up on the same instants.
    if (flight)
        flight->writeAnnotationEvents(os, freq);

    os << "\n],\"otherData\":{\"recordCount\":" << sink.size()
       << ",\"droppedRecords\":" << sink.dropped()
       << ",\"truncatedSpans\":" << sink.truncatedSpans() << "}}\n";
}

bool
exportChromeTrace(const std::string &path, const TraceSink &sink,
                  const Frequency &freq, const std::string &process,
                  const TimelineSampler *timeline,
                  const FlightRecorder *flight)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open trace file ", path);
        return false;
    }
    if (sink.dropped() > 0 || sink.truncatedSpans() > 0) {
        warn("trace ", path, " is lossy: ", sink.dropped(),
             " dropped records, ", sink.truncatedSpans(),
             " truncated spans (raise VIRTSIM_TRACE_CAPACITY)");
    }
    writeChromeTrace(os, sink, freq, process, timeline, flight);
    return true;
}

void
Probe::syncTraceHealth()
{
    // Counter has no set(): top up to the current value so repeated
    // syncs stay idempotent within a run (reset() zeroes both sides).
    auto topUp = [this](const char *name, std::uint64_t target) {
        if (target == 0)
            return;
        Counter &c = metrics.machine().counter(internTap(name));
        if (target > c.value())
            c.inc(target - c.value());
    };
    topUp("trace.health.dropped_records", trace.dropped());
    topUp("trace.health.truncated_spans", trace.truncatedSpans());
}

void
MetricsDomain::reset()
{
    for (Counter &c : counters)
        c.reset();
    for (CycleSummary &s : summaries)
        s.reset();
}

MetricsRegistry::MetricsRegistry()
    : _machine(std::make_unique<MetricsDomain>("machine"))
{
}

MetricsDomain &
MetricsRegistry::vm(const std::string &name)
{
    for (auto &[key, dom] : _vms) {
        if (key == name)
            return *dom;
    }
    _vms.emplace_back(name,
                      std::make_unique<MetricsDomain>("vm:" + name));
    return *_vms.back().second;
}

MetricsDomain &
MetricsRegistry::cpu(int pcpu)
{
    VIRTSIM_ASSERT(pcpu >= 0, "bad pcpu ", pcpu);
    const auto i = static_cast<std::size_t>(pcpu);
    while (_cpus.size() <= i) {
        _cpus.push_back(std::make_unique<MetricsDomain>(
            "cpu:" + std::to_string(_cpus.size())));
    }
    return *_cpus[i];
}

void
MetricsRegistry::reset()
{
    _machine->reset();
    for (auto &[key, dom] : _vms)
        dom->reset();
    for (auto &dom : _cpus)
        dom->reset();
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    MetricsSnapshot snap;
    auto collect = [&snap](const MetricsDomain &dom) {
        dom.forEachCounter([&snap, &dom](TapId tap,
                                         std::uint64_t value) {
            snap.counters.push_back(
                {dom.name(), tapName(tap), value});
        });
        dom.forEachSummary([&snap, &dom](TapId tap,
                                         const CycleSummary &h) {
            MetricsSnapshot::HistogramRow row;
            row.domain = dom.name();
            row.name = tapName(tap);
            row.count = h.count();
            if (h.count() > 0) {
                row.min = h.min();
                row.max = h.max();
                row.mean = h.mean();
            }
            snap.histograms.push_back(std::move(row));
        });
    };
    collect(*_machine);
    for (const auto &[key, dom] : _vms)
        collect(*dom);
    for (const auto &dom : _cpus)
        collect(*dom);

    // Sort by name, not tap id: interning order differs between runs
    // under parallel sweeps, names do not.
    auto byName = [](const auto &a, const auto &b) {
        if (a.domain != b.domain)
            return a.domain < b.domain;
        return a.name < b.name;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(), byName);
    return snap;
}

std::string
MetricsSnapshot::render() const
{
    std::string out;
    for (const CounterRow &r : counters) {
        out += r.domain + "/" + r.name + " = " +
               std::to_string(r.value) + "\n";
    }
    for (const HistogramRow &r : histograms) {
        out += r.domain + "/" + r.name + " : n=" +
               std::to_string(r.count) + " min=" +
               std::to_string(r.min) + " mean=" + formatFixed(r.mean, 1) +
               " max=" + std::to_string(r.max) + "\n";
    }
    return out;
}

std::string
MetricsSnapshot::brief() const
{
    // The acceptance digest: traps, world switches and virtual IRQs
    // per VM domain, one line per VM.
    struct Digest
    {
        std::uint64_t traps = 0;
        std::uint64_t switches = 0;
        std::uint64_t virqs = 0;
    };
    std::vector<std::pair<std::string, Digest>> vms;
    auto digestOf = [&vms](const std::string &domain) -> Digest & {
        for (auto &[name, d] : vms) {
            if (name == domain)
                return d;
        }
        vms.emplace_back(domain, Digest{});
        return vms.back().second;
    };
    for (const CounterRow &r : counters) {
        if (r.domain.rfind("vm:", 0) != 0)
            continue;
        Digest &d = digestOf(r.domain);
        if (r.name.find(".trap.") != std::string::npos)
            d.traps += r.value;
        else if (r.name.find("world_switch") != std::string::npos)
            d.switches += r.value;
        else if (r.name.find("virq") != std::string::npos)
            d.virqs += r.value;
    }
    // Trap costs are recorded as per-reason cycle summaries; their sample
    // counts are the trap counts.
    for (const HistogramRow &r : histograms) {
        if (r.domain.rfind("vm:", 0) != 0)
            continue;
        if (r.name.find(".trap.") != std::string::npos)
            digestOf(r.domain).traps += r.count;
    }
    std::string out;
    for (const auto &[name, d] : vms) {
        out += name + ": traps=" + std::to_string(d.traps) +
               " world_switches=" + std::to_string(d.switches) +
               " virqs=" + std::to_string(d.virqs) + "\n";
    }
    if (out.empty())
        out = "(no VM metrics)\n";
    return out;
}

std::string
MetricsSnapshot::toJson() const
{
    std::string out = "{\"counters\":[";
    bool first = true;
    for (const CounterRow &r : counters) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"domain\":\"" + jsonEscape(r.domain) +
               "\",\"name\":\"" + jsonEscape(r.name) +
               "\",\"value\":" + std::to_string(r.value) + "}";
    }
    out += "],\"histograms\":[";
    first = true;
    for (const HistogramRow &r : histograms) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"domain\":\"" + jsonEscape(r.domain) +
               "\",\"name\":\"" + jsonEscape(r.name) +
               "\",\"count\":" + std::to_string(r.count) +
               ",\"min\":" + std::to_string(r.min) +
               ",\"max\":" + std::to_string(r.max) +
               ",\"mean\":" + formatFixed(r.mean, 4) + "}";
    }
    out += "]}";
    return out;
}

} // namespace virtsim
