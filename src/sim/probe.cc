#include "sim/probe.hh"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <fstream>
#include <mutex>
#include <ostream>
#include <unordered_map>

#include "sim/flight.hh"
#include "sim/log.hh"
#include "sim/shard_profile.hh"

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

/** Format cycles as microseconds with fixed sub-ns precision, so
 *  exported JSON is byte-stable. */
std::string
formatUs(double us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f", us);
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
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

std::size_t
internedTapCount()
{
    InternTable &t = internTable();
    std::lock_guard<std::mutex> lock(t.mu);
    return t.names.size() - 1;
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
    for (Seg &s : segs) {
        // Uninitialized on purpose: slots are write-before-read, and
        // a zero-fill here would fault in every page of a ring most
        // runs only partially use.
        s.ring = std::make_unique_for_overwrite<TraceRecord[]>(n);
        s.head = 0;
        s.total = 0;
        s.truncated = 0;
        s.edgeSeq = 0;
        s.obsMark = 0;
    }
}

void
TraceSink::prepareForParallel(int lanes)
{
    VIRTSIM_ASSERT(lanes >= 1 && lanes <= maxLanes,
                   "bad trace lane count ", lanes);
    segs.resize(static_cast<std::size_t>(lanes));
    if (cap > 0)
        setCapacity(cap); // re-ring every segment, dropping records
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
    if (a.seg != b.seg)
        return a.seg < b.seg;
    return a.pos < b.pos;
}

std::vector<TraceSink::MergeRef>
TraceSink::mergeOrder() const
{
    std::vector<MergeRef> order;
    order.reserve(size());
    for (std::size_t si = 0; si < segs.size(); ++si) {
        const Seg &s = segs[si];
        const std::size_t n = segSize(s);
        const std::uint64_t first = s.total - n;
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t slot =
                s.total <= cap ? i : (s.head + i) & (cap - 1);
            const TraceRecord &r = s.ring[slot];
            order.push_back({r.when, first + i,
                             static_cast<std::uint32_t>(si),
                             static_cast<std::uint32_t>(slot), r.track,
                             static_cast<std::uint8_t>(
                                 r.kind == TraceKind::EdgeOut ? 0
                                                              : 1)});
        }
    }
    // No ties: (seg, pos) is unique, so the non-stable sort is
    // deterministic.
    std::sort(order.begin(), order.end(), mergeLess);
    return order;
}

void
TraceSink::flushObserver()
{
    if (!obs || !obsDeferred)
        return;
    std::vector<MergeRef> batch;
    for (std::size_t si = 0; si < segs.size(); ++si) {
        Seg &s = segs[si];
        const std::size_t n = segSize(s);
        const std::uint64_t first = s.total - n;
        const std::uint64_t from =
            s.obsMark > first ? s.obsMark : first;
        for (std::uint64_t i = from; i < s.total; ++i) {
            const auto idx = static_cast<std::size_t>(i - first);
            const std::size_t slot =
                s.total <= cap ? idx : (s.head + idx) & (cap - 1);
            batch.push_back({s.ring[slot].when, i,
                             static_cast<std::uint32_t>(si),
                             static_cast<std::uint32_t>(slot),
                             s.ring[slot].track,
                             static_cast<std::uint8_t>(
                                 s.ring[slot].kind ==
                                         TraceKind::EdgeOut
                                     ? 0
                                     : 1)});
        }
        s.obsMark = s.total;
    }
    if (batch.empty())
        return;
    std::sort(batch.begin(), batch.end(), mergeLess);
    for (const MergeRef &m : batch)
        obs->onTraceRecord(segs[m.seg].ring[m.slot]);
}

std::optional<Cycles>
TraceSink::find(std::uint64_t flow, TapId tap) const
{
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = at(i);
        if (r.kind == TraceKind::Instant && r.cat == TraceCat::Tap &&
            r.tap == tap && r.arg == flow) {
            return r.when;
        }
    }
    return std::nullopt;
}

std::optional<Cycles>
TraceSink::between(std::uint64_t flow, TapId from, TapId to) const
{
    const std::size_t n = size();
    std::optional<Cycles> t0;
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = at(i);
        if (r.kind != TraceKind::Instant || r.cat != TraceCat::Tap ||
            r.arg != flow) {
            continue;
        }
        if (!t0) {
            if (r.tap == from)
                t0 = r.when;
            continue;
        }
        // First `from` found: pair with the nearest following `to`.
        if (r.tap == to && r.when >= *t0)
            return r.when - *t0;
    }
    return std::nullopt;
}

namespace {

/** Emit a shard profile's per-lane wall-time splits as Chrome counter
 *  events ("ph":"C"), one track per lane, pinned at ts 0 (the values
 *  are whole-run host-time totals, not simulated-time samples). */
void
writeShardProfileCounters(std::ostream &os, const ShardProfile &p)
{
    for (std::size_t i = 0; i < p.lanes.size(); ++i) {
        const ShardProfile::Lane &ln = p.lanes[i];
        // Sparse like the JSON export: spare fleet lanes that never
        // ran or stalled get no counter track.
        if (ln.busyNs == 0 && ln.stallNs == 0 && ln.events == 0 &&
            ln.stallRounds == 0)
            continue;
        os << ",\n{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":0.0000,"
              "\"name\":\"shard.lane"
           << i << ".walltime_us\",\"cat\":\"shard\",\"args\":{"
              "\"busy\":"
           << formatUs(static_cast<double>(ln.busyNs) / 1e3)
           << ",\"wait\":"
           << formatUs(static_cast<double>(p.waitNs(i)) / 1e3)
           << ",\"stall\":"
           << formatUs(static_cast<double>(ln.stallNs) / 1e3) << "}}";
    }
}

} // namespace

void
writeChromeTrace(std::ostream &os, const TraceSink &sink,
                 const Frequency &freq, const std::string &process,
                 const TimelineSampler *timeline,
                 const ShardProfile *profile,
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

    // Raw edge tokens encode the issuing lane, so their values depend
    // on the lane partition; renumber flows by first appearance in
    // canonical merged order, which does not.
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
               << ",\"ts\":" << formatUs(freq.us(r.when))
               << ",\"id\":" << it->second << ",\"name\":\""
               << jsonEscape(tapName(r.tap)) << "\",\"cat\":\""
               << to_string(r.cat) << "\"}";
            return;
        }
        const char *ph = r.kind == TraceKind::Begin ? "B"
                         : r.kind == TraceKind::End ? "E"
                                                    : "i";
        os << ",\n{\"ph\":\"" << ph << "\",\"pid\":0,\"tid\":"
           << r.track << ",\"ts\":" << formatUs(freq.us(r.when))
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

    // Per-lane kernel wall-time splits render alongside, one counter
    // track per lane. Host-clock measurements: only merged in when
    // explicitly passed, so deterministic exports stay deterministic.
    if (profile)
        writeShardProfileCounters(os, *profile);

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
                  const ShardProfile *profile,
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
    writeChromeTrace(os, sink, freq, process, timeline, profile,
                     flight);
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
Probe::warmTraceHealth()
{
    // Interning alone is enough: prepareForParallel() sizes the
    // counter arrays from internedTapCount(), and no counter row is
    // registered until a sync actually reports loss.
    internTap("trace.health.dropped_records");
    internTap("trace.health.truncated_spans");
}

void
MetricsDomain::reset()
{
    for (Counter &c : counters)
        c.reset();
    for (auto &h : hists) {
        if (h)
            h->reset();
    }
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
MetricsRegistry::prepareForParallel(int nCpus)
{
    const std::size_t taps = internedTapCount();
    if (nCpus > 0)
        cpu(nCpus - 1); // materialize cpu:0 .. cpu:nCpus-1
    _machine->prepareForParallel(taps);
    for (auto &[key, dom] : _vms)
        dom->prepareForParallel(taps);
    for (auto &dom : _cpus)
        dom->prepareForParallel(taps);
}

void
MetricsRegistry::endParallel()
{
    _machine->endParallel();
    for (auto &[key, dom] : _vms)
        dom->endParallel();
    for (auto &dom : _cpus)
        dom->endParallel();
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

void
MetricsRegistry::clear()
{
    _machine = std::make_unique<MetricsDomain>("machine");
    _vms.clear();
    _cpus.clear();
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
        dom.forEachHistogram([&snap, &dom](TapId tap,
                                           const HistogramStat &h) {
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
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f", r.mean);
        out += r.domain + "/" + r.name + " : n=" +
               std::to_string(r.count) + " min=" +
               std::to_string(r.min) + " mean=" + buf +
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
    // Trap costs are recorded as per-reason histograms; their sample
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
        char mean[64];
        std::snprintf(mean, sizeof(mean), "%.4f", r.mean);
        out += "{\"domain\":\"" + jsonEscape(r.domain) +
               "\",\"name\":\"" + jsonEscape(r.name) +
               "\",\"count\":" + std::to_string(r.count) +
               ",\"min\":" + std::to_string(r.min) +
               ",\"max\":" + std::to_string(r.max) +
               ",\"mean\":" + mean + "}";
    }
    out += "]}";
    return out;
}

void
EventKernelProfiler::prepareForParallel(int lanes,
                                        std::size_t tapCount)
{
    VIRTSIM_ASSERT(lanes >= 1, "bad profiler lane count ", lanes);
    hists.clear();
    // Raw tap ids are 1-based; slot 0 holds the invalid label.
    laneHists.assign(static_cast<std::size_t>(lanes),
                     std::vector<HistogramStat>(tapCount + 1));
}

std::size_t
EventKernelProfiler::labelLimit() const
{
    return laneHists.empty() ? hists.size() : laneHists[0].size();
}

HistogramStat
EventKernelProfiler::mergedAt(std::size_t i) const
{
    HistogramStat h;
    for (const std::vector<HistogramStat> &lane : laneHists) {
        if (i < lane.size())
            h.merge(lane[i]);
    }
    return h;
}

const HistogramStat *
EventKernelProfiler::histogram(TapId label) const
{
    const std::size_t i = label.raw();
    if (laneHists.empty()) {
        if (i >= hists.size() || hists[i].count() == 0)
            return nullptr;
        return &hists[i];
    }
    if (i >= labelLimit())
        return nullptr;
    mergeScratch = mergedAt(i);
    return mergeScratch.count() == 0 ? nullptr : &mergeScratch;
}

std::string
EventKernelProfiler::render() const
{
    std::vector<std::pair<std::string, HistogramStat>> rows;
    for (std::size_t i = 0; i < labelLimit(); ++i) {
        HistogramStat h = laneHists.empty() ? hists[i] : mergedAt(i);
        if (h.count() == 0)
            continue;
        const TapId tap = TapId::fromRaw(static_cast<std::uint32_t>(i));
        rows.emplace_back(tap.valid() ? tapName(tap) : "(unlabeled)",
                          h);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    std::string out;
    for (const auto &[name, h] : rows) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.1f", h.mean());
        out += name + " : n=" + std::to_string(h.count()) +
               " min=" + std::to_string(h.min()) + " mean=" + buf +
               " max=" + std::to_string(h.max()) + "\n";
    }
    return out;
}

} // namespace virtsim
