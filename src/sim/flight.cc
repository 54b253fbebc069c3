#include "sim/flight.hh"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <tuple>

#include "sim/lane.hh"
#include "sim/log.hh"

namespace virtsim {

void
flightRecordBridge(FlightRecorder &fr, const TraceRecord &r)
{
    fr.record(r);
}

namespace {

/** Same fixed-precision formatting as the other exporters so merged
 *  artifacts line up byte-for-byte. */
std::string
flFormatUs(double us)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.4f", us);
    return buf;
}

std::string
flJsonEscape(const std::string &s)
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
    // first barrier tick past end, so now - begin <= 2W + period.
    // The slack absorbs coarse tick alignment.
    _retention = 2 * window + 8 * period;
    keyShift = static_cast<unsigned>(std::bit_width(period)) - 1;
    cap = incidentCap;
}

void
FlightRecorder::Seg::allocate()
{
    ring = std::make_unique<TraceRecord[]>(segCapacity);
    order = std::make_unique<Link[]>(segCapacity + 1);
    expiry = std::make_unique<Link[]>(segCapacity + wheelBuckets);
    clear();
}

void
FlightRecorder::Seg::clear()
{
    freeHead = noSlot;
    fresh = 0;
    wheelLo = 0;
    count = 0;
    total = 0;
    forced = 0;
    maxForcedWhen = 0;
    if (!ring)
        return;
    // Empty chains are self-linked sentinels. Slots are handed out
    // fresh before any is recycled, so stale slot links need no sweep.
    order[segCapacity] = Link{segCapacity, segCapacity};
    for (std::size_t b = segCapacity; b < segCapacity + wheelBuckets;
         ++b) {
        const auto u = static_cast<std::uint16_t>(b);
        expiry[b] = Link{u, u};
    }
}

void
FlightRecorder::Seg::append(std::uint16_t slot, std::uint64_t key)
{
    constexpr std::uint16_t tail = segCapacity;
    const std::uint16_t last = order[tail].prev;
    order[slot] = Link{last, tail};
    order[last].next = slot;
    order[tail].prev = slot;

    if (key < wheelLo)
        key = wheelLo;
    const auto head = static_cast<std::uint16_t>(
        segCapacity + (key & (wheelBuckets - 1)));
    const std::uint16_t first = expiry[head].next;
    expiry[slot] = Link{head, first};
    expiry[first].prev = slot;
    expiry[head].next = slot;
}

void
FlightRecorder::Seg::unlink(std::uint16_t slot)
{
    const Link o = order[slot];
    order[o.prev].next = o.next;
    order[o.next].prev = o.prev;
    const Link e = expiry[slot];
    expiry[e.prev].next = e.next;
    expiry[e.next].prev = e.prev;
    --count;
}

void
FlightRecorder::Seg::drop(std::uint16_t slot)
{
    unlink(slot);
    order[slot].next = freeHead;
    freeHead = slot;
}

void
FlightRecorder::Seg::dropStale(std::size_t head, Cycles cut)
{
    for (std::size_t x = expiry[head].next; x != head;) {
        const std::size_t next = expiry[x].next;
        if (ring[x].when < cut)
            drop(static_cast<std::uint16_t>(x));
        x = next;
    }
}

void
FlightRecorder::prepareForParallel(int lanes)
{
    VIRTSIM_ASSERT(lanes >= 1, "flight recorder needs >= 1 lane");
    segs = std::vector<Seg>(static_cast<std::size_t>(lanes));
    if (_enabled) {
        for (Seg &s : segs)
            s.allocate();
    }
}

void
FlightRecorder::enable()
{
    VIRTSIM_ASSERT(window > 0 && _period > 0,
                   "FlightRecorder::enable() before configure()");
    for (Seg &s : segs) {
        if (!s.ring)
            s.allocate();
    }
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

FlightRecorder::Seg &
FlightRecorder::laneSeg()
{
    const int l = currentExecLane();
    const std::size_t i =
        (l < 1 || static_cast<std::size_t>(l) >= segs.size())
            ? 0
            : static_cast<std::size_t>(l);
    return segs[i];
}

void
FlightRecorder::pushRecord(const TraceRecord &r)
{
    Seg &s = laneSeg();
    std::uint16_t slot;
    if (s.count == segCapacity) {
        // Overwriting a record retention has not evicted yet: the
        // window it belonged to may capture incomplete. Count it and
        // remember how recent the loss was so capture can flag it.
        slot = s.oldest();
        const TraceRecord &old = s.ring[slot];
        ++s.forced;
        if (old.when > s.maxForcedWhen)
            s.maxForcedWhen = old.when;
        s.unlink(slot);
    } else if (s.freeHead != noSlot) {
        slot = s.freeHead;
        s.freeHead = s.order[slot].next;
    } else {
        slot = static_cast<std::uint16_t>(s.fresh++);
    }
    s.ring[slot] = r;
    // Saturating when + retention: the stamp's expiry instant.
    const Cycles expires = r.when > UINT64_MAX - _retention
                               ? UINT64_MAX
                               : r.when + _retention;
    s.append(slot, expires >> keyShift);
    ++s.count;
    ++s.total;
}

void
FlightRecorder::evict(Cycles now)
{
    if (now <= _retention)
        return;
    const Cycles cut = now - _retention;
    // A record is stale iff when + R < now, so its wheel key is at
    // most this.
    const std::uint64_t hiKey = (now - 1) >> keyShift;
    for (Seg &s : segs) {
        // Pop oldest-first by insertion. Records may be stamped out
        // of when-order (frontier charging future-dates GIC and span
        // stamps; completion-time stamping back-dates whole spans),
        // so a young-stamped record at the head stops this fast path
        // early — which only under-evicts.
        while (s.count > 0 && s.ring[s.oldest()].when < cut)
            s.drop(s.oldest());
        // When under-eviction has let the segment grow near capacity,
        // drop every stale record wherever it sits; the order chain
        // keeps the survivors' relative order. Barrier context, so
        // the owning lane is quiescent.
        if (s.count < segCapacity - segCapacity / 4)
            continue;
        if (hiKey < s.wheelLo) {
            // The clock ran backwards past a previous compaction:
            // records filed under wheelLo may be stale, so check all.
            for (std::uint16_t x = s.oldest(); x != segCapacity;) {
                const std::uint16_t next = s.order[x].next;
                if (s.ring[x].when < cut)
                    s.drop(x);
                x = next;
            }
            continue;
        }
        // Every stale record is filed under a key in [wheelLo, hiKey];
        // one wheel turn covers all keys when the range is wider.
        const std::uint64_t keys =
            std::min<std::uint64_t>(hiKey - s.wheelLo + 1, wheelBuckets);
        for (std::uint64_t k = s.wheelLo; k < s.wheelLo + keys; ++k)
            s.dropStale(segCapacity + (k & (wheelBuckets - 1)), cut);
        s.wheelLo = hiKey;
    }
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

std::vector<TraceRecord>
FlightRecorder::collectWindow(Cycles begin, Cycles end) const
{
    // Canonical merge: the TraceSink::forEachMerged key. Records
    // sharing a track are stamped by one lane, so the per-lane write
    // position breaks (when, kind, track) ties deterministically and
    // the result is a pure function of the record multiset —
    // byte-identical at every lane count.
    struct Ref
    {
        TraceRecord rec;
        std::uint64_t pos;
    };
    std::vector<Ref> refs;
    for (const Seg &s : segs) {
        if (!s.ring)
            continue;
        std::uint64_t pos = s.total - s.count;
        for (std::uint16_t x = s.oldest(); x != segCapacity;
             x = s.order[x].next, ++pos) {
            const TraceRecord &r = s.ring[x];
            if (r.when < begin || r.when > end)
                continue;
            refs.push_back(Ref{r, pos});
        }
    }
    std::sort(refs.begin(), refs.end(), [](const Ref &a, const Ref &b) {
        const std::uint8_t ka =
            a.rec.kind == TraceKind::EdgeOut ? 0 : 1;
        const std::uint8_t kb =
            b.rec.kind == TraceKind::EdgeOut ? 0 : 1;
        return std::tie(a.rec.when, ka, a.rec.track, a.pos) <
               std::tie(b.rec.when, kb, b.rec.track, b.pos);
    });
    std::vector<TraceRecord> out;
    out.reserve(refs.size());
    for (const Ref &r : refs)
        out.push_back(r.rec);
    return out;
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
    for (const Seg &s : segs) {
        if (s.forced > 0 && s.maxForcedWhen >= inc.begin)
            inc.truncated = true;
    }

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

std::size_t
FlightRecorder::retainedRecords() const
{
    std::size_t n = 0;
    for (const Seg &s : segs)
        n += s.count;
    return n;
}

std::string
FlightRecorder::renderIncidentJson(std::size_t i,
                                   const Frequency &freq,
                                   const std::string &world) const
{
    const FlightIncident &inc = incident(i);
    std::ostringstream os;
    os << "{\"schema\":\"virtsim-incident-1\""
       << ",\"world\":\"" << flJsonEscape(world) << "\""
       << ",\"seq\":" << inc.seq
       << ",\"frequency_ghz\":" << flFormatUs(freq.ghz())
       << ",\"window_us\":" << flFormatUs(freq.us(window));

    os << ",\n\"trigger\":{\"at_cycles\":" << inc.triggerAt
       << ",\"at_us\":" << flFormatUs(freq.us(inc.triggerAt))
       << ",\"sources\":[";
    for (std::size_t s = 0; s < inc.sources.size(); ++s) {
        if (s)
            os << ",";
        os << "\"" << flJsonEscape(inc.sources[s]) << "\"";
    }
    os << "]}";

    os << ",\n\"window\":{\"begin_cycles\":" << inc.begin
       << ",\"begin_us\":" << flFormatUs(freq.us(inc.begin))
       << ",\"end_cycles\":" << inc.end
       << ",\"end_us\":" << flFormatUs(freq.us(inc.end))
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
        os << "\n{\"name\":\"" << flJsonEscape(st.name) << "\""
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
        os << "\n{\"name\":\"" << flJsonEscape(row.name) << "\""
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
        os << "\n{\"name\":\"" << flJsonEscape(gs.name) << "\""
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
           << ",\"window_mean_us\":" << flFormatUs(meanUs)
           << ",\"p50_us\":" << flFormatUs(freq.us(ps.p50))
           << ",\"p99_us\":" << flFormatUs(freq.us(ps.p99)) << "}";
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
           << flFormatUs(freq.us(inc.begin)) << ",\"dur\":"
           << flFormatUs(freq.us(inc.end - inc.begin))
           << ",\"name\":\"incident #" << inc.seq
           << "\",\"cat\":\"incident\",\"args\":{\"sources\":\""
           << flJsonEscape(sources) << "\"}}";
        os << ",\n{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"ts\":"
           << flFormatUs(freq.us(inc.triggerAt))
           << ",\"name\":\"incident.trigger\",\"s\":\"g\""
           << ",\"cat\":\"incident\",\"args\":{\"seq\":" << inc.seq
           << "}}";
    }
}

void
FlightRecorder::reset()
{
    for (Seg &s : segs)
        s.clear();
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
