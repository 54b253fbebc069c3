/**
 * @file
 * Structured observability: interned trace taps, a fixed-capacity
 * ring-buffer trace sink with span events, and a hierarchical metrics
 * registry.
 *
 * This subsystem replaces the old string-keyed Tracer and is the
 * simulator's substitute for the paper's measurement apparatus:
 * instrumented tcpdump with synchronized ARM architected counters
 * (Table V), the world-switch instrumentation behind Table III, and
 * the per-operation cycle accounting of Table II. Three design rules
 * keep it safe in the hot paths PR 1 optimized:
 *
 *  - Tap names are interned once into small integer TapIds; stamping
 *    a record is a branch plus two stores into a preallocated ring —
 *    no allocation, no string compare.
 *  - The ring has fixed capacity and overwrites the oldest records
 *    when full; overwritten records are *counted* (dropped()), never
 *    silently lost.
 *  - Metrics counters are plain array slots indexed by TapId;
 *    snapshots are sorted by name so output is deterministic even
 *    when taps were interned from parallel sweep workers in
 *    nondeterministic order.
 *
 * Traces export in the Chrome trace-event JSON format, loadable in
 * ui.perfetto.dev, with one timeline track per physical CPU.
 */

#ifndef VIRTSIM_SIM_PROBE_HH
#define VIRTSIM_SIM_PROBE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/latency.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/timeline.hh"
#include "sim/types.hh"
#include "sim/units.hh"

namespace virtsim {

/** Captured incident windows annotate Chrome-trace exports. */
class FlightRecorder;

/**
 * Interned identifier of a trace tap (a named instrumentation point
 * such as "host.datalink.rx" or "kvm.exit"). Value 0 never names a
 * tap. Intern once (at static-init time or on first use) and stamp
 * with the id; the hot path never touches the intern table.
 */
class TapId
{
  public:
    constexpr TapId() = default;

    constexpr bool valid() const { return idx != 0; }
    constexpr std::uint32_t raw() const { return idx; }

    /** Rebuild an id from raw() — for containers indexed by raw id
     *  (MetricsDomain), not for minting ids. */
    static constexpr TapId
    fromRaw(std::uint32_t raw)
    {
        return TapId(raw);
    }

    friend constexpr bool operator==(TapId a, TapId b) = default;

  private:
    friend TapId internTap(std::string_view name);
    explicit constexpr TapId(std::uint32_t i) : idx(i) {}

    std::uint32_t idx = 0;
};

/**
 * Intern a tap name, thread-safely. Idempotent: the same name always
 * returns the same id. Ids are assigned in interning order, which may
 * differ between runs under parallel sweeps — consumers must key
 * persistent output by *name* (MetricsRegistry::snapshot does).
 */
TapId internTap(std::string_view name);

/** Name of an interned tap ("?" for the invalid id). */
std::string tapName(TapId tap);

/** Record shape: a point event, one end of a span, or one end of a
 *  cross-CPU causal edge (arg carries the edge token). */
enum class TraceKind : std::uint8_t
{
    Instant,
    Begin,
    End,
    EdgeOut, ///< causal edge leaves this track (IPI send, LR write)
    EdgeIn,  ///< causal edge arrives on this track (delivery, ack)
};

/** Coarse category of a trace record (Perfetto "cat" field). */
enum class TraceCat : std::uint8_t
{
    Tap,    ///< Table V style packet timestamp tap
    Switch, ///< world switch / trap / hypercall legs
    Irq,    ///< interrupt delivery and list-register maintenance
    Io,     ///< virtio / grant-table / event-channel I/O
    Sched,  ///< event-kernel scheduling
    Op,     ///< one guest-visible operation (hypercall, vIPI, I/O)
};

const char *to_string(TraceCat cat);

/** Track id for records not tied to a physical CPU. */
inline constexpr std::uint16_t noTrack = 0xffff;

/** One trace record. 24 bytes, POD. */
struct TraceRecord
{
    Cycles when;       ///< simulated time in cycles
    std::uint64_t arg; ///< flow id, cycle cost, irq number, ...
    TapId tap;
    std::uint16_t track; ///< physical CPU, or noTrack
    TraceKind kind;
    TraceCat cat;
};

static_assert(sizeof(TraceRecord) == 24, "TraceRecord grew");

/**
 * Streaming consumer of trace records. Attach one to a TraceSink with
 * setObserver() to see every record as it is pushed — the basis of
 * online analysis (sim/attrib) that never needs the ring to retain
 * the whole run. Called only when the sink is enabled, on the thread
 * doing the stamping (one sink per sweep worker, so no locking).
 */
class TraceObserver
{
  public:
    virtual ~TraceObserver() = default;
    virtual void onTraceRecord(const TraceRecord &r) = 0;
};

/**
 * Fixed-capacity ring buffer of trace records. Disabled by default:
 * every stamping call is then a single predictable branch. When the
 * ring is full its oldest records are overwritten and counted in
 * dropped() — overflow is never silent (the exporter and reports
 * surface the count).
 *
 * Exports visit the ring through a canonical merge (see
 * forEachMerged): records sorted by time, with a fixed tie-break, so
 * an export does not depend on the order in which same-instant
 * records happened to be stamped.
 */
class TraceSink
{
  public:
    static constexpr std::size_t defaultCapacity = 1u << 15;

    /** Start recording (allocates the ring on first use). */
    void
    enable()
    {
        if (cap == 0)
            setCapacity(defaultCapacity);
        _enabled = true;
    }

    void disable() { _enabled = false; }
    bool enabled() const { return _enabled; }

    /**
     * Resize the ring (rounded up to a power of two) and drop all
     * records. Call before enabling, or between runs.
     */
    void setCapacity(std::size_t records);

    std::size_t capacity() const { return cap; }

    /** Drop all records, the dropped/truncated counts, the newest
     *  dropped stamp and the edge token sequence; capacity, the
     *  enabled flag and any attached observer are retained. */
    void
    clear()
    {
        head = 0;
        _total = 0;
        truncated = 0;
        newestDropped = 0;
        edgeSeq = 0;
        obsMark = 0;
    }

    /** Records currently retained. */
    std::size_t
    size() const
    {
        return _total < cap ? static_cast<std::size_t>(_total) : cap;
    }

    /** Records ever written (retained + dropped). */
    std::uint64_t total() const { return _total; }

    /** Records overwritten because the ring wrapped. */
    std::uint64_t
    dropped() const
    {
        return _total > cap ? _total - cap : 0;
    }

    /**
     * Spans whose opening edge (a Begin, or the `from` stamp of a
     * Tap pair) was overwritten by ring wrap. Post-hoc pairing of
     * the retained records would otherwise silently pair the
     * surviving close with a *later* open; this counter makes that
     * hazard visible — reports and the exporter surface it, and
     * Probe::syncTraceHealth publishes it into the metrics snapshot.
     */
    std::uint64_t truncatedSpans() const { return truncated; }

    /** Newest stamp among the records ring wrap overwrote; 0 while
     *  dropped() is 0. A window [begin, end] may be missing records
     *  iff dropped() > 0 and this is at or after begin. */
    Cycles newestDroppedWhen() const { return newestDropped; }

    /** Attach (or detach, with nullptr) a streaming observer that
     *  sees every record pushed while the sink is enabled. */
    void setObserver(TraceObserver *o) { obs = o; }

    TraceObserver *observer() const { return obs; }

    /**
     * Switch observer dispatch from inline (at every push — the
     * classic streaming mode) to deferred: records accumulate in the
     * ring and are delivered in canonical merged order by
     * flushObserver(), which a world's drain (Observability::drain)
     * calls after every stretch between two sampling instants.
     */
    void setObserverDeferred(bool on) { obsDeferred = on; }

    /**
     * Deliver every not-yet-delivered record to the observer in
     * canonical merged order. Records the ring overwrote before a
     * flush reached them are lost to the observer and show up in
     * dropped() — flush at least once per ring-fill to stream
     * losslessly.
     */
    void flushObserver();

    /** @name Stamping
     *
     * Hot path. With the sink disabled — the default for every sweep
     * cell unless VIRTSIM_TRACE/VIRTSIM_FLAME asked for records —
     * each call is a single predictable branch and nothing else: no
     * stores, no allocation, no observer dispatch. The [[likely]]
     * hints bias codegen for that dead-probe path; enabling tracing
     * is the explicitly-paid-for slow mode. When enabled, a call is
     * a branch plus stores into the preallocated ring (still no
     * allocation).
     */
    ///@{
    /** Table V style tap: a named timestamp bound to a flow id. */
    void
    stamp(Cycles when, std::uint64_t flow, TapId tap,
          std::uint16_t track = noTrack)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, flow, tap, track, TraceKind::Instant,
                         TraceCat::Tap});
    }

    /** A categorized point event. */
    void
    instant(Cycles when, TapId tap, TraceCat cat,
            std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::Instant,
                         cat});
    }

    /** Open a span on a track. Must be matched by end() with the
     *  same tap and track. */
    void
    begin(Cycles when, TapId tap, TraceCat cat,
          std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::Begin, cat});
    }

    /** Close the innermost open span with this tap on this track. */
    void
    end(Cycles when, TapId tap, TraceCat cat,
        std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{when, arg, tap, track, TraceKind::End, cat});
    }

    /** Emit a complete [t0, t1] span in one call. */
    void
    span(Cycles t0, Cycles t1, TapId tap, TraceCat cat,
         std::uint16_t track = noTrack, std::uint64_t arg = 0)
    {
        if (!_enabled) [[likely]]
            return;
        push(TraceRecord{t0, arg, tap, track, TraceKind::Begin, cat});
        push(TraceRecord{t1, arg, tap, track, TraceKind::End, cat});
    }

    /**
     * Open a cross-CPU causal edge (IPI send, LR write, wire tx,
     * backend wakeup) and return its token. The token travels with
     * the simulated payload and is redeemed by edgeIn() where the
     * effect lands, linking spans on different tracks into one causal
     * graph. Tokens are a nonzero sequence, reset by clear();
     * exporters renumber flows by first appearance in canonical
     * merged order.
     * @return 0 when disabled (edgeIn ignores token 0).
     */
    std::uint64_t
    edgeOut(Cycles when, TapId tap, TraceCat cat,
            std::uint16_t track = noTrack)
    {
        if (!_enabled) [[likely]]
            return 0;
        const std::uint64_t token = ++edgeSeq;
        push(TraceRecord{when, token, tap, track, TraceKind::EdgeOut,
                         cat});
        return token;
    }

    /** Close a causal edge where its effect lands. No-op for token 0
     *  (edge opened while the sink was disabled). */
    void
    edgeIn(Cycles when, std::uint64_t token, TapId tap, TraceCat cat,
           std::uint16_t track = noTrack)
    {
        if (!_enabled || token == 0) [[likely]]
            return;
        push(TraceRecord{when, token, tap, track, TraceKind::EdgeIn,
                         cat});
    }
    ///@}

    /** @name Analysis */
    ///@{
    /** i-th retained record in write order, i in [0, size()). */
    const TraceRecord &
    at(std::size_t i) const
    {
        VIRTSIM_ASSERT(i < size(), "TraceSink::at(): index out of range");
        return ring[slotOf(i)];
    }

    /** Visit retained records in write order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            fn(at(i));
    }

    /** Visit only records written at or after a total() watermark
     *  taken earlier (records before it may have been dropped). */
    template <typename Fn>
    void
    forEachSince(std::uint64_t mark, Fn &&fn) const
    {
        const std::uint64_t first = _total - size();
        const std::uint64_t from = mark > first ? mark : first;
        for (std::uint64_t i = from; i < _total; ++i)
            fn(at(static_cast<std::size_t>(i - first)));
    }

    /**
     * Visit every retained record in canonical order: ascending
     * (when, EdgeOut-before-other-kinds, track, write position).
     * Cold path: sorts an index of size() entries per call.
     */
    template <typename Fn>
    void
    forEachMerged(Fn &&fn) const
    {
        for (const MergeRef &m : mergeOrder(0))
            fn(ring[m.slot]);
    }

    /** Retained records stamped in [begin, end], in the canonical
     *  order of forEachMerged(). Cold path, like forEachMerged(). */
    std::vector<TraceRecord> mergedWindow(Cycles begin,
                                          Cycles end) const;
    ///@}

  private:
    /** Sort key for the canonical merge; see forEachMerged(). */
    struct MergeRef
    {
        Cycles when;
        std::uint64_t pos;     ///< absolute write index
        std::uint32_t slot;    ///< ring slot holding the record
        std::uint16_t track;
        std::uint8_t kindPrio; ///< 0 for EdgeOut, 1 otherwise
    };

    static bool mergeLess(const MergeRef &a, const MergeRef &b);

    /** Canonical order over the retained records written at or
     *  after the total() watermark `mark` and stamped in
     *  [begin, end]. */
    std::vector<MergeRef> mergeOrder(std::uint64_t mark, Cycles begin = 0,
                                     Cycles end = ~Cycles{0}) const;

    /** Ring slot of the i-th retained record. */
    std::size_t
    slotOf(std::size_t i) const
    {
        return _total <= cap ? i : (head + i) & (cap - 1);
    }

    void
    push(const TraceRecord &r)
    {
        if (_total >= cap) {
            // About to overwrite: losing a span's opening edge makes
            // post-hoc pairing unsound, so count it instead of
            // letting analysis mispair silently.
            const TraceRecord &old = ring[head];
            if (old.kind == TraceKind::Begin ||
                (old.kind == TraceKind::Instant &&
                 old.cat == TraceCat::Tap)) {
                ++truncated;
            }
            if (old.when > newestDropped)
                newestDropped = old.when;
        }
        ring[head] = r;
        head = (head + 1) & (cap - 1);
        ++_total;
        if (obs && !obsDeferred)
            obs->onTraceRecord(r);
    }

    /** Ring storage, allocated uninitialized: slots beyond the
     *  retained count are never read, and skipping the zero-fill
     *  keeps per-run setup from faulting in pages the run never
     *  touches. */
    std::unique_ptr<TraceRecord[]> ring;
    std::size_t cap = 0;          ///< ring capacity, power of two
    std::size_t head = 0;         ///< next write position
    std::uint64_t _total = 0;     ///< records ever written
    std::uint64_t truncated = 0;  ///< span opens lost to overwrite
    Cycles newestDropped = 0;     ///< newest stamp lost to overwrite
    std::uint64_t edgeSeq = 0;    ///< last edge token issued
    std::uint64_t obsMark = 0;    ///< total already flushed to obs
    TraceObserver *obs = nullptr; ///< streaming consumer, not owned
    bool obsDeferred = false;     ///< deliver at flushObserver() only
    bool _enabled = false;
};

/**
 * Serialize a sink as Chrome trace-event JSON ("traceEvents" array),
 * loadable in ui.perfetto.dev / chrome://tracing. Each track becomes
 * a thread named "cpu<N>"; timestamps convert to microseconds at the
 * machine frequency. Dropped records are reported in the metadata.
 * Records are emitted in canonical merged order (forEachMerged) with
 * flow ids renumbered by first appearance. When a timeline with
 * stored samples is passed, its series are merged in as counter
 * tracks ("ph":"C") so gauges render on the same Perfetto timeline as
 * spans and flow arrows.
 */
void writeChromeTrace(std::ostream &os, const TraceSink &sink,
                      const Frequency &freq,
                      const std::string &process = "virtsim",
                      const TimelineSampler *timeline = nullptr,
                      const FlightRecorder *flight = nullptr);

/** writeChromeTrace to a file, warning on stderr when the sink lost
 *  records (dropped or truncated spans) so a lossy trace is visible
 *  without opening the JSON. @return false if the file failed to
 *  open (the failure is also logged). */
bool exportChromeTrace(const std::string &path, const TraceSink &sink,
                       const Frequency &freq,
                       const std::string &process = "virtsim",
                       const TimelineSampler *timeline = nullptr,
                       const FlightRecorder *flight = nullptr);

/**
 * One level of the metrics hierarchy (machine, one VM, or one CPU):
 * counters and exact cycle summaries keyed by TapId. Lookup is an
 * array index off the tap id — cheap enough to leave on
 * unconditionally in hypervisor paths. A tap is registered (listed by
 * the forEach visitors) from its first counter()/summary() call;
 * the arrays grow to cover it then.
 */
class MetricsDomain
{
  public:
    explicit MetricsDomain(std::string name) : _name(std::move(name)) {}

    const std::string &name() const { return _name; }

    Counter &
    counter(TapId tap)
    {
        const std::size_t i = tap.raw();
        if (i >= counters.size()) {
            counters.resize(i + 1);
            counterUsed.resize(i + 1);
        }
        counterUsed[i] = 1;
        return counters[i];
    }

    CycleSummary &
    summary(TapId tap)
    {
        const std::size_t i = tap.raw();
        if (i >= summaries.size()) {
            summaries.resize(i + 1);
            summaryUsed.resize(i + 1);
        }
        summaryUsed[i] = 1;
        return summaries[i];
    }

    /**
     * Read a counter's value without registering the tap. counter()
     * marks the tap used — which adds a row to every later snapshot —
     * so read-only consumers (timeline rate gauges sampling
     * world-switch counts) must use this instead. Returns 0 for taps
     * never registered in this domain. Never allocates.
     */
    std::uint64_t
    value(TapId tap) const
    {
        const std::size_t i = tap.raw();
        if (i >= counters.size() || !counterUsed[i])
            return 0;
        return counters[i].value();
    }

    /** Zero every counter and summary; registered taps stay
     *  registered so reruns report the same rows. */
    void reset();

    /** Visit used counters as (tap, value). */
    template <typename Fn>
    void
    forEachCounter(Fn &&fn) const
    {
        for (std::size_t i = 0; i < counters.size(); ++i) {
            if (counterUsed[i]) {
                fn(TapId::fromRaw(static_cast<std::uint32_t>(i)),
                   counters[i].value());
            }
        }
    }

    /** Visit used summaries as (tap, summary). */
    template <typename Fn>
    void
    forEachSummary(Fn &&fn) const
    {
        for (std::size_t i = 0; i < summaries.size(); ++i) {
            if (summaryUsed[i]) {
                fn(TapId::fromRaw(static_cast<std::uint32_t>(i)),
                   summaries[i]);
            }
        }
    }

  private:
    std::string _name;
    std::vector<Counter> counters;
    std::vector<std::uint8_t> counterUsed;
    std::vector<CycleSummary> summaries;
    std::vector<std::uint8_t> summaryUsed;
};

/** Deterministic, name-sorted snapshot of a MetricsRegistry. */
struct MetricsSnapshot
{
    struct CounterRow
    {
        std::string domain;
        std::string name;
        std::uint64_t value = 0;

        friend bool operator==(const CounterRow &,
                               const CounterRow &) = default;
    };

    /** One tap's CycleSummary (the JSON "histograms" rows). */
    struct HistogramRow
    {
        std::string domain;
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t min = 0;
        std::uint64_t max = 0;
        double mean = 0.0;

        friend bool operator==(const HistogramRow &,
                               const HistogramRow &) = default;
    };

    std::vector<CounterRow> counters;   ///< sorted by (domain, name)
    std::vector<HistogramRow> histograms;

    friend bool operator==(const MetricsSnapshot &,
                           const MetricsSnapshot &) = default;

    /** All rows, one per line ("domain/name = value"). */
    std::string render() const;

    /** Compact per-VM digest for bench reports: traps, world
     *  switches, and virtual IRQs per VM domain. */
    std::string brief() const;

    /** JSON object {"counters": [...], "histograms": [...]}. */
    std::string toJson() const;
};

/**
 * Hierarchical metrics: one machine domain, one domain per VM and per
 * physical CPU. Domains are created on first use and never move.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry();

    MetricsDomain &machine() { return *_machine; }

    /** Per-VM domain, keyed by VM name (rendered as "vm:<name>"). */
    MetricsDomain &vm(const std::string &name);

    /** Per-physical-CPU domain (rendered as "cpu:<N>"). */
    MetricsDomain &cpu(int pcpu);

    /** Zero all counters and summaries in every domain. */
    void reset();

    MetricsSnapshot snapshot() const;

  private:
    // Domains are held by pointer so references handed out by
    // vm()/cpu() stay valid as the maps grow.
    std::unique_ptr<MetricsDomain> _machine;
    std::vector<std::pair<std::string, std::unique_ptr<MetricsDomain>>>
        _vms;
    std::vector<std::unique_ptr<MetricsDomain>> _cpus;
};

/**
 * The observability bundle a Machine owns: trace sink + metrics +
 * timeline sampler + request-latency tracker, reset together between
 * workload runs.
 */
struct Probe
{
    TraceSink trace;
    MetricsRegistry metrics;
    TimelineSampler timeline;
    RequestTracker latency;

    void
    reset()
    {
        trace.clear();
        metrics.reset();
        timeline.resetSeries();
        latency.reset();
    }

    /**
     * Publish trace-ring health (dropped records, truncated spans)
     * into machine-domain counters so a metrics snapshot carries the
     * loss alongside the numbers it may have biased. Counters are
     * only created when the count is nonzero — clean runs snapshot
     * byte-identically with or without this call.
     */
    void syncTraceHealth();
};

} // namespace virtsim

#endif // VIRTSIM_SIM_PROBE_HH
