/**
 * @file
 * Streaming causal attribution over the trace-record stream.
 *
 * The paper's central argument is attribution, not absolute numbers:
 * Table III explains KVM ARM's hypercall cost as a sum of register
 * save/restore classes; Table II explains ARM-vs-x86 crossovers by
 * which primitives each design eliminates; Table V decomposes a
 * TCP_RR transaction into hypervisor-induced legs. This module turns
 * the raw span/edge stream (sim/probe) into those explanatory
 * artifacts mechanically:
 *
 *  - CausalAnalyzer consumes records *online* through TraceObserver,
 *    so attribution never requires the ring to retain a whole run.
 *    Per-track containment parenting (children are emitted before
 *    their enclosing span, and lie inside its interval) rebuilds the
 *    span hierarchy; cross-CPU edges (IPI flight, LR write-to-ack,
 *    wire latency, backend wakeups) link tracks causally.
 *  - BlameReport rolls self-time per primitive — trap legs, each
 *    RegClass save/restore, GIC distributor vs LR maintenance,
 *    stage-2 faults, backend copies — into name-keyed terms.
 *  - diffBlame() ranks two SUTs' reports into a "why is A slower
 *    than B" table, the machine-checked form of the paper's
 *    crossover explanations.
 *  - The folded-stack export feeds standard flamegraph tooling
 *    (VIRTSIM_FLAME=out.folded).
 *  - buildCausalGraph()/extractCriticalPath() reconstruct a single
 *    operation's cross-CPU graph post hoc from the retained ring and
 *    walk its latency-critical chain.
 *
 * Everything rendered here is keyed and sorted by tap *name*, never
 * raw TapId — ids are interned in nondeterministic order under
 * parallel sweeps, names are not — so all output is byte-identical
 * across VIRTSIM_JOBS widths.
 */

#ifndef VIRTSIM_SIM_ATTRIB_HH
#define VIRTSIM_SIM_ATTRIB_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** @name Cross-CPU causal edge taps
 *  Interned once; shared by every producer so the analyzer can name
 *  edge blame uniformly.
 */
///@{
TapId edgeIpiTap();  ///< "edge.ipi": IPI send -> delivery
TapId edgeLrTap();   ///< "edge.lr": LR write -> guest ack
TapId edgeWireTap(); ///< "edge.wire": NIC wire tx -> rx
TapId edgeWakeTap(); ///< "edge.wake": backend queue -> worker pump
///@}

/** One attribution term: total self-cycles blamed on a primitive. */
struct BlameTerm
{
    std::string name;          ///< tap name ("ws.save.VGIC Regs", ...)
    Cycles cycles = 0;         ///< self time (children subtracted)
    std::uint64_t count = 0;   ///< spans / edges contributing

    friend bool operator==(const BlameTerm &,
                           const BlameTerm &) = default;
};

/**
 * Per-primitive cycle blame for one SUT run. Terms are stored sorted
 * by name (deterministic); render() ranks by cycles for reading.
 */
struct BlameReport
{
    std::string label;            ///< SUT name ("kvm_arm", ...)
    std::vector<BlameTerm> terms; ///< sorted by name

    std::uint64_t operations = 0;    ///< guest-visible ops completed
    std::uint64_t edgesLinked = 0;   ///< causal edges out->in paired
    std::uint64_t edgesDangling = 0; ///< edges missing one end
    std::uint64_t truncatedSpans = 0; ///< ring-wrap span losses

    /** Total cycles attributed across all terms. */
    Cycles attributed() const;

    /** Term by exact name, or null. */
    const BlameTerm *find(std::string_view name) const;

    /** Highest-cycle term (ties broken by name), or null. */
    const BlameTerm *top() const;

    /** Ranked human-readable table (cycles descending). */
    std::string render() const;

    /** JSON object, terms name-sorted (byte-stable). */
    std::string toJson() const;
};

/** One row of a differential report: A's vs B's cycles on a term. */
struct DiffRow
{
    std::string name;
    Cycles a = 0;
    Cycles b = 0;

    /** Positive: A spends more here than B. */
    std::int64_t
    delta() const
    {
        return static_cast<std::int64_t>(a) -
               static_cast<std::int64_t>(b);
    }
};

/**
 * Ranked "why is A slower than B" table: the union of both reports'
 * terms sorted by signed delta, largest A-excess first.
 */
struct DiffReport
{
    std::string aLabel;
    std::string bLabel;
    std::vector<DiffRow> rows; ///< delta descending, ties by name

    /** Largest A-excess row, or null if empty. */
    const DiffRow *top() const;

    std::string render() const;
};

/** Diff two blame reports (A minus B). */
DiffReport diffBlame(const BlameReport &a, const BlameReport &b);

/**
 * Streaming attribution engine. Attach to a sink with
 * `sink.setObserver(&analyzer)`; it keeps per-track span stacks and a
 * bounded pending window, assigns each completed span's self time
 * (duration minus contained children) to its tap, folds stacks for
 * flamegraph export, and times cross-CPU edges.
 *
 * Every table is flat: tracks by track id, blame by raw tap id, and
 * folds as interned stack nodes with one cycle counter each. A node
 * is a stack's root frame plus the node of the stack beneath it, so a
 * pending span's descendant stacks re-root under an enclosing span
 * with one intern each. Memory is bounded by the track count, the
 * pending and edge caps and the distinct stack nodes, not run length.
 *
 * One analyzer per sink: sweep cells own their own Testbed, sink and
 * analyzer, so reports are deterministic under VIRTSIM_JOBS > 1.
 */
class CausalAnalyzer : public TraceObserver
{
  public:
    explicit CausalAnalyzer(std::string label = "");

    void setLabel(std::string l) { _label = std::move(l); }
    const std::string &label() const { return _label; }

    void onTraceRecord(const TraceRecord &r) override;

    /**
     * Finalize pending state and build the report. May be called
     * repeatedly (later calls see the same totals plus any records
     * observed in between). @p sink, when given, contributes its
     * truncated-span count.
     */
    BlameReport report(const TraceSink *sink = nullptr);

    /** Write folded flamegraph stacks ("a;b;c cycles" lines, sorted
     *  lexicographically). @p root prefixes every stack (typically
     *  the SUT label). Linked edges contribute a root-level frame
     *  per edge tap carrying the summed in-flight cycles. */
    void writeFolded(std::ostream &os, const std::string &root = "");

    /** writeFolded to a file. @return false if it failed to open. */
    bool writeFoldedFile(const std::string &path,
                         const std::string &root = "");

    /** Forget all state (blame, folds, pending, edges). */
    void reset();

  private:
    static constexpr std::uint32_t noNode = 0xffffffff;

    /** One interned stack: its root frame's tap, and the stack under
     *  that frame (noNode for a one-frame stack). */
    struct Node
    {
        std::uint32_t tap = 0;
        std::uint32_t rest = noNode;
        std::uint32_t above = noNode; ///< first stack with this rest
        std::uint32_t next = noNode;  ///< next stack with the same rest
        Cycles cycles = 0;   ///< self time folded at this stack
        bool folded = false; ///< reached as a root stack: exported
    };

    /** A stack's self time, not yet folded. */
    struct Frag
    {
        std::uint32_t node = 0;
        Cycles cycles = 0;
    };

    struct Span
    {
        std::uint32_t node = 0; ///< the span's own one-frame stack
        Cycles t0 = 0;
        Cycles t1 = 0;
        Cycles self = 0;         ///< duration minus consumed children
        std::vector<Frag> frags; ///< descendants, under this frame
    };

    struct Open
    {
        std::uint32_t tap = 0;
        Cycles t0 = 0;
    };

    struct Track
    {
        std::vector<Open> opens;    ///< Begin seen, End pending
        std::vector<Span> pending;  ///< completed, awaiting a parent
        Cycles latestT0 = 0; ///< no pending span starts after this
    };

    /** Pending spans kept per track before the oldest are flushed as
     *  roots. Deep enough for any real nesting (ops nest ~4 deep);
     *  bounds memory on pathological streams. */
    static constexpr std::size_t pendingCap = 96;

    /** Outstanding edge-origin cap; beyond it the smallest tokens are
     *  dropped as dangling. */
    static constexpr std::size_t edgeCap = 4096;

    std::uint32_t intern(std::uint32_t tap, std::uint32_t rest);
    void charge(std::uint32_t tap, Cycles cycles);
    void fold(std::uint32_t node, Cycles cycles);
    void completeSpan(Track &tr, const TraceRecord &r);
    void finalizeRoot(const Span &s);
    void flushTrack(Track &tr, std::size_t keep);

    std::string _label;
    std::vector<Track> tracks; ///< slot 0 is noTrack, track t is t + 1
    std::map<std::uint64_t, Cycles> outstanding; ///< out time by token
    std::vector<BlameTerm> blame; ///< by raw tap id, named at report
    std::vector<Node> nodes;
    std::vector<std::uint32_t> tops; ///< one-frame stack by raw tap id
    std::vector<Frag> fragBuf; ///< a parent's frags, sized once copied
    std::uint64_t _operations = 0;
    std::uint64_t _edgesLinked = 0;
    std::uint64_t _edgesDangling = 0;
};

/**
 * Post-hoc causal graph of one operation window, rebuilt from the
 * retained ring (take a `sink.total()` watermark before the op and
 * pass it as @p mark). Nodes are spans parented by per-track
 * containment; edges pair EdgeOut/EdgeIn records by token and anchor
 * into the innermost containing node on each side. Nodes and edges
 * name their tap by an index into the graph's sorted name table.
 */
struct CausalGraph
{
    struct Node
    {
        std::uint32_t name = 0; ///< index into names
        std::uint16_t track = noTrack;
        Cycles t0 = 0;
        Cycles t1 = 0;
        int parent = -1; ///< index of innermost containing node
        bool leaf = true;
    };

    struct Edge
    {
        std::uint32_t name = 0; ///< index into names
        std::uint64_t token = 0;
        std::uint16_t fromTrack = noTrack;
        std::uint16_t toTrack = noTrack;
        Cycles out = 0;
        Cycles in = 0;
        int fromNode = -1;
        int toNode = -1;
    };

    std::vector<Node> nodes;
    std::vector<Edge> edges;
    /** Each distinct tap's name once, sorted: name indices order as
     *  the names do. */
    std::vector<std::string> names;
};

CausalGraph buildCausalGraph(const TraceSink &sink,
                             std::uint64_t mark = 0);

/** Same reconstruction over a frozen, time-sorted record array — the
 *  flight recorder's captured incident windows. */
CausalGraph buildCausalGraphFromRecords(const TraceRecord *records,
                                        std::size_t count);

/** One hop of a critical path: a span, or an edge in flight (track
 *  is the *destination* track for edges). */
struct CriticalPathStep
{
    std::string name;
    std::uint16_t track = noTrack;
    Cycles t0 = 0;
    Cycles t1 = 0;
    bool isEdge = false;
};

/** The latency-critical chain ending at the last-finishing span. */
struct CriticalPath
{
    std::vector<CriticalPathStep> steps; ///< chronological
    Cycles span = 0;       ///< end.t1 - begin.t0
    Cycles attributed = 0; ///< sum of step durations

    Cycles
    unattributed() const
    {
        return span > attributed ? span - attributed : 0;
    }

    std::string render() const;
};

/**
 * Walk backward from the node with the greatest end time, hopping
 * through causal edges onto the originating track and otherwise
 * stepping to the latest-finishing predecessor on the same track.
 */
CriticalPath extractCriticalPath(const CausalGraph &g);

} // namespace virtsim

#endif // VIRTSIM_SIM_ATTRIB_HH
