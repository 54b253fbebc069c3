#include "sim/attrib.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <tuple>

#include "sim/log.hh"

namespace virtsim {

TapId
edgeIpiTap()
{
    static const TapId tap = internTap("edge.ipi");
    return tap;
}

TapId
edgeLrTap()
{
    static const TapId tap = internTap("edge.lr");
    return tap;
}

TapId
edgeWireTap()
{
    static const TapId tap = internTap("edge.wire");
    return tap;
}

TapId
edgeWakeTap()
{
    static const TapId tap = internTap("edge.wake");
    return tap;
}

Cycles
BlameReport::attributed() const
{
    Cycles total = 0;
    for (const BlameTerm &t : terms)
        total += t.cycles;
    return total;
}

const BlameTerm *
BlameReport::find(std::string_view name) const
{
    for (const BlameTerm &t : terms) {
        if (t.name == name)
            return &t;
    }
    return nullptr;
}

const BlameTerm *
BlameReport::top() const
{
    const BlameTerm *best = nullptr;
    for (const BlameTerm &t : terms) {
        if (!best || t.cycles > best->cycles ||
            (t.cycles == best->cycles && t.name < best->name)) {
            best = &t;
        }
    }
    return best;
}

std::string
BlameReport::render() const
{
    char head[256];
    std::snprintf(head, sizeof(head),
                  "== blame[%s] ops=%llu attributed=%llu cy "
                  "edges=%llu linked/%llu dangling truncated=%llu ==\n",
                  label.c_str(),
                  static_cast<unsigned long long>(operations),
                  static_cast<unsigned long long>(attributed()),
                  static_cast<unsigned long long>(edgesLinked),
                  static_cast<unsigned long long>(edgesDangling),
                  static_cast<unsigned long long>(truncatedSpans));
    std::string out = head;

    // Rank by cycles for reading; ties fall back to the name order
    // the terms are stored in, so rendering stays deterministic.
    std::vector<BlameTerm> ranked = terms;
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const BlameTerm &a, const BlameTerm &b) {
                         return a.cycles > b.cycles;
                     });
    for (const BlameTerm &t : ranked) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "  %-32s %12llu cy %10llu x\n",
                      t.name.c_str(),
                      static_cast<unsigned long long>(t.cycles),
                      static_cast<unsigned long long>(t.count));
        out += buf;
    }
    return out;
}

std::string
BlameReport::toJson() const
{
    std::string out = "{\"label\":\"" + label + "\",\"operations\":" +
                      std::to_string(operations) +
                      ",\"edgesLinked\":" +
                      std::to_string(edgesLinked) +
                      ",\"edgesDangling\":" +
                      std::to_string(edgesDangling) +
                      ",\"truncatedSpans\":" +
                      std::to_string(truncatedSpans) + ",\"terms\":[";
    bool first = true;
    for (const BlameTerm &t : terms) {
        if (!first)
            out += ",";
        first = false;
        out += "{\"name\":\"" + t.name + "\",\"cycles\":" +
               std::to_string(t.cycles) + ",\"count\":" +
               std::to_string(t.count) + "}";
    }
    out += "]}";
    return out;
}

const DiffRow *
DiffReport::top() const
{
    return rows.empty() ? nullptr : &rows.front();
}

std::string
DiffReport::render() const
{
    std::string out = "== why is " + aLabel + " slower than " +
                      bLabel + "? (positive: " + aLabel +
                      " spends more) ==\n";
    for (const DiffRow &r : rows) {
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "  %-32s %12llu %12llu %+12lld\n",
                      r.name.c_str(),
                      static_cast<unsigned long long>(r.a),
                      static_cast<unsigned long long>(r.b),
                      static_cast<long long>(r.delta()));
        out += buf;
    }
    return out;
}

DiffReport
diffBlame(const BlameReport &a, const BlameReport &b)
{
    DiffReport d;
    d.aLabel = a.label;
    d.bLabel = b.label;
    // Both term lists are sorted by name: merge them.
    auto ia = a.terms.begin(), ib = b.terms.begin();
    while (ia != a.terms.end() || ib != b.terms.end()) {
        const bool inA = ib == b.terms.end() ||
                         (ia != a.terms.end() && ia->name <= ib->name);
        const bool inB = ia == a.terms.end() ||
                         (ib != b.terms.end() && ib->name <= ia->name);
        DiffRow r;
        r.name = inA ? ia->name : ib->name;
        if (inA)
            r.a = (ia++)->cycles;
        if (inB)
            r.b = (ib++)->cycles;
        d.rows.push_back(std::move(r));
    }
    std::stable_sort(d.rows.begin(), d.rows.end(),
                     [](const DiffRow &x, const DiffRow &y) {
                         if (x.delta() != y.delta())
                             return x.delta() > y.delta();
                         return x.name < y.name;
                     });
    return d;
}

CausalAnalyzer::CausalAnalyzer(std::string label)
    : _label(std::move(label))
{
}

void
CausalAnalyzer::onTraceRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceKind::Begin:
      case TraceKind::End: {
        // The + 1 wraps noTrack (0xffff) round to slot 0.
        const std::size_t slot = static_cast<std::uint16_t>(r.track + 1);
        if (slot >= tracks.size())
            tracks.resize(slot + 1);
        if (r.kind == TraceKind::Begin)
            tracks[slot].opens.push_back(Open{r.tap.raw(), r.when});
        else
            completeSpan(tracks[slot], r);
        return;
      }
      case TraceKind::EdgeOut:
        outstanding[r.arg] = r.when;
        if (outstanding.size() > edgeCap) {
            outstanding.erase(outstanding.begin());
            ++_edgesDangling;
        }
        return;
      case TraceKind::EdgeIn: {
        auto it = outstanding.find(r.arg);
        if (it == outstanding.end()) {
            ++_edgesDangling;
            return;
        }
        // Blame the in-flight latency on the edge tap (IPI flight,
        // LR write-to-ack, wire delay, wakeup queueing). In-flight
        // time is not on any span stack; surface it in the flamegraph
        // as a root-level frame so edge-dominated worlds (device
        // wires, vIRQ delivery) still produce folds.
        const Cycles flight = r.when >= it->second ? r.when - it->second : 0;
        charge(r.tap.raw(), flight);
        fold(intern(r.tap.raw(), noNode), flight);
        ++_edgesLinked;
        outstanding.erase(it);
        return;
      }
      case TraceKind::Instant:
        return; // point events carry no duration to attribute
    }
}

std::uint32_t
CausalAnalyzer::intern(std::uint32_t tap, std::uint32_t rest)
{
    // A one-frame stack is found by its tap, a longer one among the
    // stacks already interned over the same rest.
    if (rest == noNode && tap >= tops.size())
        tops.resize(tap + 1, noNode);
    // (Re-read after push_back, which may move nodes.)
    auto head = [&]() -> std::uint32_t & {
        return rest == noNode ? tops[tap] : nodes[rest].above;
    };
    for (std::uint32_t n = head(); n != noNode; n = nodes[n].next) {
        if (nodes[n].tap == tap)
            return n;
    }
    nodes.push_back(Node{tap, rest, noNode, head()});
    return head() = static_cast<std::uint32_t>(nodes.size() - 1);
}

void
CausalAnalyzer::charge(std::uint32_t tap, Cycles cycles)
{
    if (tap >= blame.size())
        blame.resize(tap + 1);
    blame[tap].cycles += cycles;
    blame[tap].count += 1;
}

void
CausalAnalyzer::fold(std::uint32_t node, Cycles cycles)
{
    nodes[node].cycles += cycles;
    nodes[node].folded = true;
}

void
CausalAnalyzer::completeSpan(Track &tr, const TraceRecord &r)
{
    // Match the innermost open Begin with the same tap; an End with
    // none is dropped.
    const std::uint32_t tap = r.tap.raw();
    const auto open =
        std::find_if(tr.opens.rbegin(), tr.opens.rend(),
                     [tap](const Open &o) { return o.tap == tap; });
    if (open == tr.opens.rend())
        return;

    Span s;
    s.node = intern(tap, noNode);
    s.t0 = open->t0;
    s.t1 = r.when;
    s.self = s.t1 >= s.t0 ? s.t1 - s.t0 : 0;
    tr.opens.erase(std::next(open).base());

    // Containment parenting: children were emitted (and completed)
    // before this span and lie inside its interval — consume them,
    // subtracting their duration from our self time and re-rooting
    // their stacks under our frame. None can if every pending span
    // starts before this one (the common case: a leaf).
    if (tr.latestT0 >= s.t0) {
        fragBuf.clear();
        std::erase_if(tr.pending, [&](const Span &c) {
            if (c.t0 < s.t0 || c.t1 > s.t1)
                return false;
            const Cycles dur = c.t1 >= c.t0 ? c.t1 - c.t0 : 0;
            s.self = s.self > dur ? s.self - dur : 0;
            fragBuf.push_back(Frag{intern(tap, c.node), c.self});
            for (const Frag &f : c.frags)
                fragBuf.push_back(Frag{intern(tap, f.node), f.cycles});
            return true;
        });
        s.frags.assign(fragBuf.begin(), fragBuf.end());
    }

    charge(tap, s.self);

    if (r.cat == TraceCat::Op) {
        // Guest-visible operations never nest; finalize immediately
        // so the pending window stays small across long runs.
        ++_operations;
        finalizeRoot(s);
        return;
    }

    tr.latestT0 = std::max(tr.latestT0, s.t0);
    tr.pending.push_back(std::move(s));
    if (tr.pending.size() > pendingCap)
        flushTrack(tr, pendingCap / 2);
}

void
CausalAnalyzer::finalizeRoot(const Span &s)
{
    fold(s.node, s.self);
    for (const Frag &f : s.frags)
        fold(f.node, f.cycles);
}

void
CausalAnalyzer::flushTrack(Track &tr, std::size_t keep)
{
    const std::size_t n =
        tr.pending.size() > keep ? tr.pending.size() - keep : 0;
    for (std::size_t i = 0; i < n; ++i)
        finalizeRoot(tr.pending[i]);
    tr.pending.erase(tr.pending.begin(), tr.pending.begin() + n);
}

BlameReport
CausalAnalyzer::report(const TraceSink *sink)
{
    for (Track &tr : tracks)
        flushTrack(tr, 0);
    BlameReport rep;
    rep.label = _label;
    rep.operations = _operations;
    rep.edgesLinked = _edgesLinked;
    rep.edgesDangling = _edgesDangling + outstanding.size();
    rep.truncatedSpans = sink ? sink->truncatedSpans() : 0;
    for (std::uint32_t raw = 0; raw < blame.size(); ++raw) {
        if (blame[raw].count == 0)
            continue; // no span or edge of this tap
        rep.terms.push_back(blame[raw]);
        rep.terms.back().name = tapName(TapId::fromRaw(raw));
    }
    // Sort by name: raw ids are interning-order and differ across
    // sweep workers; names do not.
    std::sort(rep.terms.begin(), rep.terms.end(),
              [](const BlameTerm &a, const BlameTerm &b) {
                  return a.name < b.name;
              });
    return rep;
}

void
CausalAnalyzer::writeFolded(std::ostream &os, const std::string &root)
{
    for (Track &tr : tracks)
        flushTrack(tr, 0);
    std::vector<std::string> lines;
    for (std::uint32_t id = 0; id < nodes.size(); ++id) {
        if (!nodes[id].folded)
            continue; // interned only as the rest of a longer stack
        std::string line = root;
        for (std::uint32_t f = id; f != noNode; f = nodes[f].rest) {
            if (!line.empty())
                line += ";";
            line += tapName(TapId::fromRaw(nodes[f].tap));
        }
        line += ' ';
        line += std::to_string(nodes[id].cycles);
        lines.push_back(std::move(line));
    }
    // Lexicographic by the *name* path, deterministic across runs.
    std::sort(lines.begin(), lines.end());
    for (const std::string &line : lines)
        os << line << "\n";
}

bool
CausalAnalyzer::writeFoldedFile(const std::string &path,
                                const std::string &root)
{
    std::ofstream os(path);
    if (!os) {
        warn("cannot open folded-stack file ", path);
        return false;
    }
    writeFolded(os, root);
    return true;
}

void
CausalAnalyzer::reset()
{
    tracks.clear();
    outstanding.clear();
    blame.clear();
    nodes.clear();
    tops.clear();
    _operations = 0;
    _edgesLinked = 0;
    _edgesDangling = 0;
}

namespace {

/**
 * Innermost-containing-span lookups over a graph's nodes. Nodes are
 * sorted by (track, t0), and each links back to the nearest earlier
 * node on its track that ends later than it does. A query walks back
 * from its start time along those links, so it skips every run of
 * nodes that end before it does (a root's earlier children, say) in
 * one step, and stops once no earlier node could be shorter than the
 * best found: near-linear for the nested spans traces hold, where an
 * all-pairs scan is quadratic.
 */
class SpanIndex
{
  public:
    explicit SpanIndex(const std::vector<CausalGraph::Node> &nodes)
    {
        for (std::size_t i = 0; i < nodes.size(); ++i) {
            const CausalGraph::Node &n = nodes[i];
            entries.push_back(
                Entry{n.track, n.t0, n.t1, static_cast<int>(i), -1});
        }
        std::sort(entries.begin(), entries.end(),
                  [](const Entry &a, const Entry &b) {
                      return std::tie(a.track, a.t0, a.node) <
                             std::tie(b.track, b.t0, b.node);
                  });
        // Previous-longer links, by a monotonic stack per track.
        std::vector<int> stack;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            Entry &e = entries[i];
            if (i > 0 && entries[i - 1].track != e.track)
                stack.clear();
            while (!stack.empty() &&
                   entries[static_cast<std::size_t>(stack.back())].t1 <=
                       e.t1) {
                stack.pop_back();
            }
            e.longer = stack.empty() ? -1 : stack.back();
            stack.push_back(static_cast<int>(i));
        }
    }

    /**
     * The node on @p track that contains [q0, q1] (t0 <= q0 and
     * t1 >= q1), other than @p exclude, with the least duration; ties
     * go to the lowest node index. -1 if none does.
     */
    int
    innermost(std::uint16_t track, Cycles q0, Cycles q1,
              int exclude) const
    {
        // The last entry at or before (track, q0).
        int k = static_cast<int>(
                    std::partition_point(entries.begin(), entries.end(),
                                         [&](const Entry &e) {
                                             return std::tie(e.track,
                                                             e.t0) <=
                                                    std::tie(track, q0);
                                         }) -
                    entries.begin()) -
                1;
        int best = -1;
        Cycles bestDur = 0;
        while (k >= 0 && entries[static_cast<std::size_t>(k)].track ==
                             track) {
            const Entry &e = entries[static_cast<std::size_t>(k)];
            if (e.t1 < q1) {
                // Nodes between e and e.longer end no later than e.
                k = e.longer;
                continue;
            }
            // e and every node before it that contains the query start
            // no later than e, so they last at least q1 - e.t0. With
            // q0 <= q1 that difference is exact.
            if (best >= 0 && q0 <= q1 && q1 - e.t0 > bestDur)
                break;
            const Cycles dur = e.t1 - e.t0;
            if (e.node != exclude &&
                (best < 0 || dur < bestDur ||
                 (dur == bestDur && e.node < best))) {
                best = e.node;
                bestDur = dur;
            }
            --k;
        }
        return best;
    }

  private:
    struct Entry
    {
        std::uint16_t track;
        Cycles t0;
        Cycles t1;
        int node;
        /** The nearest earlier entry on this track with a later t1,
         *  or -1. */
        int longer;
    };

    std::vector<Entry> entries;
};

/** Shared graph construction over any record source: the retained
 *  sink ring (buildCausalGraph) or a frozen record array (the flight
 *  recorder's incident windows). @p forEach invokes its callback once
 *  per record in stream order. */
template <typename ForEach>
CausalGraph
buildGraphImpl(ForEach &&forEach)
{
    CausalGraph g;

    struct OpenRec
    {
        std::uint32_t tap;
        std::uint16_t track;
        Cycles t0;
    };
    std::vector<OpenRec> opens;

    struct EdgeHalf
    {
        std::uint64_t token;
        std::uint32_t tap;
        std::uint16_t track;
        Cycles when;
    };
    std::vector<EdgeHalf> outs;
    std::vector<EdgeHalf> ins;

    // Name index by raw tap id: marked when a node or edge uses the
    // tap, then numbered in name order once every tap is known.
    static constexpr std::uint32_t unused = 0xffffffff;
    std::vector<std::uint32_t> rank;
    auto use = [&rank](std::uint32_t raw) {
        if (raw >= rank.size())
            rank.resize(raw + 1, unused);
        rank[raw] = 0;
        return raw;
    };

    forEach([&](const TraceRecord &r) {
        switch (r.kind) {
          case TraceKind::Begin:
            opens.push_back(OpenRec{r.tap.raw(), r.track, r.when});
            break;
          case TraceKind::End: {
            for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
                if (it->tap == r.tap.raw() &&
                    it->track == r.track) {
                    g.nodes.push_back(CausalGraph::Node{
                        use(r.tap.raw()), r.track, it->t0, r.when});
                    opens.erase(std::next(it).base());
                    break;
                }
            }
            break;
          }
          case TraceKind::EdgeOut:
            outs.push_back(EdgeHalf{r.arg, r.tap.raw(), r.track, r.when});
            break;
          case TraceKind::EdgeIn:
            ins.push_back(EdgeHalf{r.arg, r.tap.raw(), r.track, r.when});
            break;
          case TraceKind::Instant:
            break;
        }
    });

    const SpanIndex spans(g.nodes);
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        CausalGraph::Node &n = g.nodes[i];
        n.parent = spans.innermost(n.track, n.t0, n.t1,
                                   static_cast<int>(i));
        if (n.parent >= 0)
            g.nodes[static_cast<std::size_t>(n.parent)].leaf = false;
    }

    // Each token's halves in token order. A token stamped twice keeps
    // its last stamp: the sort is stable, and unique over the reversed
    // range keeps the first of each run it sees.
    auto byToken = [](std::vector<EdgeHalf> &halves) {
        std::stable_sort(halves.begin(), halves.end(),
                         [](const EdgeHalf &a, const EdgeHalf &b) {
                             return a.token < b.token;
                         });
        const auto kept = std::unique(
            halves.rbegin(), halves.rend(),
            [](const EdgeHalf &a, const EdgeHalf &b) {
                return a.token == b.token;
            });
        halves.erase(halves.begin(), kept.base());
    };
    byToken(outs);
    byToken(ins);
    g.edges.reserve(outs.size());
    auto in = ins.begin();
    for (const EdgeHalf &out : outs) {
        CausalGraph::Edge e;
        e.name = use(out.tap);
        e.token = out.token;
        e.fromTrack = out.track;
        e.out = out.when;
        e.fromNode = spans.innermost(out.track, out.when, out.when, -1);
        while (in != ins.end() && in->token < out.token)
            ++in;
        if (in != ins.end() && in->token == out.token) {
            e.toTrack = in->track;
            e.in = in->when;
            e.toNode = spans.innermost(in->track, in->when, in->when, -1);
        }
        g.edges.push_back(std::move(e));
    }
    // Each tap used is named once (tapName() takes the intern table's
    // lock and copies), and nodes and edges then hold name ranks.
    std::vector<std::pair<std::string, std::uint32_t>> named;
    for (std::uint32_t raw = 0; raw < rank.size(); ++raw) {
        if (rank[raw] != unused)
            named.emplace_back(tapName(TapId::fromRaw(raw)), raw);
    }
    std::sort(named.begin(), named.end());
    for (auto &[name, raw] : named) {
        rank[raw] = static_cast<std::uint32_t>(g.names.size());
        g.names.push_back(std::move(name));
    }
    for (CausalGraph::Node &n : g.nodes)
        n.name = rank[n.name];
    for (CausalGraph::Edge &e : g.edges)
        e.name = rank[e.name];

    // Token order is stamping order. Re-sort edges by payload so
    // downstream consumers (critical-path tie-breaks, incident JSON)
    // depend only on what was recorded.
    std::sort(g.edges.begin(), g.edges.end(),
              [](const CausalGraph::Edge &a,
                 const CausalGraph::Edge &b) {
                  return std::tie(a.out, a.in, a.name, a.fromTrack,
                                  a.toTrack) <
                         std::tie(b.out, b.in, b.name, b.fromTrack,
                                  b.toTrack);
              });
    return g;
}

} // namespace

CausalGraph
buildCausalGraph(const TraceSink &sink, std::uint64_t mark)
{
    return buildGraphImpl([&](auto &&fn) {
        sink.forEachSince(mark, fn);
    });
}

CausalGraph
buildCausalGraphFromRecords(const TraceRecord *records,
                            std::size_t count)
{
    return buildGraphImpl([&](auto &&fn) {
        for (std::size_t i = 0; i < count; ++i)
            fn(records[i]);
    });
}

std::string
CriticalPath::render() const
{
    char head[128];
    std::snprintf(head, sizeof(head),
                  "critical path: span=%llu cy attributed=%llu cy "
                  "unattributed=%llu cy\n",
                  static_cast<unsigned long long>(span),
                  static_cast<unsigned long long>(attributed),
                  static_cast<unsigned long long>(unattributed()));
    std::string out = head;
    for (const CriticalPathStep &s : steps) {
        char cpu[16] = "";
        if (s.track != noTrack) {
            std::snprintf(cpu, sizeof(cpu), "cpu%u ",
                          static_cast<unsigned>(s.track));
        }
        char buf[192];
        std::snprintf(buf, sizeof(buf),
                      "  %s %s%-32s [%llu..%llu] +%llu cy\n",
                      s.isEdge ? "~>" : "  ", cpu, s.name.c_str(),
                      static_cast<unsigned long long>(s.t0),
                      static_cast<unsigned long long>(s.t1),
                      static_cast<unsigned long long>(s.t1 - s.t0));
        out += buf;
    }
    return out;
}

CriticalPath
extractCriticalPath(const CausalGraph &g)
{
    CriticalPath path;
    if (g.nodes.empty())
        return path;

    // Whether node a finishes after node b; on equal end times the
    // innermost (shortest) wins, then the lower name, deterministically.
    auto later = [&g](std::size_t a, int b) {
        const CausalGraph::Node &x = g.nodes[a];
        const CausalGraph::Node &y = g.nodes[static_cast<std::size_t>(b)];
        return std::tuple(x.t1, y.t1 - y.t0, y.name) >
               std::tuple(y.t1, x.t1 - x.t0, x.name);
    };

    // The operation ends where the last span ends.
    int cur = 0;
    for (std::size_t i = 1; i < g.nodes.size(); ++i) {
        if (later(i, cur))
            cur = static_cast<int>(i);
    }

    // (node, edge) for every edge that delivers into a node, so a
    // node's incoming edges are one run, in edge order.
    std::vector<std::pair<int, std::size_t>> into;
    for (std::size_t e = 0; e < g.edges.size(); ++e) {
        if (g.edges[e].toNode >= 0)
            into.emplace_back(g.edges[e].toNode, e);
    }
    std::sort(into.begin(), into.end());

    std::vector<CriticalPathStep> rev;
    // A span may receive an edge from itself or from a span already
    // on the path (an intra-span LR hand-off, a ring of wakeups);
    // walking into one again would cycle until the guard. Visit each
    // node at most once.
    std::vector<char> seen(g.nodes.size(), 0);
    seen[static_cast<std::size_t>(cur)] = 1;
    for (int guard = 0; cur >= 0 && guard < 256; ++guard) {
        const CausalGraph::Node &n =
            g.nodes[static_cast<std::size_t>(cur)];
        rev.push_back(
            CriticalPathStep{g.names[n.name], n.track, n.t0, n.t1, false});

        // Prefer hopping through the causal edge that delivered
        // work into this span: continue on the originating track.
        int bestEdge = -1;
        for (auto it = std::lower_bound(into.begin(), into.end(),
                                        std::pair<int, std::size_t>{cur, 0});
             it != into.end() && it->first == cur; ++it) {
            const std::size_t e = it->second;
            const CausalGraph::Edge &ed = g.edges[e];
            if (ed.fromNode >= 0 &&
                seen[static_cast<std::size_t>(ed.fromNode)])
                continue;
            if (bestEdge < 0 ||
                ed.in > g.edges[static_cast<std::size_t>(bestEdge)]
                            .in) {
                bestEdge = static_cast<int>(e);
            }
        }
        if (bestEdge >= 0) {
            const CausalGraph::Edge &ed =
                g.edges[static_cast<std::size_t>(bestEdge)];
            rev.push_back(CriticalPathStep{g.names[ed.name], ed.toTrack,
                                           ed.out, ed.in, true});
            cur = ed.fromNode;
            if (cur >= 0)
                seen[static_cast<std::size_t>(cur)] = 1;
            continue;
        }

        // Otherwise: latest-finishing predecessor on the same track.
        int prev = -1;
        for (std::size_t j = 0; j < g.nodes.size(); ++j) {
            const CausalGraph::Node &p = g.nodes[j];
            if (p.track == n.track && p.t1 <= n.t0 && !seen[j] &&
                (prev < 0 || later(j, prev))) {
                prev = static_cast<int>(j);
            }
        }
        cur = prev;
        if (cur >= 0)
            seen[static_cast<std::size_t>(cur)] = 1;
    }

    std::reverse(rev.begin(), rev.end());
    path.steps = std::move(rev);
    for (const CriticalPathStep &s : path.steps)
        path.attributed += s.t1 >= s.t0 ? s.t1 - s.t0 : 0;
    path.span = path.steps.back().t1 - path.steps.front().t0;
    return path;
}

} // namespace virtsim
