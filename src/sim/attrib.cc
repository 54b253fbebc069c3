#include "sim/attrib.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <tuple>

#include "sim/log.hh"

namespace virtsim {

namespace {

std::string
fmtRow(const char *name, std::uint64_t cycles, std::uint64_t count)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-32s %12llu cy %10llu x\n",
                  name, static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(count));
    return buf;
}

} // namespace

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
    std::vector<const BlameTerm *> ranked;
    ranked.reserve(terms.size());
    for (const BlameTerm &t : terms)
        ranked.push_back(&t);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const BlameTerm *a, const BlameTerm *b) {
                         if (a->cycles != b->cycles)
                             return a->cycles > b->cycles;
                         return a->name < b->name;
                     });
    for (const BlameTerm *t : ranked)
        out += fmtRow(t->name.c_str(), t->cycles, t->count);
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
    std::map<std::string, DiffRow> merged;
    for (const BlameTerm &t : a.terms) {
        DiffRow &r = merged[t.name];
        r.name = t.name;
        r.a = t.cycles;
    }
    for (const BlameTerm &t : b.terms) {
        DiffRow &r = merged[t.name];
        r.name = t.name;
        r.b = t.cycles;
    }
    for (auto &[name, row] : merged)
        d.rows.push_back(row);
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

CausalAnalyzer::Track &
CausalAnalyzer::track(std::uint16_t id)
{
    return tracks[id];
}

void
CausalAnalyzer::onTraceRecord(const TraceRecord &r)
{
    switch (r.kind) {
      case TraceKind::Begin:
        track(r.track).opens.push_back(
            Open{r.tap.raw(), r.when, r.arg});
        return;
      case TraceKind::End:
        completeSpan(track(r.track), r);
        return;
      case TraceKind::EdgeOut:
        outstanding[r.arg] = EdgeOrigin{r.when, r.tap.raw()};
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
        // LR write-to-ack, wire delay, wakeup queueing).
        const Cycles flight =
            r.when >= it->second.when ? r.when - it->second.when : 0;
        BlameTerm &term = blame[r.tap.raw()];
        term.cycles += flight;
        term.count += 1;
        // In-flight time is not on any span stack; surface it in the
        // flamegraph as a root-level frame so edge-dominated worlds
        // (device wires, vIRQ delivery) still produce folds.
        Fold &cell = folded[std::vector<std::uint32_t>{r.tap.raw()}];
        cell.cycles += flight;
        cell.count += 1;
        ++_edgesLinked;
        outstanding.erase(it);
        return;
      }
      case TraceKind::Instant:
        return; // point events carry no duration to attribute
    }
}

void
CausalAnalyzer::completeSpan(Track &tr, const TraceRecord &r)
{
    // Match the innermost open Begin with the same tap.
    const std::uint32_t tap = r.tap.raw();
    auto open = tr.opens.end();
    for (auto it = tr.opens.rbegin(); it != tr.opens.rend(); ++it) {
        if (it->tap == tap) {
            open = std::next(it).base();
            break;
        }
    }
    if (open == tr.opens.end()) {
        ++_unmatched;
        return;
    }

    Span s;
    s.tap = tap;
    s.t0 = open->t0;
    s.t1 = r.when;
    s.self = s.t1 >= s.t0 ? s.t1 - s.t0 : 0;
    tr.opens.erase(open);

    // Containment parenting: children were emitted (and completed)
    // before this span and lie inside its interval — consume them,
    // subtracting their duration from our self time and folding
    // their stacks under ours.
    for (auto it = tr.pending.begin(); it != tr.pending.end();) {
        if (it->t0 >= s.t0 && it->t1 <= s.t1) {
            const Cycles dur =
                it->t1 >= it->t0 ? it->t1 - it->t0 : 0;
            s.self = s.self > dur ? s.self - dur : 0;
            std::vector<std::uint32_t> path{it->tap};
            Fold &leaf = s.frags[path];
            leaf.cycles += it->self;
            leaf.count += 1;
            for (auto &[sub, f] : it->frags) {
                path.resize(1);
                path.insert(path.end(), sub.begin(), sub.end());
                Fold &cell = s.frags[path];
                cell.cycles += f.cycles;
                cell.count += f.count;
            }
            it = tr.pending.erase(it);
        } else {
            ++it;
        }
    }

    BlameTerm &term = blame[tap];
    term.cycles += s.self;
    term.count += 1;

    if (r.cat == TraceCat::Op) {
        // Guest-visible operations never nest; finalize immediately
        // so the pending window stays small across long runs.
        ++_operations;
        finalizeRoot(s);
        return;
    }

    tr.pending.push_back(std::move(s));
    if (tr.pending.size() > pendingCap)
        flushTrack(tr, pendingCap / 2);
}

void
CausalAnalyzer::finalizeRoot(const Span &s)
{
    std::vector<std::uint32_t> path{s.tap};
    Fold &leaf = folded[path];
    leaf.cycles += s.self;
    leaf.count += 1;
    for (const auto &[sub, f] : s.frags) {
        path.resize(1);
        path.insert(path.end(), sub.begin(), sub.end());
        Fold &cell = folded[path];
        cell.cycles += f.cycles;
        cell.count += f.count;
    }
}

void
CausalAnalyzer::flushTrack(Track &tr, std::size_t keep)
{
    while (tr.pending.size() > keep) {
        finalizeRoot(tr.pending.front());
        tr.pending.erase(tr.pending.begin());
    }
}

void
CausalAnalyzer::flushAll()
{
    for (auto &[id, tr] : tracks)
        flushTrack(tr, 0);
}

BlameReport
CausalAnalyzer::report(const TraceSink *sink)
{
    flushAll();
    BlameReport rep;
    rep.label = _label;
    rep.operations = _operations;
    rep.edgesLinked = _edgesLinked;
    rep.edgesDangling = _edgesDangling + outstanding.size();
    rep.truncatedSpans = sink ? sink->truncatedSpans() : 0;
    for (const auto &[raw, term] : blame) {
        BlameTerm t = term;
        t.name = tapName(TapId::fromRaw(raw));
        rep.terms.push_back(std::move(t));
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
    flushAll();
    std::vector<std::string> lines;
    lines.reserve(folded.size());
    for (const auto &[path, f] : folded) {
        std::string line = root;
        for (std::uint32_t raw : path) {
            if (!line.empty())
                line += ";";
            line += tapName(TapId::fromRaw(raw));
        }
        line += ' ';
        line += std::to_string(f.cycles);
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
    folded.clear();
    _operations = 0;
    _edgesLinked = 0;
    _edgesDangling = 0;
    _unmatched = 0;
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

    forEach([&](const TraceRecord &r) {
        switch (r.kind) {
          case TraceKind::Begin:
            opens.push_back(OpenRec{r.tap.raw(), r.track, r.when});
            break;
          case TraceKind::End: {
            for (auto it = opens.rbegin(); it != opens.rend(); ++it) {
                if (it->tap == r.tap.raw() &&
                    it->track == r.track) {
                    CausalGraph::Node n;
                    n.name = tapName(r.tap);
                    n.track = r.track;
                    n.t0 = it->t0;
                    n.t1 = r.when;
                    g.nodes.push_back(std::move(n));
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
        e.name = tapName(TapId::fromRaw(out.tap));
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
        char buf[192];
        if (s.track == noTrack) {
            std::snprintf(buf, sizeof(buf),
                          "  %s %-32s [%llu..%llu] +%llu cy\n",
                          s.isEdge ? "~>" : "  ", s.name.c_str(),
                          static_cast<unsigned long long>(s.t0),
                          static_cast<unsigned long long>(s.t1),
                          static_cast<unsigned long long>(s.t1 -
                                                          s.t0));
        } else {
            std::snprintf(buf, sizeof(buf),
                          "  %s cpu%u %-32s [%llu..%llu] +%llu cy\n",
                          s.isEdge ? "~>" : "  ",
                          static_cast<unsigned>(s.track),
                          s.name.c_str(),
                          static_cast<unsigned long long>(s.t0),
                          static_cast<unsigned long long>(s.t1),
                          static_cast<unsigned long long>(s.t1 -
                                                          s.t0));
        }
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

    // The operation ends where the last span ends; among spans tied
    // on end time prefer the innermost (shortest), deterministically.
    int cur = -1;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        const CausalGraph::Node &n = g.nodes[i];
        if (cur < 0) {
            cur = static_cast<int>(i);
            continue;
        }
        const CausalGraph::Node &b =
            g.nodes[static_cast<std::size_t>(cur)];
        const Cycles nd = n.t1 - n.t0;
        const Cycles bd = b.t1 - b.t0;
        if (n.t1 > b.t1 || (n.t1 == b.t1 && nd < bd) ||
            (n.t1 == b.t1 && nd == bd && n.name < b.name)) {
            cur = static_cast<int>(i);
        }
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
            CriticalPathStep{n.name, n.track, n.t0, n.t1, false});

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
            rev.push_back(CriticalPathStep{ed.name, ed.toTrack,
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
            if (p.track != n.track || p.t1 > n.t0 || seen[j]) {
                continue;
            }
            if (prev < 0) {
                prev = static_cast<int>(j);
                continue;
            }
            const CausalGraph::Node &b =
                g.nodes[static_cast<std::size_t>(prev)];
            const Cycles pd = p.t1 - p.t0;
            const Cycles bd = b.t1 - b.t0;
            if (p.t1 > b.t1 || (p.t1 == b.t1 && pd < bd) ||
                (p.t1 == b.t1 && pd == bd && p.name < b.name)) {
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
