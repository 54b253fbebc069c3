/**
 * @file
 * Tests for the causal attribution engine (sim/attrib): cross-CPU
 * edge linking, critical-path extraction on a hand-built trace with
 * known blame totals, differential report sign and ordering, the
 * Table III exactness contract, byte-identical reports across sweep
 * widths, the graph builder's span lookups against an all-pairs
 * reference, and the streaming analyzer against the map-based one it
 * replaced.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/hypercall_breakdown.hh"
#include "core/microbench.hh"
#include "core/testbed.hh"
#include "sim/attrib.hh"
#include "sim/sweep.hh"

using namespace virtsim;

TEST(CausalAnalyzer, HandBuiltTwoCpuTraceHasKnownBlameAndPath)
{
    // Track 0 runs a root span with one child; the child's completion
    // launches work onto track 1 through a causal edge:
    //
    //   cpu0: root  [100......................200]
    //   cpu0:    child [120..150]
    //   cpu0:              `~~ edge (20 cy) ~~.
    //   cpu1:                            remote [170........260]
    const TapId root = internTap("attrib.test.root");
    const TapId child = internTap("attrib.test.child");
    const TapId remote = internTap("attrib.test.remote");

    TraceSink sink;
    CausalAnalyzer an("hand-built");
    sink.setObserver(&an);
    sink.enable();

    sink.begin(100, root, TraceCat::Switch, 0);
    sink.begin(120, child, TraceCat::Switch, 0);
    sink.end(150, child, TraceCat::Switch, 0);
    const std::uint64_t token =
        sink.edgeOut(150, edgeIpiTap(), TraceCat::Irq, 0);
    EXPECT_NE(token, 0u);
    sink.end(200, root, TraceCat::Switch, 0);
    sink.edgeIn(170, token, edgeIpiTap(), TraceCat::Irq, 1);
    sink.span(170, 260, remote, TraceCat::Switch, 1);

    const BlameReport rep = an.report(&sink);
    // Self times: child 30, root 100 - 30 = 70, remote 90, the IPI
    // flight 20 — exact, no heuristics.
    ASSERT_NE(rep.find("attrib.test.child"), nullptr);
    EXPECT_EQ(rep.find("attrib.test.child")->cycles, 30u);
    EXPECT_EQ(rep.find("attrib.test.root")->cycles, 70u);
    EXPECT_EQ(rep.find("attrib.test.remote")->cycles, 90u);
    ASSERT_NE(rep.find("edge.ipi"), nullptr);
    EXPECT_EQ(rep.find("edge.ipi")->cycles, 20u);
    EXPECT_EQ(rep.edgesLinked, 1u);
    EXPECT_EQ(rep.edgesDangling, 0u);
    EXPECT_EQ(rep.truncatedSpans, 0u);

    // The post-hoc graph parents child under root and anchors the
    // edge child -> remote; the critical path walks remote back over
    // the edge onto cpu0, covering the window completely.
    const CausalGraph g = buildCausalGraph(sink);
    ASSERT_EQ(g.nodes.size(), 3u);
    ASSERT_EQ(g.edges.size(), 1u);
    EXPECT_EQ(g.edges[0].fromTrack, 0);
    EXPECT_EQ(g.edges[0].toTrack, 1);
    EXPECT_GE(g.edges[0].fromNode, 0);
    EXPECT_GE(g.edges[0].toNode, 0);

    const CriticalPath path = extractCriticalPath(g);
    ASSERT_EQ(path.steps.size(), 3u);
    EXPECT_EQ(path.steps[0].name, "attrib.test.child");
    EXPECT_TRUE(path.steps[1].isEdge);
    EXPECT_EQ(path.steps[1].name, "edge.ipi");
    EXPECT_EQ(path.steps[2].name, "attrib.test.remote");
    EXPECT_EQ(path.span, 140u);       // 260 - 120
    EXPECT_EQ(path.attributed, 140u); // 30 + 20 + 90
    EXPECT_EQ(path.unattributed(), 0u);
    EXPECT_NE(path.render().find("~>"), std::string::npos);
}

TEST(CausalAnalyzer, VirtualIpiLinksCrossCpuEdges)
{
    // A live virtual IPI on KVM ARM: the physical IPI (send ->
    // delivery) and the LR write -> guest ack must both pair up, and
    // the op envelope must finalize.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    CausalAnalyzer &an = tb.attribution();
    tb.beginRun();

    const Cycles t0 = std::max(tb.queue().now(), tb.frontier(0));
    bool done = false;
    tb.hypervisor()->virtualIpi(t0, tb.guest()->vcpu(0),
                                tb.guest()->vcpu(1),
                                [&done](Cycles) { done = true; });
    tb.run();
    ASSERT_TRUE(done);

    const BlameReport rep = an.report(&tb.trace());
    EXPECT_GE(rep.operations, 1u);
    EXPECT_GE(rep.edgesLinked, 2u); // edge.ipi + edge.lr at least
    const BlameTerm *ipi = rep.find("edge.ipi");
    ASSERT_NE(ipi, nullptr);
    EXPECT_GE(ipi->count, 1u);
    const BlameTerm *lr = rep.find("edge.lr");
    ASSERT_NE(lr, nullptr);
    EXPECT_GE(lr->count, 1u);
    const BlameTerm *op = rep.find("op.vipi");
    ASSERT_NE(op, nullptr);
    EXPECT_EQ(op->count, 1u);
}

TEST(CausalAnalyzer, BlameReproducesTableThreeExactly)
{
    // The streaming analyzer and the direct trace-record aggregation
    // must attribute identical per-class cycles to the same
    // hypercall — the Table III contract.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    CausalAnalyzer &an = tb.attribution();
    const HypercallBreakdown b = measureHypercallBreakdown(tb);
    const BlameReport rep = an.report(&tb.trace());

    ASSERT_FALSE(b.rows.empty());
    for (const auto &row : b.rows) {
        const BlameTerm *s =
            rep.find("ws.save." + to_string(row.cls));
        const BlameTerm *r =
            rep.find("ws.restore." + to_string(row.cls));
        ASSERT_NE(s, nullptr) << to_string(row.cls);
        ASSERT_NE(r, nullptr) << to_string(row.cls);
        EXPECT_EQ(s->cycles, row.save) << to_string(row.cls);
        EXPECT_EQ(r->cycles, row.restore) << to_string(row.cls);
    }
    // The published headline number.
    const BlameTerm *vgic = rep.find("ws.save.VGIC Regs");
    ASSERT_NE(vgic, nullptr);
    EXPECT_EQ(vgic->cycles, 3250u);
    // Every cycle of the operation lands in some term: op envelope
    // self + children sum to the measured hypercall.
    EXPECT_EQ(rep.attributed(), b.hypercallCycles);
}

TEST(DiffReport, SignAndOrderingAreExact)
{
    BlameReport a, b;
    a.label = "A";
    b.label = "B";
    a.terms = {{"x.big", 1000, 1}, {"x.equal", 50, 1},
               {"x.small", 10, 1}};
    b.terms = {{"x.big", 100, 1}, {"x.equal", 50, 1},
               {"x.only_b", 400, 1}};

    const DiffReport d = diffBlame(a, b);
    ASSERT_EQ(d.rows.size(), 4u);
    // Rows ranked by signed delta, largest A-excess first; terms
    // missing on one side contribute zero there.
    EXPECT_EQ(d.rows[0].name, "x.big");
    EXPECT_EQ(d.rows[0].delta(), 900);
    EXPECT_EQ(d.rows[1].name, "x.small");
    EXPECT_EQ(d.rows[1].delta(), 10);
    EXPECT_EQ(d.rows[2].name, "x.equal");
    EXPECT_EQ(d.rows[2].delta(), 0);
    EXPECT_EQ(d.rows[3].name, "x.only_b");
    EXPECT_EQ(d.rows[3].delta(), -400);
    ASSERT_NE(d.top(), nullptr);
    EXPECT_EQ(d.top()->name, "x.big");
    EXPECT_NE(d.render().find("why is A slower than B"),
              std::string::npos);
}

TEST(DiffReport, VheDifferentialNamesSaveRestoreElimination)
{
    // Section VI machine-checked: diffing KVM ARM against VHE on the
    // same hypercall must rank a world-switch save/restore term as
    // the top A-excess — VHE's win is eliminating state movement.
    auto blame_for = [](SutKind kind) {
        TestbedConfig tc;
        tc.kind = kind;
        Testbed tb(tc);
        CausalAnalyzer &an = tb.attribution();
        an.setLabel(to_string(kind));
        measureHypercallBreakdown(tb);
        return an.report(&tb.trace());
    };
    const BlameReport arm = blame_for(SutKind::KvmArm);
    const BlameReport vhe = blame_for(SutKind::KvmArmVhe);
    const DiffReport d = diffBlame(arm, vhe);
    ASSERT_NE(d.top(), nullptr);
    EXPECT_GT(d.top()->delta(), 0);
    EXPECT_EQ(d.top()->name.rfind("ws.", 0), 0u) << d.top()->name;
}

TEST(CausalAnalyzer, ReportsAreIdenticalAcrossSweepWidths)
{
    // Raw TapIds intern in nondeterministic order under parallel
    // sweeps; reports are keyed and sorted by name, so the rendered
    // JSON must come out byte-identical for any VIRTSIM_JOBS width.
    const std::vector<SutKind> kinds = {
        SutKind::KvmArm, SutKind::XenArm, SutKind::KvmX86,
        SutKind::KvmArmVhe};
    auto run_cols = [&kinds](int jobs) {
        return parallelSweepIndexed(
            kinds.size(),
            [&kinds](std::size_t i) {
                TestbedConfig tc;
                tc.kind = kinds[i];
                Testbed tb(tc);
                CausalAnalyzer &an = tb.attribution();
                an.setLabel(to_string(tc.kind));
                MicrobenchSuite suite(tb);
                suite.run(MicroOp::Hypercall, 10);
                suite.run(MicroOp::VirtualIpi, 10);
                return an.report(&tb.trace()).toJson();
            },
            jobs);
    };
    const auto serial = run_cols(1);
    const auto wide = run_cols(8);
    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].empty());
        EXPECT_EQ(serial[i], wide[i]) << "column " << i;
    }
}

TEST(CausalAnalyzer, FoldedExportIsSortedAndResetForgets)
{
    const TapId outer = internTap("attrib.test.fold.outer");
    const TapId inner = internTap("attrib.test.fold.inner");
    TraceSink sink;
    CausalAnalyzer an;
    sink.setObserver(&an);
    sink.enable();
    sink.begin(0, outer, TraceCat::Switch, 0);
    sink.span(10, 40, inner, TraceCat::Switch, 0);
    sink.end(100, outer, TraceCat::Switch, 0);

    std::ostringstream os;
    an.writeFolded(os, "sut");
    const std::string folded = os.str();
    // Root-prefixed, child stacked under parent, self cycles after
    // the path.
    EXPECT_NE(folded.find("sut;attrib.test.fold.outer 70"),
              std::string::npos);
    EXPECT_NE(folded.find("sut;attrib.test.fold.outer;"
                          "attrib.test.fold.inner 30"),
              std::string::npos);

    an.reset();
    const BlameReport rep = an.report();
    EXPECT_TRUE(rep.terms.empty());
    EXPECT_EQ(rep.operations, 0u);
}

// ---------------------------------------------------------------------
// Differential test of the graph builder's span lookups against an
// all-pairs reference.
// ---------------------------------------------------------------------

namespace {

/** The all-pairs reference: the node on @p track containing
 *  [q0, q1], other than @p exclude, with the least duration, the
 *  lowest index on ties; -1 if none. */
int
referenceInnermost(const std::vector<CausalGraph::Node> &nodes,
                   std::uint16_t track, Cycles q0, Cycles q1, int exclude)
{
    int best = -1;
    Cycles bestDur = 0;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const CausalGraph::Node &n = nodes[i];
        if (static_cast<int>(i) == exclude || n.track != track ||
            n.t0 > q0 || n.t1 < q1) {
            continue;
        }
        const Cycles dur = n.t1 - n.t0;
        if (best < 0 || dur < bestDur) {
            best = static_cast<int>(i);
            bestDur = dur;
        }
    }
    return best;
}

/**
 * A seeded random record stream: nested, overlapping, identical and
 * zero-length spans on several tracks (noTrack among them), and edges
 * that are linked, self-directed (out and in on one span), dangling
 * (out without in, in without out) or stamped twice, stamped mostly
 * on span boundaries.
 */
std::vector<TraceRecord>
randomGraphRecords(std::uint64_t seed)
{
    static const TapId taps[] = {internTap("attrib.diff.a"),
                                 internTap("attrib.diff.b"),
                                 internTap("attrib.diff.c")};
    static const std::uint16_t tracks[] = {0, 1, 2, noTrack};
    std::mt19937_64 rng(seed);
    struct Stamp
    {
        TraceRecord r;
        int order; ///< Begin before End before edges at one instant
    };
    std::vector<Stamp> stamps;
    std::vector<Cycles> bounds;
    auto stamp = [&stamps](Cycles when, std::uint64_t arg, TapId tap,
                           std::uint16_t track, TraceKind kind, int order) {
        stamps.push_back(Stamp{
            TraceRecord{when, arg, tap, track, kind, TraceCat::Switch},
            order});
    };

    struct Span
    {
        Cycles t0, t1;
        TapId tap;
        std::uint16_t track;
    };
    std::vector<Span> spans;
    const int nSpans = 20 + static_cast<int>(rng() % 200);
    for (int i = 0; i < nSpans; ++i) {
        if (!spans.empty() && rng() % 8 == 0) {
            spans.push_back(spans[rng() % spans.size()]); // identical
            continue;
        }
        const Cycles t0 = rng() % 1000;
        const Cycles len = rng() % 6 == 0 ? 0 : rng() % (rng() % 2 ? 30 : 400);
        spans.push_back(Span{t0, t0 + len, taps[rng() % 3],
                             tracks[rng() % 4]});
    }
    for (const Span &sp : spans) {
        stamp(sp.t0, 0, sp.tap, sp.track, TraceKind::Begin, 0);
        stamp(sp.t1, 0, sp.tap, sp.track, TraceKind::End, 1);
        bounds.push_back(sp.t0);
        bounds.push_back(sp.t1);
    }

    auto edgeTime = [&] {
        return rng() % 2 ? bounds[rng() % bounds.size()] : rng() % 1400;
    };
    const std::uint64_t nEdges = 10 + rng() % 150;
    for (std::uint64_t token = 1; token <= nEdges; ++token) {
        const TapId tap = edgeIpiTap();
        const std::uint64_t shape = rng() % 8;
        if (shape == 0) {
            // A self-edge: out and in inside one span.
            const Span &sp = spans[rng() % spans.size()];
            stamp(sp.t0, token, tap, sp.track, TraceKind::EdgeOut, 2);
            stamp(sp.t1, token, tap, sp.track, TraceKind::EdgeIn, 2);
            continue;
        }
        const Cycles out = edgeTime();
        if (shape != 1) // shape 1: an in with no out
            stamp(out, token, tap, tracks[rng() % 4], TraceKind::EdgeOut, 2);
        if (shape != 2) { // shape 2: an out with no in
            stamp(std::max(out, edgeTime()), token, tap, tracks[rng() % 4],
                  TraceKind::EdgeIn, 2);
        }
        if (shape == 3) { // one half stamped a second time
            stamp(edgeTime(), token, tap, tracks[rng() % 4],
                  rng() % 2 ? TraceKind::EdgeOut : TraceKind::EdgeIn, 2);
        }
    }

    std::stable_sort(stamps.begin(), stamps.end(),
                     [](const Stamp &a, const Stamp &b) {
                         return std::tie(a.r.when, a.order) <
                                std::tie(b.r.when, b.order);
                     });
    std::vector<TraceRecord> records;
    for (const Stamp &s : stamps)
        records.push_back(s.r);
    return records;
}

} // namespace

TEST(CausalGraph, SpanLookupsMatchAllPairsReference)
{
    std::size_t parented = 0, anchored = 0;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const std::vector<TraceRecord> records = randomGraphRecords(seed);
        const CausalGraph g =
            buildCausalGraphFromRecords(records.data(), records.size());
        ASSERT_FALSE(g.nodes.empty()) << "seed " << seed;
        // Each token's halves as the stream leaves them: the last
        // stamp wins.
        std::map<std::uint64_t, const TraceRecord *> outs, ins;
        for (const TraceRecord &r : records) {
            if (r.kind == TraceKind::EdgeOut)
                outs[r.arg] = &r;
            else if (r.kind == TraceKind::EdgeIn)
                ins[r.arg] = &r;
        }
        ASSERT_EQ(g.edges.size(), outs.size()) << "seed " << seed;

        std::vector<bool> leaf(g.nodes.size(), true);
        for (std::size_t i = 0; i < g.nodes.size(); ++i) {
            const CausalGraph::Node &n = g.nodes[i];
            const int want = referenceInnermost(
                g.nodes, n.track, n.t0, n.t1, static_cast<int>(i));
            ASSERT_EQ(n.parent, want) << "seed " << seed << " node " << i;
            if (want >= 0) {
                leaf[static_cast<std::size_t>(want)] = false;
                ++parented;
            }
        }
        for (std::size_t i = 0; i < g.nodes.size(); ++i)
            ASSERT_EQ(g.nodes[i].leaf, leaf[i]) << "seed " << seed;

        for (const CausalGraph::Edge &e : g.edges) {
            ASSERT_TRUE(outs.count(e.token)) << "seed " << seed;
            const TraceRecord &out = *outs[e.token];
            ASSERT_EQ(e.out, out.when) << "seed " << seed;
            ASSERT_EQ(e.fromTrack, out.track) << "seed " << seed;
            ASSERT_EQ(e.fromNode, referenceInnermost(g.nodes, out.track,
                                                     out.when, out.when, -1))
                << "seed " << seed << " token " << e.token;
            const auto in = ins.find(e.token);
            if (in == ins.end()) {
                ASSERT_EQ(e.toNode, -1) << "seed " << seed;
                continue;
            }
            ASSERT_EQ(e.in, in->second->when) << "seed " << seed;
            ASSERT_EQ(e.toTrack, in->second->track) << "seed " << seed;
            ASSERT_EQ(e.toNode,
                      referenceInnermost(g.nodes, e.toTrack, e.in, e.in, -1))
                << "seed " << seed << " token " << e.token;
            anchored += e.fromNode >= 0;
        }
        // The walk over these graphs must terminate and stay inside
        // them, self-edges and dangling edges included.
        const CriticalPath path = extractCriticalPath(g);
        EXPECT_FALSE(path.steps.empty());
    }
    // Enough parents and anchored edges occurred for the comparison
    // to mean something.
    EXPECT_GT(parented, 1000u);
    EXPECT_GT(anchored, 1000u);
}

// ---------------------------------------------------------------------
// Differential test of the streaming analyzer against the map-based
// implementation it replaced.
// ---------------------------------------------------------------------

namespace {

/**
 * The map-based streaming analyzer, kept as the reference: per-track
 * maps, blame keyed by raw tap id in a map, folds keyed by whole
 * raw-id stack paths, and every descendant path copied into each
 * parent. Counts how often its pending flush and its edge eviction
 * run, so the test can show its streams reach both.
 */
class MapReferenceAnalyzer
{
  public:
    std::size_t flushes = 0;
    std::size_t evictions = 0;

    void
    onTraceRecord(const TraceRecord &r)
    {
        switch (r.kind) {
          case TraceKind::Begin:
            tracks[r.track].opens.push_back(Open{r.tap.raw(), r.when});
            return;
          case TraceKind::End:
            completeSpan(tracks[r.track], r);
            return;
          case TraceKind::EdgeOut:
            outstanding[r.arg] = EdgeOrigin{r.when, r.tap.raw()};
            if (outstanding.size() > edgeCap) {
                outstanding.erase(outstanding.begin());
                ++edgesDangling;
                ++evictions;
            }
            return;
          case TraceKind::EdgeIn: {
            auto it = outstanding.find(r.arg);
            if (it == outstanding.end()) {
                ++edgesDangling;
                return;
            }
            const Cycles flight =
                r.when >= it->second.when ? r.when - it->second.when : 0;
            BlameTerm &term = blame[r.tap.raw()];
            term.cycles += flight;
            term.count += 1;
            folded[std::vector<std::uint32_t>{r.tap.raw()}] += flight;
            ++edgesLinked;
            outstanding.erase(it);
            return;
          }
          case TraceKind::Instant:
            return;
        }
    }

    BlameReport
    report()
    {
        flushAll();
        BlameReport rep;
        rep.label = "stream";
        rep.operations = operations;
        rep.edgesLinked = edgesLinked;
        rep.edgesDangling = edgesDangling + outstanding.size();
        for (const auto &[raw, term] : blame) {
            BlameTerm t = term;
            t.name = tapName(TapId::fromRaw(raw));
            rep.terms.push_back(std::move(t));
        }
        std::sort(rep.terms.begin(), rep.terms.end(),
                  [](const BlameTerm &a, const BlameTerm &b) {
                      return a.name < b.name;
                  });
        return rep;
    }

    std::string
    writeFolded(const std::string &root)
    {
        flushAll();
        std::vector<std::string> lines;
        for (const auto &[path, cycles] : folded) {
            std::string line = root;
            for (std::uint32_t raw : path) {
                if (!line.empty())
                    line += ";";
                line += tapName(TapId::fromRaw(raw));
            }
            line += ' ';
            line += std::to_string(cycles);
            lines.push_back(std::move(line));
        }
        std::sort(lines.begin(), lines.end());
        std::string out;
        for (const std::string &line : lines)
            out += line + "\n";
        return out;
    }

  private:
    using FoldMap = std::map<std::vector<std::uint32_t>, Cycles>;

    struct Span
    {
        std::uint32_t tap = 0;
        Cycles t0 = 0;
        Cycles t1 = 0;
        Cycles self = 0;
        FoldMap frags;
    };

    struct Open
    {
        std::uint32_t tap = 0;
        Cycles t0 = 0;
    };

    struct Track
    {
        std::vector<Open> opens;
        std::vector<Span> pending;
    };

    struct EdgeOrigin
    {
        Cycles when = 0;
        std::uint32_t tap = 0;
    };

    static constexpr std::size_t pendingCap = 96;
    static constexpr std::size_t edgeCap = 4096;

    void
    completeSpan(Track &tr, const TraceRecord &r)
    {
        const std::uint32_t tap = r.tap.raw();
        auto open = tr.opens.end();
        for (auto it = tr.opens.rbegin(); it != tr.opens.rend(); ++it) {
            if (it->tap == tap) {
                open = std::next(it).base();
                break;
            }
        }
        if (open == tr.opens.end())
            return;

        Span s;
        s.tap = tap;
        s.t0 = open->t0;
        s.t1 = r.when;
        s.self = s.t1 >= s.t0 ? s.t1 - s.t0 : 0;
        tr.opens.erase(open);

        for (auto it = tr.pending.begin(); it != tr.pending.end();) {
            if (it->t0 >= s.t0 && it->t1 <= s.t1) {
                const Cycles dur = it->t1 >= it->t0 ? it->t1 - it->t0 : 0;
                s.self = s.self > dur ? s.self - dur : 0;
                std::vector<std::uint32_t> path{it->tap};
                s.frags[path] += it->self;
                for (auto &[sub, cycles] : it->frags) {
                    path.resize(1);
                    path.insert(path.end(), sub.begin(), sub.end());
                    s.frags[path] += cycles;
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
            ++operations;
            finalizeRoot(s);
            return;
        }
        tr.pending.push_back(std::move(s));
        if (tr.pending.size() > pendingCap) {
            ++flushes;
            flushTrack(tr, pendingCap / 2);
        }
    }

    void
    finalizeRoot(const Span &s)
    {
        std::vector<std::uint32_t> path{s.tap};
        folded[path] += s.self;
        for (const auto &[sub, cycles] : s.frags) {
            path.resize(1);
            path.insert(path.end(), sub.begin(), sub.end());
            folded[path] += cycles;
        }
    }

    void
    flushTrack(Track &tr, std::size_t keep)
    {
        while (tr.pending.size() > keep) {
            finalizeRoot(tr.pending.front());
            tr.pending.erase(tr.pending.begin());
        }
    }

    void
    flushAll()
    {
        for (auto &[id, tr] : tracks)
            flushTrack(tr, 0);
    }

    std::map<std::uint16_t, Track> tracks;
    std::map<std::uint64_t, EdgeOrigin> outstanding;
    std::map<std::uint32_t, BlameTerm> blame;
    FoldMap folded;
    std::uint64_t operations = 0;
    std::uint64_t edgesLinked = 0;
    std::uint64_t edgesDangling = 0;
};

/**
 * A seeded random record stream for the streaming analyzer: nested,
 * overlapping, identical and zero-length spans on several tracks
 * (noTrack among them), Op envelopes, Begins with no End and Ends
 * with no Begin, instants, spans and edge origins emitted after their
 * time, and edges that are linked, dangling, stamped twice, or arrive
 * out of token order. Every third seed adds
 * a span enclosing 100-300 children on one track, past the pending
 * cap; every fourth adds a burst of over 4,096 outstanding edges,
 * past the edge cap.
 */
std::vector<TraceRecord>
randomStreamRecords(std::uint64_t seed)
{
    static const TapId taps[] = {
        internTap("attrib.stream.a"), internTap("attrib.stream.b"),
        internTap("attrib.stream.c"), internTap("attrib.stream.d"),
        internTap("attrib.stream.op")};
    static const TapId edgeTaps[] = {edgeIpiTap(), edgeLrTap(),
                                     edgeWireTap()};
    static const std::uint16_t tracks[] = {0, 1, 2, 7, noTrack};
    std::mt19937_64 rng(seed);
    auto pick = [&rng](std::size_t n) {
        return static_cast<std::size_t>(rng() % n);
    };
    struct Stamp
    {
        TraceRecord r;
        Cycles at;  ///< when it is emitted: its time, or later
        int order;  ///< Begin before End before edges at one instant
    };
    std::vector<Stamp> stamps;
    auto stamp = [&stamps](Cycles when, std::uint64_t arg, TapId tap,
                           std::uint16_t track, TraceKind kind,
                           TraceCat cat, int order, Cycles late = 0) {
        stamps.push_back(Stamp{TraceRecord{when, arg, tap, track, kind, cat},
                               when + late, order});
    };

    struct Span
    {
        Cycles t0, t1;
        TapId tap;
        std::uint16_t track;
        TraceCat cat;
    };
    std::vector<Span> spans;
    const std::size_t nSpans = 30 + pick(300);
    for (std::size_t i = 0; i < nSpans; ++i) {
        const std::size_t shape = pick(8);
        if (!spans.empty() && shape == 0) {
            spans.push_back(spans[pick(spans.size())]); // identical
        } else if (!spans.empty() && shape <= 3) {
            // Nested inside an earlier span, mostly on its track.
            const Span &outer = spans[pick(spans.size())];
            const Cycles t0 = outer.t0 + pick(outer.t1 - outer.t0 + 1);
            spans.push_back(Span{t0, t0 + pick(outer.t1 - t0 + 1),
                                 taps[pick(4)],
                                 pick(6) ? outer.track : tracks[pick(5)],
                                 TraceCat::Switch});
        } else {
            const Cycles t0 = pick(2000);
            const Cycles len =
                pick(6) == 0 ? 0 : pick(pick(2) ? 30 : 400);
            spans.push_back(Span{t0, t0 + len, taps[pick(5)],
                                 tracks[pick(5)],
                                 pick(8) == 0 ? TraceCat::Op
                                              : TraceCat::Switch});
        }
    }
    if (seed % 3 == 0) {
        // One envelope over more children than the pending cap holds;
        // some children have a zero-length child of their own.
        const std::uint16_t track = tracks[pick(5)];
        const std::size_t kids = 100 + pick(200);
        const Cycles base = 3000;
        spans.push_back(Span{base, base + 4 * kids + 4, taps[pick(5)], track,
                             pick(2) ? TraceCat::Op : TraceCat::Switch});
        for (std::size_t k = 0; k < kids; ++k) {
            const Cycles t0 = base + 4 * k + 1;
            spans.push_back(
                Span{t0, t0 + 2, taps[pick(4)], track, TraceCat::Switch});
            if (pick(3) == 0) {
                spans.push_back(Span{t0 + 1, t0 + 1, taps[pick(4)], track,
                                     TraceCat::Switch});
            }
        }
    }
    for (const Span &sp : spans) {
        // One span in four is emitted whole once it is over, as
        // TraceSink::span() does: its Begin comes out of time order.
        const Cycles late = pick(4) ? 0 : sp.t1 - sp.t0 + pick(50);
        stamp(sp.t0, 0, sp.tap, sp.track, TraceKind::Begin, sp.cat, 0, late);
        if (pick(16) != 0) { // else a Begin with no End
            stamp(sp.t1, 0, sp.tap, sp.track, TraceKind::End, sp.cat, 1,
                  late > 0 ? late - (sp.t1 - sp.t0) : 0);
        }
    }
    for (std::size_t i = pick(4); i > 0; --i) {
        // An End with no Begin, and an instant.
        stamp(pick(2000), 0, taps[pick(5)], tracks[pick(5)],
              TraceKind::End, TraceCat::Switch, 1);
        stamp(pick(2000), 0, taps[pick(5)], tracks[pick(5)],
              TraceKind::Instant, TraceCat::Tap, 1);
    }

    // Edges: token order is stamping order only by accident, since
    // each token's out time is random.
    std::uint64_t token = 0;
    for (std::size_t i = 10 + pick(200); i > 0; --i) {
        ++token;
        const TapId tap = edgeTaps[pick(3)];
        const Cycles out = pick(2500);
        const Cycles in = pick(4) ? out + pick(300) : pick(2500);
        const std::size_t shape = pick(8);
        if (shape != 1) // 1: an in with no out
            stamp(out, token, tap, tracks[pick(5)], TraceKind::EdgeOut,
                  TraceCat::Irq, 2, pick(4) ? 0 : pick(100));
        if (shape != 2) { // 2: an out with no in
            stamp(in, token, shape == 4 ? edgeTaps[pick(3)] : tap,
                  tracks[pick(5)], TraceKind::EdgeIn, TraceCat::Irq, 2);
        }
        if (shape == 3) { // one half stamped a second time
            stamp(pick(2500), token, tap, tracks[pick(5)],
                  pick(2) ? TraceKind::EdgeOut : TraceKind::EdgeIn,
                  TraceCat::Irq, 2);
        }
    }
    if (seed % 4 == 1) {
        // More outstanding edges than the cap, their tokens presented
        // out of order (adjacent pairs swapped), then ins for a random
        // subset: the evicted smallest tokens dangle, the rest link.
        const std::size_t burst = 4096 + 50 + pick(400);
        std::vector<std::uint64_t> order(burst);
        for (std::size_t j = 0; j < burst; ++j)
            order[j] = token + 1 + j;
        for (std::size_t j = 0; j + 1 < burst; j += 2) {
            if (pick(2))
                std::swap(order[j], order[j + 1]);
        }
        const Cycles base = 5000;
        for (std::size_t j = 0; j < burst; ++j) {
            stamp(base + j, order[j], edgeWireTap(), tracks[pick(5)],
                  TraceKind::EdgeOut, TraceCat::Io, 2);
            if (pick(3) == 0) {
                stamp(base + burst + pick(burst), order[j], edgeWireTap(),
                      tracks[pick(5)], TraceKind::EdgeIn, TraceCat::Io, 2);
            }
        }
    }

    std::stable_sort(stamps.begin(), stamps.end(),
                     [](const Stamp &a, const Stamp &b) {
                         return std::tie(a.at, a.order) <
                                std::tie(b.at, b.order);
                     });
    std::vector<TraceRecord> records;
    for (const Stamp &s : stamps)
        records.push_back(s.r);
    return records;
}

/** Report JSON and folded bytes of both analyzers over @p records,
 *  with an extra report() halfway through on some seeds (later
 *  records then see the pending spans it flushed as roots). */
void
expectSameAttribution(CausalAnalyzer &an, MapReferenceAnalyzer &ref,
                      const std::vector<TraceRecord> &records,
                      std::uint64_t seed)
{
    const bool midReport = seed % 5 == 2;
    for (std::size_t i = 0; i < records.size(); ++i) {
        if (midReport && i == records.size() / 2) {
            ASSERT_EQ(an.report().toJson(), ref.report().toJson())
                << "seed " << seed << " halfway";
        }
        an.onTraceRecord(records[i]);
        ref.onTraceRecord(records[i]);
    }
    ASSERT_EQ(an.report().toJson(), ref.report().toJson())
        << "seed " << seed;
    const std::string root = seed % 2 ? "sut" : "";
    std::ostringstream folded;
    an.writeFolded(folded, root);
    ASSERT_EQ(folded.str(), ref.writeFolded(root)) << "seed " << seed;
}

} // namespace

TEST(CausalAnalyzer, StreamMatchesMapReference)
{
    std::size_t flushes = 0, evictions = 0, foldedLines = 0;
    for (std::uint64_t seed = 1; seed <= 120; ++seed) {
        const std::vector<TraceRecord> records = randomStreamRecords(seed);
        CausalAnalyzer an("stream");
        MapReferenceAnalyzer ref;
        expectSameAttribution(an, ref, records, seed);
        flushes += ref.flushes;
        evictions += ref.evictions;
        const std::string folded = ref.writeFolded("");
        foldedLines += static_cast<std::size_t>(
            std::count(folded.begin(), folded.end(), '\n'));

        // reset() forgets everything: the same analyzer then matches
        // a fresh reference over another stream alone.
        an.reset();
        const BlameReport empty = an.report();
        EXPECT_TRUE(empty.terms.empty());
        EXPECT_EQ(empty.operations, 0u);
        EXPECT_EQ(empty.edgesLinked, 0u);
        EXPECT_EQ(empty.edgesDangling, 0u);
        std::ostringstream none;
        an.writeFolded(none, "sut");
        EXPECT_TRUE(none.str().empty()) << "seed " << seed;
        MapReferenceAnalyzer fresh;
        expectSameAttribution(an, fresh, randomStreamRecords(seed + 1000),
                              seed + 1000);
    }
    // Both bounded paths ran, and the folds were not trivial.
    EXPECT_GT(flushes, 40u);
    EXPECT_GT(evictions, 1000u);
    EXPECT_GT(foldedLines, 2000u);
}
