/**
 * @file
 * Tests for the structured observability subsystem (sim/probe):
 * tap interning, the ring-buffer trace sink, Chrome-trace/Perfetto
 * export and the metrics registry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <vector>

#include "core/fleet.hh"
#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "sim/probe.hh"
#include "sim/sweep.hh"

// ---------------------------------------------------------------------
// Binary-wide allocation counter. The dead-probe fast path (stamping
// with the sink disabled) must be one predictable branch with zero
// allocations; counting every operator new in this test binary proves
// it without a heap profiler, and keeps working under the sanitizer
// builds (ASan intercepts malloc below this layer).
// ---------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_news{0};

void *
countedAlloc(std::size_t size)
{
    g_news.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace virtsim;

namespace {

/**
 * Minimal JSON well-formedness checker (structure only, no schema):
 * enough to prove the exporter emits something a real parser — and
 * ui.perfetto.dev — will accept.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        pos = 0;
        const bool ok = value();
        skipWs();
        return ok && pos == s.size();
    }

  private:
    bool
    value()
    {
        skipWs();
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{':
            return object();
          case '[':
            return array();
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return false;
            ++pos;
            if (!value())
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != '}')
            return false;
        ++pos;
        return true;
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            if (!value())
                return false;
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= s.size() || s[pos] != ']')
            return false;
        ++pos;
        return true;
    }

    bool
    string()
    {
        if (pos >= s.size() || s[pos] != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
            }
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (pos < s.size() && (s[pos] == '-' || s[pos] == '+'))
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '-' || s[pos] == '+')) {
            ++pos;
        }
        return pos > start;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::string(word).size();
        if (s.compare(pos, n, word) != 0)
            return false;
        pos += n;
        return true;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos]))) {
            ++pos;
        }
    }

    std::string s;
    std::size_t pos = 0;
};

} // namespace

TEST(TapIntern, IdempotentAndUnique)
{
    const TapId a = internTap("probe.test.alpha");
    const TapId b = internTap("probe.test.beta");
    EXPECT_TRUE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_NE(a.raw(), b.raw());
    // Idempotent: same name, same id.
    EXPECT_EQ(internTap("probe.test.alpha"), a);
    EXPECT_EQ(tapName(a), "probe.test.alpha");
    EXPECT_EQ(tapName(TapId()), "?");
}

TEST(TraceSink, RingWrapIsCountedNeverSilent)
{
    const TapId tap = internTap("probe.test.wrap");
    TraceSink sink;
    sink.setCapacity(3); // rounds up to 4
    EXPECT_EQ(sink.capacity(), 4u);
    sink.enable();
    for (Cycles t = 0; t < 10; ++t)
        sink.instant(t, tap, TraceCat::Sched, noTrack, t);
    EXPECT_EQ(sink.total(), 10u);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 6u);
    // The oldest retained record is the 7th written (when == 6).
    EXPECT_EQ(sink.at(0).when, 6u);
    EXPECT_EQ(sink.at(3).when, 9u);

    // The exporter surfaces the loss in the metadata.
    std::ostringstream os;
    writeChromeTrace(os, sink, Frequency(2.4));
    EXPECT_NE(os.str().find("\"droppedRecords\":6"),
              std::string::npos);

    // forEachSince respects a watermark and skips dropped records.
    std::vector<Cycles> seen;
    sink.forEachSince(8, [&seen](const TraceRecord &r) {
        seen.push_back(r.when);
    });
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0], 8u);
    EXPECT_EQ(seen[1], 9u);
}

TEST(TraceSink, NewestDroppedStampTracksTheMaximum)
{
    // Flight-recorder windows judge truncation by the newest stamp the
    // ring overwrote, whatever order the stamps were written in.
    const TapId tap = internTap("probe.test.newest_dropped");
    TraceSink sink;
    sink.setCapacity(4);
    sink.enable();
    for (Cycles t : {50, 900, 10, 20})
        sink.instant(t, tap, TraceCat::Sched);
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(sink.newestDroppedWhen(), 0u);
    sink.instant(30, tap, TraceCat::Sched); // overwrites 50
    EXPECT_EQ(sink.newestDroppedWhen(), 50u);
    sink.instant(40, tap, TraceCat::Sched); // overwrites 900
    EXPECT_EQ(sink.newestDroppedWhen(), 900u);
    sink.instant(60, tap, TraceCat::Sched); // overwrites 10
    EXPECT_EQ(sink.newestDroppedWhen(), 900u);

    sink.clear();
    EXPECT_EQ(sink.newestDroppedWhen(), 0u);
    for (Cycles t : {1, 2, 3, 4, 5})
        sink.instant(t, tap, TraceCat::Sched);
    EXPECT_EQ(sink.newestDroppedWhen(), 1u);

    sink.setCapacity(8);
    EXPECT_EQ(sink.newestDroppedWhen(), 0u);
}

TEST(TraceSink, TruncatedSpansAreCountedNotMispaired)
{
    // When the ring wraps over a span's opening edge (a Begin, or the
    // `from` stamp of a tap pair), post-hoc pairing would silently
    // match the surviving close against a later open. The sink counts
    // each such loss instead.
    const TapId span_tap = internTap("probe.test.trunc.span");
    const TapId pair_tap = internTap("probe.test.trunc.pair");
    const TapId filler = internTap("probe.test.trunc.fill");
    TraceSink sink;
    sink.setCapacity(4);
    sink.enable();

    sink.begin(0, span_tap, TraceCat::Switch, 0); // will be overwritten
    sink.stamp(1, 7, pair_tap);                   // will be overwritten
    EXPECT_EQ(sink.truncatedSpans(), 0u);
    for (Cycles t = 2; t < 8; ++t)
        sink.instant(t, filler, TraceCat::Sched); // harmless filler
    // The Begin and the Tap stamp were each overwritten once; the
    // overwritten Sched instants carry no pairing and don't count.
    EXPECT_EQ(sink.truncatedSpans(), 2u);
    EXPECT_GT(sink.dropped(), 0u);

    // clear() resets the count with the rest of the run state.
    sink.clear();
    EXPECT_EQ(sink.truncatedSpans(), 0u);
    EXPECT_EQ(sink.dropped(), 0u);
}

TEST(TraceSink, ExporterWarnsOnOverflow)
{
    const TapId tap = internTap("probe.test.overflow.warn");
    TraceSink sink;
    sink.setCapacity(2);
    sink.enable();
    sink.begin(0, tap, TraceCat::Switch, 0);
    for (Cycles t = 1; t < 6; ++t)
        sink.instant(t, tap, TraceCat::Sched);

    std::ostringstream os;
    writeChromeTrace(os, sink, Frequency(2.4));
    const std::string json = os.str();
    // A metadata instant flags the loss for anyone reading the trace
    // in the Perfetto UI, alongside the summary counts.
    EXPECT_NE(json.find("trace_ring_overflow"), std::string::npos);
    EXPECT_NE(json.find("\"truncatedSpans\":1"), std::string::npos);

    // A sink that never dropped emits no warning event.
    TraceSink clean;
    clean.enable();
    clean.instant(1, tap, TraceCat::Sched);
    std::ostringstream os2;
    writeChromeTrace(os2, clean, Frequency(2.4));
    EXPECT_EQ(os2.str().find("trace_ring_overflow"),
              std::string::npos);
}

TEST(Probe, SyncTraceHealthPublishesLossCounters)
{
    const TapId tap = internTap("probe.test.health");
    Probe probe;
    probe.trace.setCapacity(2);
    probe.trace.enable();

    // Clean runs add no counters: snapshots stay byte-identical with
    // or without the sync.
    probe.trace.instant(1, tap, TraceCat::Sched);
    probe.syncTraceHealth();
    EXPECT_TRUE(probe.metrics.snapshot().counters.empty());

    probe.trace.begin(2, tap, TraceCat::Switch, 0);
    for (Cycles t = 3; t < 9; ++t)
        probe.trace.instant(t, tap, TraceCat::Sched);
    probe.syncTraceHealth();
    const MetricsSnapshot snap = probe.metrics.snapshot();
    bool saw_dropped = false, saw_truncated = false;
    for (const auto &c : snap.counters) {
        if (c.name == "trace.health.dropped_records") {
            EXPECT_EQ(c.value, probe.trace.dropped());
            saw_dropped = true;
        }
        if (c.name == "trace.health.truncated_spans") {
            EXPECT_EQ(c.value, probe.trace.truncatedSpans());
            saw_truncated = true;
        }
    }
    EXPECT_TRUE(saw_dropped);
    EXPECT_TRUE(saw_truncated);

    // Repeated syncs are idempotent (top-up, not re-add).
    probe.syncTraceHealth();
    EXPECT_EQ(probe.metrics.snapshot(), snap);
}

TEST(TraceSink, CapacityEnvKnobSizesTestbedRing)
{
    // VIRTSIM_TRACE_CAPACITY resizes the testbed's ring before the
    // sink is enabled (rounded up to the next power of two).
    ::setenv("VIRTSIM_TRACE_CAPACITY", "3000", 1);
    {
        Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
        EXPECT_EQ(tb.trace().capacity(), 4096u);
    }
    ::unsetenv("VIRTSIM_TRACE_CAPACITY");
    {
        Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
        EXPECT_EQ(tb.trace().capacity(), 0u); // not enabled, unsized
    }
}

TEST(TraceSink, EdgeRecordsCarryTokensAndExport)
{
    const TapId tap = internTap("probe.test.edge");
    TraceSink sink;
    sink.enable();
    const std::uint64_t t1 = sink.edgeOut(100, tap, TraceCat::Irq, 0);
    const std::uint64_t t2 = sink.edgeOut(110, tap, TraceCat::Irq, 0);
    // Tokens are a nonzero sequence.
    EXPECT_EQ(t1, 1u);
    EXPECT_EQ(t2, 2u);
    sink.edgeIn(150, t1, tap, TraceCat::Irq, 1);
    sink.edgeIn(0, 0, tap, TraceCat::Irq, 1); // token 0: no-op
    EXPECT_EQ(sink.size(), 3u);

    std::ostringstream os;
    writeChromeTrace(os, sink, Frequency(2.4));
    const std::string json = os.str();
    // Chrome flow events: "s" (start) paired with "f" (finish) by id.
    EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;

    // clear() restarts the token sequence with the rest of the state.
    sink.clear();
    sink.enable();
    EXPECT_EQ(sink.edgeOut(10, tap, TraceCat::Irq, 0), 1u);
}

TEST(TraceSink, NestedSpansPairLikeAStack)
{
    const TapId outer = internTap("probe.test.outer");
    const TapId inner = internTap("probe.test.inner");
    TraceSink sink;
    sink.enable();
    sink.begin(100, outer, TraceCat::Switch, 0);
    sink.begin(110, inner, TraceCat::Switch, 0);
    sink.end(140, inner, TraceCat::Switch, 0);
    sink.end(200, outer, TraceCat::Switch, 0);
    sink.span(300, 320, inner, TraceCat::Switch, 1);

    // Replay with a per-track stack: every End must close the
    // innermost open Begin with the same tap, and nothing stays open.
    std::vector<std::vector<TapId>> stacks(2);
    int pairs = 0;
    sink.forEach([&](const TraceRecord &r) {
        auto &st = stacks[r.track];
        if (r.kind == TraceKind::Begin) {
            st.push_back(r.tap);
        } else if (r.kind == TraceKind::End) {
            ASSERT_FALSE(st.empty());
            EXPECT_EQ(st.back(), r.tap);
            st.pop_back();
            ++pairs;
        }
    });
    EXPECT_EQ(pairs, 3);
    EXPECT_TRUE(stacks[0].empty());
    EXPECT_TRUE(stacks[1].empty());
}

// ---------------------------------------------------------------------
// The canonical export-time merge, the deferred observer, and exact
// overflow accounting.
// ---------------------------------------------------------------------

namespace {

/**
 * Stamp one small multi-CPU "world" into a sink: a span and a tap per
 * track, cross-track causal edges, and a same-timestamp collision
 * between tracks. `reversed` stamps the tracks in the opposite order;
 * the logical record multiset is identical either way.
 */
void
stampWorld(TraceSink &sink, bool reversed)
{
    const TapId svc = internTap("merge.test.svc");
    const TapId tapStamp = internTap("merge.test.tap");
    const TapId edge = internTap("merge.test.edge");
    std::uint64_t tok[3] = {0, 0, 0};
    for (int i = 0; i < 3; ++i) {
        const int cpu = reversed ? 2 - i : i;
        const auto track = static_cast<std::uint16_t>(cpu);
        const Cycles base = 100 * (cpu + 1);
        sink.span(base, base + 40, svc, TraceCat::Op, track);
        sink.stamp(base + 10, 7, tapStamp, track);
        // Same instant on every track: the canonical order must break
        // the tie by track, not by stamping order.
        sink.instant(500, tapStamp, TraceCat::Sched, track);
        tok[cpu] = sink.edgeOut(base + 20, edge, TraceCat::Irq,
                                track);
    }
    for (int i = 0; i < 3; ++i) {
        const int cpu = reversed ? 2 - i : i;
        const int dst = (cpu + 1) % 3;
        sink.edgeIn(600 + 10 * cpu, tok[cpu], edge, TraceCat::Irq,
                    static_cast<std::uint16_t>(dst));
    }
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The unsigned integer right after `needle` in a JSON document. */
std::uint64_t
numberAfter(const std::string &json, const std::string &needle)
{
    const std::size_t at = json.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    if (at == std::string::npos)
        return 0;
    return std::stoull(json.substr(at + needle.size()));
}

} // namespace

TEST(TraceSink, CanonicalMergeIgnoresStampOrder)
{
    // The same logical records stamped in two different orders must
    // export byte-identically: the merge order is a pure function of
    // the record multiset, and flow ids are renumbered by first
    // appearance so token values never leak into the bytes.
    TraceSink forward;
    forward.enable();
    stampWorld(forward, false);

    TraceSink reversed;
    reversed.enable();
    stampWorld(reversed, true);

    EXPECT_EQ(forward.size(), reversed.size());
    std::ostringstream a, b;
    writeChromeTrace(a, forward, Frequency(2.4));
    writeChromeTrace(b, reversed, Frequency(2.4));
    ASSERT_FALSE(a.str().empty());
    EXPECT_EQ(a.str(), b.str());
    JsonChecker checker(a.str());
    EXPECT_TRUE(checker.valid()) << a.str();
}

TEST(TraceSink, DeferredObserverDeliversCanonicalOrderPerFlush)
{
    struct Collector : TraceObserver
    {
        std::vector<TraceRecord> seen;
        void
        onTraceRecord(const TraceRecord &r) override
        {
            seen.push_back(r);
        }
    };
    const TapId tap = internTap("merge.test.deferred");
    TraceSink sink;
    sink.enable();
    Collector obs;
    sink.setObserver(&obs);
    sink.setObserverDeferred(true);

    // A later simulated time stamped first: nothing reaches the
    // observer until the flush, and the flush delivers time-sorted,
    // not stamp-sorted.
    sink.instant(300, tap, TraceCat::Sched, 0);
    sink.instant(100, tap, TraceCat::Sched, 1);
    EXPECT_TRUE(obs.seen.empty());
    sink.flushObserver();
    ASSERT_EQ(obs.seen.size(), 2u);
    EXPECT_EQ(obs.seen[0].when, 100u);
    EXPECT_EQ(obs.seen[1].when, 300u);

    // A second flush delivers only what arrived in between.
    sink.instant(400, tap, TraceCat::Sched, 1);
    sink.flushObserver();
    ASSERT_EQ(obs.seen.size(), 3u);
    EXPECT_EQ(obs.seen[2].when, 400u);
    sink.flushObserver(); // idempotent when nothing is pending
    EXPECT_EQ(obs.seen.size(), 3u);
}

TEST(TraceSink, OverflowCountsExactAndDeterministic)
{
    // Unit scale: 20 writes into an 8-slot ring. Totals and losses
    // come out exact, not approximate.
    const TapId tap = internTap("merge.test.overflow");
    TraceSink sink;
    sink.setCapacity(8);
    sink.enable();
    for (int i = 0; i < 20; ++i)
        sink.stamp(static_cast<Cycles>(10 * i), 1, tap, 0);
    EXPECT_EQ(sink.total(), 20u);
    EXPECT_EQ(sink.size(), 8u);
    EXPECT_EQ(sink.dropped(), sink.total() - sink.capacity());
    // Every overwritten record was a Tap instant, so each one also
    // counts as a truncated span open.
    EXPECT_EQ(sink.truncatedSpans(), 12u);

    // World scale: the fleet writes W records with a ring big enough
    // to keep them all; with a 256-record ring the metrics export
    // must report exactly W - 256 dropped, and a rerun must export
    // the same bytes.
    FleetConfig cfg;
    cfg.connsPerCpu = 8;
    cfg.transactionsPerConn = 40;
    const std::string dir = ::testing::TempDir();
    ::setenv("VIRTSIM_TRACE", (dir + "probe_ovf_tr.json").c_str(), 1);
    ::setenv("VIRTSIM_METRICS", (dir + "probe_ovf_m.json").c_str(), 1);
    ::setenv("VIRTSIM_TRACE_CAPACITY", "1048576", 1);
    (void)runNetperfRrFleet(cfg);
    const std::string lossless = slurp(dir + "probe_ovf_tr.fleet.json");
    EXPECT_EQ(numberAfter(lossless, "\"droppedRecords\":"), 0u);
    const std::uint64_t written =
        numberAfter(lossless, "\"recordCount\":");
    ASSERT_GT(written, 256u);

    ::setenv("VIRTSIM_TRACE_CAPACITY", "256", 1);
    (void)runNetperfRrFleet(cfg);
    const std::string first = slurp(dir + "probe_ovf_m.fleet.json");
    (void)runNetperfRrFleet(cfg);
    const std::string rerun = slurp(dir + "probe_ovf_m.fleet.json");
    ::unsetenv("VIRTSIM_TRACE_CAPACITY");
    ::unsetenv("VIRTSIM_METRICS");
    ::unsetenv("VIRTSIM_TRACE");
    EXPECT_EQ(numberAfter(first, "\"trace.health.dropped_records\","
                                 "\"value\":"),
              written - 256);
    EXPECT_EQ(first, rerun);
}

TEST(ChromeTrace, ExportIsWellFormedJson)
{
    const TapId tap = internTap("probe.test.export");
    const TapId quoted = internTap("probe.test.\"quoted\\name");
    TraceSink sink;
    sink.enable();
    sink.span(100, 260, tap, TraceCat::Switch, 0, 160);
    sink.instant(300, quoted, TraceCat::Irq, 3, 27);
    sink.stamp(400, 7, tap);

    std::ostringstream os;
    writeChromeTrace(os, sink, Frequency(2.4), "unit-test");
    const std::string json = os.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid()) << json;
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("cpu0"), std::string::npos);
    EXPECT_NE(json.find("unit-test"), std::string::npos);
}

TEST(Metrics, SnapshotIsDeterministicAcrossSweepWidths)
{
    // Under parallel sweeps, workers intern taps in nondeterministic
    // order, so raw TapIds differ between runs. Snapshots are keyed
    // and sorted by name and must come out byte-identical for any
    // VIRTSIM_JOBS width.
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
                MicrobenchSuite suite(tb);
                suite.run(MicroOp::Hypercall, 10);
                suite.run(MicroOp::VirtualIpi, 10);
                return tb.metrics().snapshot();
            },
            jobs);
    };
    const auto serial = run_cols(1);
    const auto parallel = run_cols(4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_FALSE(serial[i].counters.empty());
        EXPECT_EQ(serial[i], parallel[i]) << "column " << i;
    }
}

TEST(Metrics, ResetGivesIndependentSnapshotsAcrossReruns)
{
    // Two identical workloads back to back on one testbed must
    // report identical, independent metrics — counters may not leak
    // from the first run into the second.
    Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
    auto run_once = [&tb] {
        tb.beginRun();
        for (int i = 0; i < 5; ++i) {
            const Cycles t0 =
                std::max(tb.queue().now(), tb.frontier(0));
            tb.hypervisor()->hypercall(t0, tb.guest()->vcpu(0),
                                       [](Cycles) {});
            tb.run();
        }
        return tb.metrics().snapshot();
    };
    const MetricsSnapshot first = run_once();
    const MetricsSnapshot second = run_once();
    EXPECT_FALSE(first.counters.empty());
    EXPECT_EQ(first, second);
    // The digest shows real activity, and the JSON form parses.
    EXPECT_NE(first.brief().find("vm:vm0"), std::string::npos);
    JsonChecker checker(first.toJson());
    EXPECT_TRUE(checker.valid()) << first.toJson();
}

TEST(Metrics, DomainsAccumulateByTap)
{
    MetricsRegistry reg;
    const TapId tap = internTap("probe.test.counter");
    reg.machine().counter(tap).inc(3);
    reg.vm("vmA").counter(tap).inc();
    reg.cpu(2).summary(tap).add(500);
    const MetricsSnapshot snap = reg.snapshot();
    bool saw_machine = false, saw_vm = false;
    for (const auto &r : snap.counters) {
        if (r.domain == "machine" && r.name == "probe.test.counter") {
            EXPECT_EQ(r.value, 3u);
            saw_machine = true;
        }
        if (r.domain == "vm:vmA" && r.name == "probe.test.counter") {
            EXPECT_EQ(r.value, 1u);
            saw_vm = true;
        }
    }
    EXPECT_TRUE(saw_machine);
    EXPECT_TRUE(saw_vm);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].domain, "cpu:2");
    EXPECT_EQ(snap.histograms[0].count, 1u);
    EXPECT_EQ(snap.histograms[0].min, 500u);
}

TEST(Metrics, LateTapRegistersLikeAnEarlyOne)
{
    // A tap interned and first bumped after a domain already holds
    // rows grows the domain's arrays and then behaves like any other:
    // it reads back, snapshots, and survives reset() as a zero row.
    MetricsRegistry reg;
    const TapId early = internTap("probe.test.early");
    reg.machine().counter(early).inc(2);
    reg.vm("vmA").summary(early).add(7);
    const MetricsSnapshot before = reg.snapshot();

    const TapId late = internTap("probe.test.late.first.bumped.now");
    ASSERT_GT(late.raw(), early.raw());
    reg.machine().counter(late).inc(5);
    reg.vm("vmA").summary(late).add(40);
    reg.vm("vmA").summary(late).add(2);
    EXPECT_EQ(reg.machine().value(early), 2u);
    EXPECT_EQ(reg.machine().value(late), 5u);

    const MetricsSnapshot after = reg.snapshot();
    ASSERT_EQ(after.counters.size(), before.counters.size() + 1);
    ASSERT_EQ(after.histograms.size(), before.histograms.size() + 1);
    const auto &c = after.counters.back();
    EXPECT_EQ(c.domain, "machine");
    EXPECT_EQ(c.name, "probe.test.late.first.bumped.now");
    EXPECT_EQ(c.value, 5u);
    const auto &h = after.histograms.back();
    EXPECT_EQ(h.domain, "vm:vmA");
    EXPECT_EQ(h.name, "probe.test.late.first.bumped.now");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.min, 2u);
    EXPECT_EQ(h.max, 40u);
    EXPECT_DOUBLE_EQ(h.mean, 21.0);

    reg.reset();
    const MetricsSnapshot zeroed = reg.snapshot();
    ASSERT_EQ(zeroed.counters.size(), after.counters.size());
    ASSERT_EQ(zeroed.histograms.size(), after.histograms.size());
    EXPECT_EQ(zeroed.counters.back().value, 0u);
    EXPECT_EQ(zeroed.histograms.back().count, 0u);
}

TEST(Probe, TraceEnvExportsLoadableJson)
{
    // VIRTSIM_TRACE end to end: run a short TCP_RR with the variable
    // set, destroy the testbed, and parse what it exported. The
    // testbed suffixes the SUT kind into the filename so multi-config
    // benches don't clobber each other's exports.
    ::setenv("VIRTSIM_TRACE", "probe_test_trace.json", 1);
    const char *path = "probe_test_trace.kvm_arm.json";
    {
        Testbed tb(TestbedConfig{.kind = SutKind::KvmArm});
        NetperfRrConfig cfg;
        cfg.transactions = 20;
        cfg.warmup = 2;
        runNetperfRr(tb, cfg);
    }
    ::unsetenv("VIRTSIM_TRACE");

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    in.close();
    std::remove(path);
    const std::string json = ss.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    // The Table V taps and the world-switch spans are all there.
    EXPECT_NE(json.find("host.datalink.rx"), std::string::npos);
    EXPECT_NE(json.find("vm.driver.tx"), std::string::npos);
    EXPECT_NE(json.find("kvm.exit"), std::string::npos);
    EXPECT_NE(json.find("ws.save.VGIC"), std::string::npos);
}

// ---------------------------------------------------------------------
// The dead-probe fast path (ISSUE 4 tentpole 3): with the sink
// disabled, every stamping entry point must allocate nothing.
// ---------------------------------------------------------------------

TEST(TraceSinkFastPath, DisabledStampingAllocatesNothing)
{
    TraceSink sink; // never enabled
    const TapId tap = internTap("fastpath.test");
    ASSERT_FALSE(sink.enabled());

    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i) {
        const Cycles t = static_cast<Cycles>(i);
        sink.stamp(t, 1, tap);
        sink.instant(t, tap, TraceCat::Tap);
        sink.begin(t, tap, TraceCat::Switch);
        sink.end(t + 1, tap, TraceCat::Switch);
        sink.span(t, t + 2, tap, TraceCat::Op);
        const std::uint64_t token =
            sink.edgeOut(t, tap, TraceCat::Irq);
        EXPECT_EQ(token, 0u); // disabled sinks mint no edges
        sink.edgeIn(t, token, tap, TraceCat::Irq);
    }
    const std::uint64_t after = g_news.load();
    EXPECT_EQ(after, before);
}

TEST(TraceSinkFastPath, EnabledSteadyStateAllocatesNothing)
{
    // Enabling pays one ring allocation up front; stamping afterwards
    // stays allocation-free (stores into the preallocated ring).
    TraceSink sink;
    sink.setCapacity(1024);
    sink.enable();
    const TapId tap = internTap("fastpath.enabled");

    const std::uint64_t before = g_news.load();
    for (int i = 0; i < 10000; ++i) {
        const Cycles t = static_cast<Cycles>(i);
        sink.stamp(t, 1, tap);
        sink.span(t, t + 2, tap, TraceCat::Op);
        sink.edgeIn(t, sink.edgeOut(t, tap, TraceCat::Irq), tap,
                    TraceCat::Irq);
    }
    const std::uint64_t after = g_news.load();
    EXPECT_EQ(after, before);
}
