/**
 * @file
 * Per-layer probes of the traced run. Each probe times calls into one
 * layer's public functions from outside, so every traced run reports
 * the same per-layer metrics whatever its workload. Comparisons
 * (armed versus unarmed sinks, serial versus two lanes) interleave
 * their two sides in this process and report a ratio of medians.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "core/fleet.hh"
#include "core/microbench.hh"
#include "core/testbed.hh"
#include "core/workloads/workload.hh"
#include "hw/machine.hh"
#include "perfbench.hh"
#include "sim/event_queue.hh"
#include "sim/latency.hh"
#include "workloads.hh"

using namespace virtsim;

namespace perfbench {

double median(std::vector<double> v);

namespace {

constexpr int probeReps = 3;

void
put(Metrics &m, const std::string &name, double v, const char *unit)
{
    m[name] = {v, unit};
}

template <typename F>
double
timed(F &&f)
{
    const double t0 = wallNow();
    f();
    return wallNow() - t0;
}

/** Fresh construction and reset of a testbed, per configuration. */
void
probeTestbed(std::uint64_t seed, Metrics &m)
{
    for (SutKind k : allSuts) {
        TestbedConfig tc;
        tc.kind = k;
        tc.seed = seed;
        std::vector<double> build, reset;
        for (int i = 0; i < probeReps; ++i) {
            std::unique_ptr<Testbed> tb;
            build.push_back(timed([&] {
                SpanScope s("core.testbed", "testbed.build." + sutSlug(k));
                tb = std::make_unique<Testbed>(tc);
            }));
            reset.push_back(timed([&] {
                SpanScope s("core.testbed", "testbed.reset." + sutSlug(k));
                tb->reset();
            }));
        }
        put(m, "testbed.build_us." + sutSlug(k), median(build) * 1e6, "us");
        put(m, "testbed.reset_us." + sutSlug(k), median(reset) * 1e6, "us");
    }
}

/** One traced paper pass after an untraced warm pass. */
void
probePaperPass(std::uint64_t seed, Metrics &m)
{
    const bool armed = tracer().isArmed();
    tracer().disarm();
    OpOutput warm;
    for (const Step &s : paperPassSteps(seed))
        s.run(warm);
    if (armed)
        tracer().arm();

    const std::size_t first = tracer().spans().size();
    const TestbedCacheStats c0 = testbedCacheStats();
    OpOutput out;
    for (const Step &s : paperPassSteps(seed)) {
        SpanScope span("bench", "step." + s.name);
        s.run(out);
    }
    const TestbedCacheStats c1 = testbedCacheStats();
    const double hits = static_cast<double>(c1.hits - c0.hits);
    const double acquires =
        hits + static_cast<double>(c1.misses - c0.misses);
    put(m, "testbed.cache_hit_ratio", acquires > 0 ? hits / acquires : 0,
        "ratio");
    put(m, "testbed.cache_acquires", acquires, "count");

    auto dur = [first](const std::string &name) {
        return tracer().totalDuration(name, first);
    };
    for (SutKind k : paperMicroSuts) {
        for (MicroOp op : allMicroOps) {
            const std::string n = "hv." + sutSlug(k) + "." + opSlug(op);
            put(m, n + ".host_ns", dur(n) / microIterations * 1e9, "ns");
        }
    }
    put(m, "hv.breakdown.host_us", dur("hv.breakdown") * 1e6, "us");

    const double rrTxns = 200 + 10; // NetperfRrConfig defaults
    for (SutKind k : rrSuts) {
        const std::string n = "net.rr." + sutSlug(k);
        put(m, n + ".host_us_per_txn", dur(n) / rrTxns * 1e6, "us");
    }
    for (const char *n :
         {"net.stream.kvm_arm", "net.stream.xen_arm",
          "net.stream.xen_arm_zero_copy", "net.maerts.kvm_arm",
          "net.maerts.xen_arm"}) {
        const double simMs = out.values.at(std::string(n) + ".sim_ms");
        put(m, std::string(n) + ".host_ms_per_sim_ms",
            dur(n) * 1e3 / simMs, "ms/ms");
    }
    for (const auto &w : figure4Workloads()) {
        const std::string n = "app." + workloadSlug(w->name());
        put(m, n + ".host_ms", dur(n) * 1e3, "ms");
    }
}

struct EqChurn
{
    EventQueue eq;
    std::uint64_t left = 0;
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
};

void
churnFire(EqChurn *st)
{
    if (st->left == 0)
        return;
    --st->left;
    st->rng ^= st->rng << 13;
    st->rng ^= st->rng >> 7;
    st->rng ^= st->rng << 17;
    st->eq.scheduleAfter(1 + st->rng % 4096, [st] { churnFire(st); });
}

/** Host ns per dispatched event with `depth` events pending. */
double
eventQueueNs(std::size_t depth, std::uint64_t events)
{
    std::vector<double> ns;
    for (int i = 0; i < probeReps; ++i) {
        EqChurn st;
        st.left = events;
        for (std::size_t d = 0; d < depth; ++d)
            st.eq.scheduleAt(d, [p = &st] { churnFire(p); });
        SpanScope s("sim.event_queue",
                    "eq.churn.depth" + std::to_string(depth));
        ns.push_back(timed([&] { st.eq.run(); }) * 1e9 /
                     static_cast<double>(events + depth));
    }
    return median(ns);
}

void
probeLatencyHistogram(Metrics &m)
{
    constexpr int adds = 2000000;
    constexpr int quantiles = 2000;
    auto h = std::make_unique<LatencyHistogram>();
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    std::vector<double> add, q;
    volatile std::uint64_t sink = 0;
    for (int r = 0; r < probeReps; ++r) {
        SpanScope s("sim.latency", "latency.add");
        add.push_back(timed([&] {
                          for (int i = 0; i < adds; ++i) {
                              rng ^= rng << 13;
                              rng ^= rng >> 7;
                              rng ^= rng << 17;
                              h->add(rng >> (rng & 47));
                          }
                      }) *
                      1e9 / adds);
        q.push_back(timed([&] {
                        for (int i = 0; i < quantiles; ++i)
                            sink = sink + h->quantile(0.5 + i * 1e-4);
                    }) *
                    1e6 / quantiles);
    }
    put(m, "sim.latency.ns_per_add", median(add), "ns");
    put(m, "sim.latency.us_per_quantile", median(q), "us");
}

/** Interleave a and b probeReps times; @return median(b)/median(a). */
template <typename A, typename B>
double
interleavedRatio(A &&a, B &&b)
{
    a();
    b();
    std::vector<double> ta, tb;
    for (int i = 0; i < probeReps; ++i) {
        ta.push_back(timed(a));
        tb.push_back(timed(b));
    }
    return median(tb) / median(ta);
}

void
probeFleet(std::uint64_t seed, Metrics &m)
{
    const FleetConfig cfg = closedFleetConfig(seed, closedVms);
    FleetResult r;
    std::vector<double> t;
    for (int i = 0; i <= probeReps; ++i) {
        const double s = timed([&] {
            SpanScope span("core.fleet", "fleet.run.lanes1");
            r = runNetperfRrFleet(cfg, 1);
        });
        if (i > 0)
            t.push_back(s);
    }
    const double txns = static_cast<double>(r.transactions);
    put(m, "fleet.txn_per_op", txns, "count");
    put(m, "fleet.host_ns_per_txn", median(t) * 1e9 / txns, "ns");
}

void
probeShard(std::uint64_t seed, Metrics &m)
{
    const FleetConfig cfg = lanesFleetConfig(seed);
    FleetResult two;
    std::vector<double> t2;
    const double speedup = interleavedRatio(
        [&] {
            SpanScope s("core.fleet", "fleet.run.lanes2");
            const double t = timed([&] { two = runNetperfRrFleet(cfg, 2); });
            t2.push_back(t);
        },
        [&] {
            SpanScope s("core.fleet", "fleet.run.lanes1");
            runNetperfRrFleet(cfg, 1);
        });
    const double rounds = static_cast<double>(two.rounds);
    put(m, "shard.rounds", rounds, "count");
    put(m, "shard.parallel_round_share",
        static_cast<double>(two.parallelRounds) / rounds, "ratio");
    put(m, "shard.lane_dispatches_per_round",
        static_cast<double>(two.laneDispatches) / rounds, "count");
    put(m, "shard.host_us_per_round", median(t2) * 1e6 / rounds, "us");
    put(m, "shard.speedup_x", speedup, "x");
}

/** Sink costs on the fleet_observed world, each armed alone against
 *  the same world with every sink off. */
void
probeSinks(std::uint64_t seed, const std::string &incidentDir, Metrics &m)
{
    FleetConfig off = observedFleetConfig(seed);
    off.latency = false;
    auto run = [](const FleetConfig &c, const char *span) {
        SpanScope s("obs", span);
        return runNetperfRrFleet(c, 1);
    };
    auto unarmed = [&] { run(off, "obs.unarmed"); };

    FleetConfig lat = off;
    lat.latency = true;
    put(m, "obs.latency_slo.overhead_x",
        interleavedRatio(unarmed, [&] { run(lat, "obs.latency_slo"); }),
        "x");

    FleetConfig trace = off;
    trace.trace = true;
    put(m, "obs.trace.overhead_x",
        interleavedRatio(unarmed, [&] { run(trace, "obs.trace"); }), "x");

    auto flight = [&] {
        std::filesystem::remove_all(incidentDir);
        setenv("VIRTSIM_INCIDENTS", incidentDir.c_str(), 1);
        run(off, "obs.flight");
        unsetenv("VIRTSIM_INCIDENTS");
    };
    put(m, "obs.flight.overhead_x", interleavedRatio(unarmed, flight), "x");

    // The full fleet_observed configuration: latency, SLO and flight
    // recorder armed together.
    std::filesystem::remove_all(incidentDir);
    setenv("VIRTSIM_INCIDENTS", incidentDir.c_str(), 1);
    const FleetResult r = run(observedFleetConfig(seed), "obs.observed");
    unsetenv("VIRTSIM_INCIDENTS");
    put(m, "obs.incidents", scanIncidents(incidentDir).first, "count");
    put(m, "obs.slo_breaches", static_cast<double>(r.sloBreaches), "count");
}

/** Causal attribution on the Table II sweep. Runs last: arming
 *  attribution leaves the cached testbeds it touched traced. */
void
probeAttribution(Metrics &m)
{
    const std::vector<SutKind> kinds = {SutKind::KvmArm, SutKind::XenArm,
                                        SutKind::KvmX86, SutKind::XenX86};
    put(m, "obs.attrib.overhead_x",
        interleavedRatio(
            [&] {
                SpanScope s("hv", "hv.sweep.unattributed");
                runMicrobenchSweep(kinds, microIterations, false);
            },
            [&] {
                SpanScope s("obs", "hv.sweep.attributed");
                runMicrobenchSweep(kinds, microIterations, true);
            }),
        "x");
}

} // namespace

void
runLayerProbes(std::uint64_t seed, const std::string &incidentDir,
               Metrics &m)
{
    probeTestbed(seed, m);
    probePaperPass(seed, m);
    put(m, "sim.eq.ns_per_event.shallow", eventQueueNs(64, 2000000), "ns");
    put(m, "sim.eq.ns_per_event.deep", eventQueueNs(65536, 2000000), "ns");
    probeLatencyHistogram(m);
    probeFleet(seed, m);
    probeShard(seed, m);
    probeSinks(seed, incidentDir, m);
    probeAttribution(m);
}

} // namespace perfbench
