/**
 * @file
 * Google-benchmark microbenchmarks of the simulator infrastructure
 * itself — event queue throughput, world-switch engine, and
 * end-to-end simulation rates — to keep the harness fast enough for
 * the large Figure 4 sweeps.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/appbench.hh"
#include "core/fleet.hh"
#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "hv/world_switch.hh"
#include "hw/machine.hh"
#include "sim/event_queue.hh"
#include "sim/flight.hh"
#include "sim/latency.hh"
#include "sim/probe.hh"
#include "sim/slo.hh"
#include "sim/sweep.hh"
#include "sim/timeline.hh"

using namespace virtsim;

namespace {

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        for (int i = 0; i < 1000; ++i)
            eq.scheduleAt(static_cast<Cycles>(i), [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

/** Timer-like usage: most scheduled events are cancelled before they
 *  fire (TCP retransmit timers, watchdogs). Schedules 1000 events,
 *  cancels three of every four, drains the rest. */
void
BM_EventQueueScheduleCancel(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int fired = 0;
        std::vector<EventId> ids;
        ids.reserve(1000);
        for (int i = 0; i < 1000; ++i) {
            ids.push_back(eq.scheduleAt(static_cast<Cycles>(i),
                                        [&fired] { ++fired; }));
        }
        for (std::size_t i = 0; i < ids.size(); ++i) {
            if (i % 4 != 0)
                eq.cancel(ids[i]);
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleCancel);

/** Steady-state churn: a fixed population of self-rescheduling event
 *  chains, the shape of a long simulation (every handler schedules
 *  its successor). Exercises slot recycling with a warm arena. */
void
BM_EventQueueChurn(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    constexpr int chains = 64;
    constexpr Cycles horizon = 4000;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        Cycles stride;
        void
        operator()() const
        {
            ++*fired;
            Chain next = *this;
            eq->scheduleAfter(stride, next);
        }
    };
    for (int c = 0; c < chains; ++c)
        eq.scheduleAfter(static_cast<Cycles>(c),
                         Chain{&eq, &fired,
                               static_cast<Cycles>(16 + c % 7)});
    for (auto _ : state) {
        const std::uint64_t before = fired;
        eq.runUntil(eq.now() + horizon);
        benchmark::DoNotOptimize(fired - before);
    }
    // ~250 events per chain per horizon window.
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueChurn);

/** clear()-then-reschedule between repetitions, as the experiment
 *  harness does; checks arena recycling after bulk teardown. */
void
BM_EventQueueClearReschedule(benchmark::State &state)
{
    EventQueue eq;
    int fired = 0;
    for (auto _ : state) {
        for (int i = 0; i < 256; ++i)
            eq.scheduleAfter(static_cast<Cycles>(i + 1),
                             [&fired] { ++fired; });
        eq.clear();
        for (int i = 0; i < 256; ++i)
            eq.scheduleAfter(static_cast<Cycles>(i + 1),
                             [&fired] { ++fired; });
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_EventQueueClearReschedule);

void
BM_WorldSwitchSaveRestore(benchmark::State &state)
{
    EventQueue eq;
    const CostModel cm = CostModel::armAtlas();
    PhysicalCpu cpu(0, eq, cm);
    RegFile save_area;
    WorldSwitchEngine wse(cm);
    for (auto _ : state) {
        Cycles c = wse.save(cpu, save_area, kvmArmSwitchedState);
        c += wse.restore(cpu, save_area, kvmArmSwitchedState);
        benchmark::DoNotOptimize(c);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldSwitchSaveRestore);

void
BM_HypercallMicrobench(benchmark::State &state)
{
    for (auto _ : state) {
        TestbedConfig tc;
        tc.kind = SutKind::KvmArm;
        Testbed tb(tc);
        MicrobenchSuite suite(tb);
        const MicroResult r = suite.run(MicroOp::Hypercall, 50);
        benchmark::DoNotOptimize(r.cycles.mean());
    }
    state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_HypercallMicrobench);

void
BM_NetperfRrTransaction(benchmark::State &state)
{
    for (auto _ : state) {
        TestbedConfig tc;
        tc.kind = SutKind::KvmArm;
        Testbed tb(tc);
        NetperfRrConfig cfg;
        cfg.transactions = 50;
        const NetperfRrResult r = runNetperfRr(tb, cfg);
        benchmark::DoNotOptimize(r.transPerSec);
    }
    state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_NetperfRrTransaction);

/** One machine-counter bump on the hot path, the way the hw models
 *  count: Nic::receiveFromWire bumps nic.rx_packets per frame. */
void
BM_MachineCounterInc(benchmark::State &state)
{
    EventQueue eq;
    Machine m(eq, MachineConfig::hpMoonshotM400());
    const TapId rxPackets = internTap("nic.rx_packets");
    for (auto _ : state)
        m.counters().counter(rxPackets).inc();
    benchmark::DoNotOptimize(m.counters().value(rxPackets));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MachineCounterInc);

/** The Figure 4 application sweep, end to end, at a fixed thread
 *  count. Compare Serial vs Parallel to see the sweep-runner win on
 *  a multicore host (identical output is asserted in the tests). */
void
figure4Sweep(benchmark::State &state, int jobs)
{
    const std::string jobstr = std::to_string(jobs);
    setenv("VIRTSIM_JOBS", jobstr.c_str(), 1);
    AppBenchOptions opt;
    std::size_t rows = 0;
    for (auto _ : state) {
        const auto result = runFigure4(opt);
        rows = result.size();
        benchmark::DoNotOptimize(result.data());
    }
    unsetenv("VIRTSIM_JOBS");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rows));
}

void
BM_Figure4SweepSerial(benchmark::State &state)
{
    figure4Sweep(state, 1);
}
BENCHMARK(BM_Figure4SweepSerial)->Unit(benchmark::kMillisecond);

void
BM_Figure4SweepParallel(benchmark::State &state)
{
    figure4Sweep(state, sweepJobs() > 1 ? sweepJobs() : 4);
}
BENCHMARK(BM_Figure4SweepParallel)->Unit(benchmark::kMillisecond);

/** Repeated small sweeps over a fixed configuration set: the
 *  persistent-pool + testbed-cache case. After the first iteration
 *  every cell is a pool-thread wake plus a Testbed::reset() instead
 *  of a thread spawn plus full world construction. */
void
BM_SweepPoolReuse(benchmark::State &state)
{
    setenv("VIRTSIM_JOBS", "4", 1);
    const std::vector<SutKind> kinds = {
        SutKind::KvmArm, SutKind::XenArm,
        SutKind::KvmX86, SutKind::XenX86};
    for (auto _ : state) {
        const auto cells = parallelSweep(kinds, [](SutKind kind) {
            TestbedConfig tc;
            tc.kind = kind;
            TestbedLease tb = acquireTestbed(tc);
            MicrobenchSuite suite(*tb);
            return suite.run(MicroOp::Hypercall, 20).cycles.mean();
        });
        benchmark::DoNotOptimize(cells.data());
    }
    unsetenv("VIRTSIM_JOBS");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kinds.size()));
}
BENCHMARK(BM_SweepPoolReuse)->Unit(benchmark::kMillisecond);

/** The dead-probe fast path: stamping against a disabled sink must
 *  cost one predictable branch per call (and allocate nothing — the
 *  tests assert that part). This is the per-event overhead every
 *  un-traced sweep cell pays. */
void
BM_DeadProbeStamp(benchmark::State &state)
{
    TraceSink sink; // never enabled
    const TapId tap = internTap("bench.deadprobe");
    Cycles t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            ++t;
            sink.stamp(t, 1, tap);
            sink.span(t, t + 2, tap, TraceCat::Op);
            sink.edgeIn(t, sink.edgeOut(t, tap, TraceCat::Irq), tap,
                        TraceCat::Irq);
        }
        benchmark::DoNotOptimize(t);
    }
    // Four stamping calls per inner loop turn.
    state.SetItemsProcessed(state.iterations() * 4000);
}
BENCHMARK(BM_DeadProbeStamp);

/** The dead-timeline fast path: ensureScheduled() against a disabled
 *  sampler is the per-run cost every un-sampled workload pays. Like
 *  BM_DeadProbeStamp it must stay one predictable branch per call;
 *  the tests assert the allocation-free part. */
void
BM_DeadTimelineTick(benchmark::State &state)
{
    EventQueue eq;
    TimelineSampler timeline; // never enabled
    std::int64_t level = 0;
    timeline.addGauge("bench.deadtimeline",
                      [&level] { return level; });
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            timeline.ensureScheduled(eq);
        benchmark::DoNotOptimize(timeline);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DeadTimelineTick);

/** The dead-latency fast path: record() against a disabled tracker is
 *  the per-phase cost every un-tracked run pays — it must stay one
 *  predicted branch per call (the tests assert the allocation-free
 *  part). */
void
BM_DeadLatencyStamp(benchmark::State &state)
{
    RequestTracker tracker;
    tracker.configure(4); // sized but never enabled
    Cycles t = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            t += 7;
            tracker.record(i & 3, LatencyPhase::Rtt, t);
            tracker.record(i & 3, LatencyPhase::Service, t >> 1);
        }
        benchmark::DoNotOptimize(tracker);
        benchmark::DoNotOptimize(t);
    }
    // Two stamping calls per inner loop turn.
    state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_DeadLatencyStamp);

/** The dead-flight fast path: the flight-recorder tee fires on every
 *  TraceSink push, so with no VIRTSIM_INCIDENTS armed record() must
 *  stay one predicted branch per call (the tests assert the
 *  allocation-free part). */
void
BM_DeadFlightStamp(benchmark::State &state)
{
    FlightRecorder fr; // never enabled
    const TraceRecord r{0, 0, internTap("bench.deadflight"), 0,
                        TraceKind::Instant, TraceCat::Op};
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i)
            fr.record(r);
        benchmark::DoNotOptimize(fr);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_DeadFlightStamp);

/** The live stamp path: lane-local bucket increments on pre-sized
 *  arrays — the per-transaction observability cost a latency-tracked
 *  fleet pays, times five phases. */
void
BM_LatencyHistogramAdd(benchmark::State &state)
{
    RequestTracker tracker;
    tracker.configure(4);
    tracker.enable();
    Cycles t = 1;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            t = t * 2862933555777941757ULL + 3037000493ULL;
            tracker.record(i & 3, LatencyPhase::Rtt, t >> 24);
        }
        benchmark::DoNotOptimize(tracker);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_LatencyHistogramAdd);

/** The live SLO tick: one SloEngine::onSample (rolling quantile,
 *  request count, violation count) against a 16-CPU tracker holding
 *  ~1M RTT samples — the per-barrier-tick cost a latency-armed fleet
 *  pays. Enabled-path budget for the latency + SLO sink. */
void
BM_SloTickLoaded(benchmark::State &state)
{
    constexpr int cpus = 16;
    RequestTracker tracker;
    tracker.configure(cpus);
    tracker.enable();
    Cycles x = 1;
    for (int i = 0; i < (1 << 20); ++i) {
        x = x * 2862933555777941757ULL + 3037000493ULL;
        // RTTs from ~4 us to ~14 ms at 2.4 GHz.
        tracker.record(i % cpus, LatencyPhase::Rtt,
                       10000 + (x >> 31) % 33000000);
    }
    SloEngine slo;
    SloSpec spec;
    spec.thresholdCycles = 480000; // 200 us
    spec.burnWindow = 4800000;     // 2 ms
    slo.addSpec(spec);
    slo.bind(&tracker);
    Cycles now = 0;
    for (auto _ : state) {
        now += 24000; // the 100 kHz timeline period
        slo.onSample(now);
        benchmark::DoNotOptimize(slo);
    }
}
BENCHMARK(BM_SloTickLoaded)->Unit(benchmark::kMicrosecond);

/** Flight-recorder upkeep on a saturated segment: one barrier tick
 *  (evict, with the near-capacity compaction) plus the 420 pushes
 *  that arrive between ticks, every record stamped up to 10 ms ahead
 *  of the clock — the GIC's frontier-dated stamps under overload.
 *  Enabled-path budget for the flight sink. */
void
BM_FlightEvictSaturated(benchmark::State &state)
{
    constexpr Cycles period = 24000; // 10 us at 2.4 GHz
    FlightRecorder fr;
    fr.configure(/*windowHalf=*/240000, period, /*incidentCap=*/1);
    fr.enable();
    const TapId tap = internTap("bench.flight.saturated");
    Cycles now = 0, x = 1;
    auto push = [&] {
        x = x * 2862933555777941757ULL + 3037000493ULL;
        fr.record(TraceRecord{now + period * (1 + (x >> 33) % 1000), 0,
                              tap, 0, TraceKind::Instant,
                              TraceCat::Op});
    };
    for (std::size_t i = 0; i < FlightRecorder::segCapacity; ++i)
        push();
    // Seal the reference window outside the timed loop.
    now = 2 * fr.windowHalf();
    fr.onSample(now);
    for (auto _ : state) {
        for (int i = 0; i < 420; ++i)
            push();
        now += period;
        fr.onSample(now);
    }
    benchmark::DoNotOptimize(fr.retainedRecords());
}
BENCHMARK(BM_FlightEvictSaturated)->Unit(benchmark::kMicrosecond);

/** Cancel-heavy phases (timer retargets, teardown bursts) leave dead
 *  entries in the heap; past the half-dead threshold cancel()
 *  compacts in place. This measures the full churn cycle: bulk
 *  schedule, 3/4 cancelled (crossing the compaction threshold), then
 *  draining the survivors against a heap whose sift depth tracks the
 *  live population. */
void
BM_EventQueueCancelCompact(benchmark::State &state)
{
    EventQueue eq;
    std::vector<EventId> ids;
    ids.reserve(4096);
    std::uint64_t compactions = 0;
    for (auto _ : state) {
        ids.clear();
        const Cycles base = eq.now() + 1;
        for (int i = 0; i < 4096; ++i) {
            ids.push_back(eq.scheduleAt(
                base + static_cast<Cycles>(i), [] {}));
        }
        for (int i = 0; i < 4096; ++i) {
            if (i % 4 != 0)
                eq.cancel(ids[static_cast<std::size_t>(i)]);
        }
        eq.run();
        compactions = eq.compactions();
    }
    benchmark::DoNotOptimize(compactions);
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EventQueueCancelCompact);

/** The sharded kernel on the 4-CPU netperf RR fleet world. Serial
 *  (one lane) vs four lanes; the modelled results are byte-identical
 *  (asserted in test_shard), so the pair isolates the wall-clock
 *  effect of conservative-lookahead parallel rounds.
 *  bench_compare.sh reports the serial/sharded ratio as its speedup
 *  line; the parallel win only materializes on a multicore host. */
void
shardedFleetBench(benchmark::State &state, int lanes)
{
    FleetConfig cfg; // 4 CPUs x 32 conns x 250 transactions
    std::uint64_t tx = 0;
    for (auto _ : state) {
        const FleetResult r = runNetperfRrFleet(cfg, lanes);
        tx = r.transactions;
        benchmark::DoNotOptimize(tx);
        benchmark::DoNotOptimize(r.checksum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tx));
}

void
BM_ShardedKernelSerial(benchmark::State &state)
{
    shardedFleetBench(state, 1);
}
BENCHMARK(BM_ShardedKernelSerial)->Unit(benchmark::kMillisecond);

void
BM_ShardedKernelShards4(benchmark::State &state)
{
    shardedFleetBench(state, 4);
}
BENCHMARK(BM_ShardedKernelShards4)->Unit(benchmark::kMillisecond);

/** Four lanes with trace recording forced on (lane-local ring
 *  segments, per-lane profiler histograms — no export). Against
 *  BM_ShardedKernelShards4 this isolates the stamping overhead of
 *  the lane-partitioned observability path; bench_compare.sh reports
 *  the ratio as its traced-overhead line. */
void
BM_ShardedKernelTraced(benchmark::State &state)
{
    FleetConfig cfg;
    cfg.trace = true;
    std::uint64_t tx = 0;
    for (auto _ : state) {
        const FleetResult r = runNetperfRrFleet(cfg, 4);
        tx = r.transactions;
        benchmark::DoNotOptimize(tx);
        benchmark::DoNotOptimize(r.checksum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tx));
}
BENCHMARK(BM_ShardedKernelTraced)->Unit(benchmark::kMillisecond);

/** Fleet-scale round loops: hundreds of VM lanes, skewed load. VM 0
 *  is a hot spot (24 connections); the rest serve one connection
 *  each and go idle early, so most rounds run with a handful of
 *  runnable lanes out of hundreds. This is the shape the sparse
 *  coordinator exists for — per-round cost O(active lanes + traffic
 *  edges) — and the Dense variants rerun the identical world on the
 *  O(lanes^2) reference coordinator (byte-identical results,
 *  asserted in test_fleet_scale). bench_compare.sh reports the
 *  dense/sparse ratio as the fleet-scale speedup line; unlike the
 *  crew-parallelism lines it does not need a multicore host, since
 *  the win is coordinator arithmetic, not thread count. */
void
fleetScaleBench(benchmark::State &state, int vms, bool dense)
{
    FleetConfig cfg;
    cfg.nVms = vms;
    cfg.transactionsPerConn = 8;
    cfg.connsByVm.assign(static_cast<std::size_t>(vms), 1);
    cfg.connsByVm[0] = 24;
    if (dense)
        ::setenv("VIRTSIM_SHARD_DENSE", "1", 1);
    std::uint64_t tx = 0;
    for (auto _ : state) {
        const FleetResult r = runNetperfRrFleet(cfg, vms);
        tx = r.transactions;
        benchmark::DoNotOptimize(tx);
        benchmark::DoNotOptimize(r.checksum);
    }
    if (dense)
        ::unsetenv("VIRTSIM_SHARD_DENSE");
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tx));
}

void
BM_FleetScale64(benchmark::State &state)
{
    fleetScaleBench(state, 64, false);
}
BENCHMARK(BM_FleetScale64)->Unit(benchmark::kMillisecond);

void
BM_FleetScale64Dense(benchmark::State &state)
{
    fleetScaleBench(state, 64, true);
}
BENCHMARK(BM_FleetScale64Dense)->Unit(benchmark::kMillisecond);

void
BM_FleetScale256(benchmark::State &state)
{
    fleetScaleBench(state, 256, false);
}
BENCHMARK(BM_FleetScale256)->Unit(benchmark::kMillisecond);

void
BM_FleetScale256Dense(benchmark::State &state)
{
    fleetScaleBench(state, 256, true);
}
BENCHMARK(BM_FleetScale256Dense)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
