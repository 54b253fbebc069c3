/**
 * @file
 * Google-benchmark microbenchmarks of the simulator infrastructure
 * itself — event queue throughput, world-switch engine, and
 * end-to-end simulation rates — to keep the harness fast enough for
 * the large Figure 4 sweeps.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/appbench.hh"
#include "core/fleet.hh"
#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "hv/world_switch.hh"
#include "hw/cost_model.hh"
#include "hw/cpu.hh"
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

/** BM_EventQueueChurn at fleet_closed's heap depth: 2,048
 *  self-rescheduling chains with strides spread over 1-4,096 cycles,
 *  so every pop sifts through a six-level heap and the surfacing
 *  chains arrive in no particular order. */
void
BM_EventQueueDeepChurn(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t fired = 0;
    constexpr std::uint64_t chains = 2048;
    constexpr Cycles horizon = 4096;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        Cycles stride;
        void
        operator()() const
        {
            ++*fired;
            eq->scheduleAfter(stride, *this);
        }
    };
    for (std::uint64_t c = 0; c < chains; ++c) {
        // A multiplicative hash scatters the strides over the chains.
        const Cycles stride = 1 + (c * 2654435761u) % horizon;
        eq.scheduleAfter(c % horizon, Chain{&eq, &fired, stride});
    }
    for (auto _ : state) {
        const std::uint64_t before = fired;
        eq.runUntil(eq.now() + horizon);
        benchmark::DoNotOptimize(fired - before);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(fired));
}
BENCHMARK(BM_EventQueueDeepChurn);

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
            // Opaque sink: otherwise the compiler proves the disabled
            // check loop-invariant, hoists it, and times an empty loop.
            benchmark::DoNotOptimize(sink);
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

/** The live stamp path: bucket increments on pre-sized per-CPU and
 *  all-CPU arrays — the per-transaction observability cost a
 *  latency-tracked fleet pays, times five phases. */
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

/** One incident captured from a full 32 Ki trace ring whose every
 *  record falls in the window: the window collect (filter and
 *  canonical sort), the blame analyzer and the critical path. The
 *  records mimic a fleet transaction (a service span, then a wire edge
 *  to the next of 16 CPUs). Enabled-path budget for the flight sink,
 *  whose stamping path is the trace sink's own. */
void
BM_FlightCaptureFullRing(benchmark::State &state)
{
    constexpr Cycles W = 240000, period = 24000; // 100 us, 10 us
    TraceSink sink;
    sink.enable();
    const TapId serve = internTap("bench.flight.serve");
    const TapId wire = internTap("bench.flight.wire");
    const Cycles at = 4 * W;
    const std::size_t txns = sink.capacity() / 4;
    const Cycles step = 2 * W / txns;
    for (std::size_t k = 0; k < txns; ++k) {
        const auto trk = static_cast<std::uint16_t>(k % 16);
        const Cycles t0 = at - W + k * step;
        sink.span(t0, t0 + 10000, serve, TraceCat::Op, trk);
        const std::uint64_t tok =
            sink.edgeOut(t0 + 10000, wire, TraceCat::Io, trk);
        sink.edgeIn(t0 + 38800, tok, wire, TraceCat::Io,
                    static_cast<std::uint16_t>((k + 1) % 16));
    }
    FlightRecorder fr;
    fr.configure(W, period, /*incidentCap=*/1);
    fr.bind(&sink, nullptr, nullptr);
    fr.enable();
    for (auto _ : state) {
        state.PauseTiming();
        fr.reset();
        fr.onSample(2 * W); // seal the (empty) reference window
        state.ResumeTiming();
        fr.trigger(at, "bench");
        fr.onSample(at + W + period);
        benchmark::DoNotOptimize(fr.incident(0).records.data());
    }
}
BENCHMARK(BM_FlightCaptureFullRing)->Unit(benchmark::kMicrosecond);

/** A fleet's event shape: 16 CPUs, each with a completion backlog of
 *  ~1.6k events behind its frontier (fleet_observed's measured
 *  depth), plus 512 plain arrival events. Every completion goes
 *  through PhysicalCpu::run, so only each CPU's earliest completion
 *  sits in the event heap. */
void
BM_EventQueueCpuBacklog(benchmark::State &state)
{
    constexpr int cpus = 16, backlog = 1600, arrivals = 512;
    const CostModel cm = CostModel::armAtlas();
    EventQueue eq;
    std::vector<std::unique_ptr<PhysicalCpu>> cpu;
    for (int c = 0; c < cpus; ++c)
        cpu.push_back(std::make_unique<PhysicalCpu>(c, eq, cm));
    std::uint64_t fired = 0;
    for (auto _ : state) {
        const Cycles base = eq.now();
        for (int i = 0; i < backlog; ++i) {
            for (int c = 0; c < cpus; ++c) {
                cpu[static_cast<std::size_t>(c)]->run(
                    base, 100 + static_cast<Cycles>((i + c) % 7),
                    [&fired] { ++fired; });
            }
        }
        for (int a = 0; a < arrivals; ++a) {
            eq.scheduleAt(base + static_cast<Cycles>(a) * 311,
                          [&fired] { ++fired; });
        }
        eq.run();
        benchmark::DoNotOptimize(fired);
    }
    state.SetItemsProcessed(state.iterations() *
                            (cpus * backlog + arrivals));
}
BENCHMARK(BM_EventQueueCpuBacklog)->Unit(benchmark::kMicrosecond);

/** The default 4-CPU netperf RR fleet world, sinks off: the event
 *  queue and the fleet's dispatch path. (The name predates the
 *  single-queue fleet; it is kept so the committed baseline still
 *  gates it.) */
void
BM_ShardedKernelSerial(benchmark::State &state)
{
    FleetConfig cfg; // 4 CPUs x 32 conns x 250 transactions
    std::uint64_t tx = 0;
    for (auto _ : state) {
        const FleetResult r = runNetperfRrFleet(cfg);
        tx = r.transactions;
        benchmark::DoNotOptimize(tx);
        benchmark::DoNotOptimize(r.checksum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tx));
}
BENCHMARK(BM_ShardedKernelSerial)->Unit(benchmark::kMillisecond);

/** Fleet scale: hundreds of VMs, skewed load. VM 0 is a hot spot (24
 *  connections); the rest serve one connection each and go idle
 *  early. */
void
fleetScaleBench(benchmark::State &state, int vms)
{
    FleetConfig cfg;
    cfg.nVms = vms;
    cfg.transactionsPerConn = 8;
    cfg.connsByVm.assign(static_cast<std::size_t>(vms), 1);
    cfg.connsByVm[0] = 24;
    std::uint64_t tx = 0;
    for (auto _ : state) {
        const FleetResult r = runNetperfRrFleet(cfg);
        tx = r.transactions;
        benchmark::DoNotOptimize(tx);
        benchmark::DoNotOptimize(r.checksum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tx));
}

void
BM_FleetScale64(benchmark::State &state)
{
    fleetScaleBench(state, 64);
}
BENCHMARK(BM_FleetScale64)->Unit(benchmark::kMillisecond);

void
BM_FleetScale256(benchmark::State &state)
{
    fleetScaleBench(state, 256);
}
BENCHMARK(BM_FleetScale256)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
