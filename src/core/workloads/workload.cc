#include "core/workloads/workload.hh"

#include <algorithm>

#include "core/workloads/apache.hh"
#include "core/workloads/hackbench.hh"
#include "core/workloads/kernbench.hh"
#include "core/workloads/memcached.hh"
#include "core/workloads/mysql.hh"
#include "core/workloads/netperf_workloads.hh"
#include "core/workloads/specjvm.hh"
#include "os/kernel.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

struct AppTaps
{
    TapId retransmits = internTap("app.retransmits");
    TapId completed = internTap("app.completed");
};

} // namespace

double
runCpuWorkload(Testbed &tb, const CpuWorkloadParams &p)
{
    tb.beginRun();
    const Frequency f = tb.freq();
    Random &rng = tb.random();
    const Cycles window = f.cyclesFromSeconds(p.windowSeconds);
    Hypervisor *hv = tb.hypervisor();
    const NetstackCosts &net = tb.netCosts();

    // Saturate every logical CPU with the useful work for the whole
    // window; kernel events then charge on top, pushing completion
    // out. (Charges on a busy CPU are additive, so this composes
    // exactly.)
    for (int c = 0; c < tb.width(); ++c)
        tb.charge(0, c, window);

    // Timer ticks: periodic per CPU. Virtualized, the virtual timer
    // fires a physical interrupt the hypervisor translates and
    // injects (Section II); the guest then completes the virtual
    // interrupt.
    const Cycles tick_gap =
        static_cast<Cycles>(f.cyclesFromSeconds(1.0 / p.tickHz));
    for (int c = 0; c < tb.width(); ++c) {
        for (Cycles t = tick_gap; t < window; t += tick_gap) {
            const int lcpu = c;
            tb.queue().scheduleAt(t, [&tb, hv, lcpu, t, &net] {
                if (tb.virtualized()) {
                    hv->injectVirq(t, tb.guest()->vcpu(lcpu),
                                   ppiVtimerIrq,
                                   [&tb, lcpu](Cycles ti) {
                                       tb.completeVirq(ti, lcpu,
                                                       [](Cycles) {});
                                   });
                } else {
                    tb.charge(t, lcpu, net.irqPath);
                }
            });
        }
    }

    // Sensitive traps (fresh-page faults, emulated instructions):
    // handled by the hypervisor when virtualized (a full transition
    // on KVM, an EL2-local one on Xen), by the kernel natively.
    const Cycles trap_work = f.cycles(p.trapWorkUs);
    for (int c = 0; c < tb.width(); ++c) {
        if (p.sensitiveTrapsPerSec <= 0)
            break;
        const double mean_gap_us = 1e6 / p.sensitiveTrapsPerSec;
        double t_us = rng.exponential(mean_gap_us);
        while (f.cycles(t_us) < window) {
            const Cycles t = f.cycles(t_us);
            const int lcpu = c;
            tb.queue().scheduleAt(t, [&tb, hv, lcpu, t, trap_work] {
                if (tb.virtualized()) {
                    hv->hypercall(t, tb.guest()->vcpu(lcpu),
                                  [&tb, lcpu, trap_work](Cycles t1) {
                                      tb.charge(t1, lcpu, trap_work);
                                  });
                } else {
                    tb.charge(t, lcpu, trap_work);
                }
            });
            t_us += rng.exponential(mean_gap_us);
        }
    }

    // Rescheduling IPIs between CPUs (wakeups across cores).
    for (int c = 0; c < tb.width(); ++c) {
        if (p.ipisPerSec <= 0)
            break;
        const double mean_gap_us = 1e6 / p.ipisPerSec;
        double t_us = rng.exponential(mean_gap_us);
        while (f.cycles(t_us) < window) {
            const Cycles t = f.cycles(t_us);
            const int src = c;
            const int dst = (c + 1) % tb.width();
            tb.queue().scheduleAt(t, [&tb, src, dst, t] {
                tb.sendIpi(t, src, dst, [&tb, dst](Cycles ti) {
                    tb.completeVirq(ti, dst, [](Cycles) {});
                });
            });
            t_us += rng.exponential(mean_gap_us);
        }
    }

    tb.run();

    // Completion time = the slowest CPU's frontier.
    Cycles done = 0;
    for (int c = 0; c < tb.width(); ++c)
        done = std::max(done, tb.frontier(c));
    VIRTSIM_ASSERT(done >= window, "cpu workload finished early");
    // Useful work per second of wall time.
    return static_cast<double>(window) / f.seconds(done);
}

double
runRequestResponse(Testbed &tb, const ServerAppParams &p)
{
    static const AppTaps taps;
    MetricsDomain &counters = tb.machine().counters();
    tb.beginRun();
    const Frequency f = tb.freq();
    const NetstackCosts &net = tb.netCosts();
    const Cycles t_start = f.cycles(300.0);
    const Cycles window = f.cyclesFromSeconds(p.windowSeconds);
    const Cycles t_end = t_start + window;

    std::uint64_t next_flow = 1;
    std::uint64_t completed = 0;
    std::uint64_t completed_in_window = 0;
    std::uint64_t retransmits = 0;
    // Remaining response bytes the client expects, per flow.
    std::map<std::uint64_t, std::int64_t> expecting;
    // Last time each outstanding flow made progress (for RTO).
    std::map<std::uint64_t, Cycles> lastProgress;

    auto issue_request = [&](Cycles t) {
        Packet req;
        req.flow = next_flow++;
        req.bytes = p.requestBytes;
        req.born = t;
        expecting[req.flow] =
            static_cast<std::int64_t>(p.responseBytes);
        lastProgress[req.flow] = t;
        tb.clientSend(t, req);
    };

    // TCP retransmission: a request or response lost to a queue
    // overflow would otherwise strand its client slot forever. The
    // RTO adapts to the workload's round-trip scale, as TCP's does.
    const Cycles rto = f.cycles(
        4000.0 + 8.0 * p.concurrency * p.appWorkUs / tb.width());
    std::function<void(Cycles)> rto_sweep = [&](Cycles t) {
        for (auto &kv : expecting) {
            if (t - lastProgress[kv.first] > rto) {
                Packet req;
                req.flow = kv.first;
                req.bytes = p.requestBytes;
                req.born = t;
                kv.second =
                    static_cast<std::int64_t>(p.responseBytes);
                lastProgress[kv.first] = t;
                ++retransmits;
                counters.counter(taps.retransmits).inc();
                tb.clientSend(t, req);
            }
        }
        if (t < t_end + rto) {
            tb.queue().scheduleAt(t + rto / 2, [&rto_sweep, t, rto] {
                rto_sweep(t + rto / 2);
            });
        }
    };

    // Server: inbound events land on the interrupt-target VCPU; the
    // request is then serviced on a worker chosen round-robin, and
    // the response streams back in TSO segments.
    // Per-flow rx processing spreads across CPUs (RSS/RPS), which is
    // why the paper found native performance insensitive to device
    // IRQ placement. What the E5 ablation moves is the *virtual
    // interrupt delivery* cost, which the hypervisor places on VCPU0
    // by default — the paper's identified bottleneck.
    auto rx_lcpu = [&](const Packet &pkt) {
        return static_cast<int>(
            pkt.flow % static_cast<std::uint64_t>(tb.width()));
    };
    constexpr std::uint64_t ackFlag = 1ULL << 62;
    tb.onVmRx = [&](Cycles t, const Packet &pkt) {
        if (pkt.flow & ackFlag) {
            // Client ACK: rx processing only.
            tb.charge(t, rx_lcpu(pkt), f.cycles(0.35));
            return;
        }
        // Request: softirq + socket delivery on the irq VCPU...
        const Cycles t1 = tb.charge(
            t, rx_lcpu(pkt), net.rxStack + f.cycles(p.rxSoftirqUs));
        // ... then application work on a worker.
        const int worker = static_cast<int>(pkt.flow %
                                            static_cast<std::uint64_t>(
                                                tb.width()));
        const std::uint64_t flow = pkt.flow;
        tb.queue().scheduleAt(t1, [&, t1, worker, flow] {
            const Cycles t2 = tb.charge(
                t1, worker, net.socketWake + f.cycles(p.appWorkUs));
            // Response: segment and transmit from the worker. The
            // TSO-autosizing regression needs a sustained rate
            // estimate to bite; short per-connection response bursts
            // still go out at full TSO size (unlike the MAERTS
            // stream).
            auto segs = tsoSegments(p.responseBytes, net.tsoBytes);
            tb.queue().scheduleAt(t2, [&, t2, worker, flow,
                                       segs = std::move(segs)] {
                Cycles t_tx = t2;
                for (const std::uint32_t bytes : segs) {
                    const int frames = framesFor(bytes);
                    t_tx = tb.charge(
                        t_tx, worker,
                        net.txStack / 2 +
                            static_cast<Cycles>(frames) *
                                net.perTsoFrame);
                    Packet seg;
                    seg.flow = flow;
                    seg.bytes = bytes;
                    seg.born = t_tx;
                    tb.send(t_tx, worker, seg, [](Cycles) {});
                }
            });
        });
    };

    // Client: tracks response completion, sends delayed acks, and
    // keeps the closed loop going. Fully deterministic so native and
    // virtualized runs are exactly comparable.
    std::map<std::uint64_t, std::uint64_t> acked;
    tb.onClientRx = [&](Cycles t, const Packet &pkt) {
        auto it = expecting.find(pkt.flow);
        if (it == expecting.end())
            return;
        it->second -= static_cast<std::int64_t>(pkt.bytes);
        lastProgress[pkt.flow] = t;
        // Delayed-ack traffic back to the server: one ack per
        // 1/acksPerResponse of the response.
        if (p.acksPerResponse > 0 && p.responseBytes > 0) {
            const std::uint64_t ack_every =
                p.responseBytes /
                static_cast<std::uint64_t>(p.acksPerResponse);
            auto &a = acked[pkt.flow];
            a += pkt.bytes;
            int nth = 0;
            while (a >= ack_every && ack_every > 0) {
                a -= ack_every;
                // Acks pace out as the response data drains off the
                // wire, each arriving as its own event at the server.
                const Cycles when = t + f.cycles(4.0 * nth++);
                Packet ack;
                ack.flow = pkt.flow | ackFlag;
                ack.bytes = 60;
                ack.born = when;
                tb.queue().scheduleAt(when, [&tb, when, ack] {
                    tb.clientSend(when, ack);
                });
            }
        }
        if (it->second > 0)
            return;
        expecting.erase(it);
        acked.erase(pkt.flow);
        lastProgress.erase(pkt.flow);
        ++completed;
        counters.counter(taps.completed).inc();
        if (t >= t_start && t < t_end)
            ++completed_in_window;
        if (t < t_end + tb.wireLatency()) {
            // Deterministic per-flow jitter keeps the client
            // population desynchronized (a synchronized closed loop
            // convoys and under-utilizes the server).
            const std::uint64_t h =
                (pkt.flow & ~ackFlag) * 2654435761ULL;
            const double factor =
                0.5 + static_cast<double>((h >> 16) & 1023) / 1024.0;
            const Cycles think = f.cycles(p.clientThinkUs * factor);
            tb.queue().scheduleAt(t + think, [&, t, think] {
                issue_request(t + think);
            });
        }
    };

    // Stagger the initial population across one service period so
    // the loop starts desynchronized.
    tb.queue().scheduleAt(t_start, [&, t_start] {
        // Arrive at twice the service capacity so queues form
        // immediately and the servers never starve during ramp-up.
        const Cycles stride =
            f.cycles(p.appWorkUs / tb.width() / 2.0) + 1;
        for (int i = 0; i < p.concurrency; ++i) {
            const Cycles at = t_start + stride * static_cast<Cycles>(i);
            tb.queue().scheduleAt(at, [&, at] { issue_request(at); });
        }
        rto_sweep(t_start + rto);
    });
    tb.run();

    VIRTSIM_ASSERT(completed > 0, "server workload completed nothing");
    return static_cast<double>(completed_in_window) / p.windowSeconds;
}

std::vector<std::unique_ptr<Workload>>
standardAppWorkloads()
{
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<KernbenchWorkload>());
    v.push_back(std::make_unique<HackbenchWorkload>());
    v.push_back(std::make_unique<SpecJvmWorkload>());
    v.push_back(std::make_unique<ApacheWorkload>());
    v.push_back(std::make_unique<MemcachedWorkload>());
    v.push_back(std::make_unique<MySqlWorkload>());
    return v;
}

std::vector<std::unique_ptr<Workload>>
figure4Workloads()
{
    std::vector<std::unique_ptr<Workload>> v;
    v.push_back(std::make_unique<KernbenchWorkload>());
    v.push_back(std::make_unique<HackbenchWorkload>());
    v.push_back(std::make_unique<SpecJvmWorkload>());
    v.push_back(std::make_unique<TcpRrWorkload>());
    v.push_back(std::make_unique<TcpStreamWorkload>());
    v.push_back(std::make_unique<TcpMaertsWorkload>());
    v.push_back(std::make_unique<ApacheWorkload>());
    v.push_back(std::make_unique<MemcachedWorkload>());
    v.push_back(std::make_unique<MySqlWorkload>());
    return v;
}

} // namespace virtsim
