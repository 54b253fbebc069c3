#include "core/netperf.hh"

#include <vector>

#include "os/kernel.hh"
#include "sim/latency.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

/** The Table V instrumentation points (the paper's tcpdump taps),
 *  stamped into the machine's trace sink per transaction. */
struct RrTaps
{
    TapId hostRx = internTap("host.datalink.rx");   ///< "recv"
    TapId vmRx = internTap("vm.driver.rx");         ///< "VM recv"
    TapId vmTx = internTap("vm.driver.tx");         ///< "VM send"
    TapId serverTx = internTap("host.datalink.tx"); ///< "send"
    /** Causal envelope for one server-side transaction (recv ->
     *  send), rooting its world switches and backend work in blame
     *  reports and flamegraphs. */
    TapId opTcpRr = internTap("op.tcp_rr");
};

const RrTaps &
rrTaps()
{
    static const RrTaps taps;
    return taps;
}

/** Machine counters of every frame the receive path drops: NIC ring
 *  overflow and the netback / vhost backends' backlog and ring-full
 *  drops. */
struct RxDropTaps
{
    TapId nic = internTap("nic.rx_dropped");
    TapId netbackNoRequest = internTap("netback.rx_no_request");
    TapId netbackBacklog = internTap("netback.rx_backlog_dropped");
    TapId vhostNoDescriptor = internTap("vhost.rx_no_descriptor");
    TapId vhostBacklog = internTap("vhost.rx_backlog_dropped");
};

/** Per-transaction timestamps, rebuilt from the trace after the run. */
struct RrStamps
{
    Cycles hostRx = 0;    ///< server datalink rx ("recv")
    Cycles vmRx = 0;      ///< VM driver rx ("VM recv")
    Cycles vmSend = 0;    ///< VM driver tx ("VM send")
    Cycles serverTx = 0;  ///< server datalink tx ("send")
};

} // namespace

NetperfRrResult
runNetperfRr(Testbed &tb, NetperfRrConfig cfg)
{
    const int total = cfg.transactions + cfg.warmup;
    const NetstackCosts &net = tb.netCosts();
    const Frequency f = tb.freq();
    const RrTaps &taps = rrTaps();

    tb.beginRun();

    // The Table V decomposition is computed from trace records, so
    // recording must be on for this run even when VIRTSIM_TRACE is
    // unset. A virtualized transaction emits a few dozen records
    // (world-switch spans, vIRQ instants, I/O instants) on top of the
    // four taps; size the ring so nothing this run needs is dropped.
    TraceSink &sink = tb.trace();
    const bool was_enabled = sink.enabled();
    // A fully instrumented transaction writes ~62 records (measured
    // on KVM and Xen); 96 leaves headroom without over-allocating.
    const std::size_t needed =
        static_cast<std::size_t>(total + 16) * 96;
    if (sink.capacity() < needed)
        sink.setCapacity(needed);
    sink.enable();
    const std::uint64_t mark = sink.total();

    // The netperf server blocks in recv() between transactions.
    tb.setIdle(0, true);

    std::uint64_t current = 0; // transaction id
    // Server-side arrival time per in-flight transaction, for the
    // op.tcp_rr envelope emitted when the reply hits the datalink.
    std::vector<Cycles> rxAt(static_cast<std::size_t>(total), 0);

    tb.onHostRx = [&](Cycles t, const Packet &pkt) {
        sink.stamp(t, pkt.flow, taps.hostRx);
        if (pkt.flow < rxAt.size())
            rxAt[static_cast<std::size_t>(pkt.flow)] = t;
    };

    tb.onVmRx = [&](Cycles t, const Packet &pkt) {
        const std::uint64_t id = pkt.flow;
        sink.stamp(t, id, taps.vmRx);
        tb.setIdle(0, false);
        // Guest side: stack rx, wake netserver, echo, stack tx.
        Cycles work = net.rxStack + net.socketWake +
                      f.cycles(cfg.appEchoUs) + net.txStack;
        if (tb.virtualized())
            work += net.guestResidual;
        const Cycles t1 = tb.charge(t, 0, work);
        tb.queue().scheduleAt(t1, [&tb, &sink, &taps, &rxAt, id, t1] {
            sink.stamp(t1, id, taps.vmTx);
            Packet reply;
            reply.flow = id;
            reply.bytes = 1;
            reply.born = t1;
            tb.send(t1, 0, reply,
                    [&tb, &sink, &taps, &rxAt, id](Cycles t2) {
                sink.stamp(t2, id, taps.serverTx);
                if (id < rxAt.size() && rxAt[id] > 0)
                    sink.span(rxAt[id], t2, taps.opTcpRr, TraceCat::Op,
                              noTrack, id);
                // Server application blocks in recv() again.
                tb.setIdle(0, true);
            });
        });
    };

    // Request-latency tracker (armed by VIRTSIM_LATENCY through
    // Testbed::applyObservability; a predicted branch otherwise).
    // The client-side stamps live here: RTT from the departure
    // bookkeeping below, think time when the next request is
    // scheduled. Warmup transactions are excluded, matching the
    // Table V window.
    RequestTracker &lat = tb.machine().probe().latency;
    const auto warmupU = static_cast<std::uint64_t>(cfg.warmup);
    Cycles lastSend = 0; ///< client departure of the in-flight txn

    // The client: receives the echo, thinks, sends the next request.
    auto send_request = [&tb, &current, &lastSend](Cycles t) {
        Packet req;
        req.flow = current;
        req.bytes = 1;
        req.born = t;
        lastSend = t;
        tb.clientSend(t, req);
    };

    tb.onClientRx = [&](Cycles t, const Packet &) {
        if (current >= warmupU && lastSend > 0)
            lat.record(0, LatencyPhase::Rtt, t - lastSend);
        ++current;
        if (current >= static_cast<std::uint64_t>(total))
            return;
        const Cycles think = f.cycles(cfg.clientProcessUs);
        if (current >= warmupU)
            lat.record(0, LatencyPhase::ClientThink, think);
        tb.queue().scheduleAt(t + think, [&send_request, t, think] {
            send_request(t + think);
        });
    };

    // Kick off after a settling period.
    const Cycles t_start = f.cycles(100.0);
    tb.queue().scheduleAt(t_start,
                          [&send_request, t_start] {
                              send_request(t_start);
                          });
    tb.run();

    VIRTSIM_ASSERT(current >= static_cast<std::uint64_t>(total),
                   "TCP_RR incomplete: ", current, " of ", total);
    if (sink.dropped() > 0) {
        warn("TCP_RR trace ring overflowed (", sink.dropped(),
             " records dropped); Table V legs may be incomplete");
    }

    // Rebuild the per-transaction timestamps from the trace.
    std::vector<RrStamps> stamps(static_cast<std::size_t>(total));
    sink.forEachSince(mark, [&stamps, &taps](const TraceRecord &r) {
        if (r.kind != TraceKind::Instant || r.cat != TraceCat::Tap)
            return;
        if (r.arg >= stamps.size())
            return;
        RrStamps &s = stamps[static_cast<std::size_t>(r.arg)];
        if (r.tap == taps.hostRx)
            s.hostRx = r.when;
        else if (r.tap == taps.vmRx)
            s.vmRx = r.when;
        else if (r.tap == taps.vmTx)
            s.vmSend = r.when;
        else if (r.tap == taps.serverTx)
            s.serverTx = r.when;
    });
    if (!was_enabled)
        sink.disable();

    // Aggregate the measured window (skip warmup). Legs accumulate
    // in cycle-valued LatencyHistograms rather than SampleStat: the
    // sums (and so the Table V means) stay exact integers, memory
    // stays bounded at any transaction count, and the same
    // histograms answer tail-quantile queries.
    NetperfRrResult out;
    LatencyHistogram s2r, r2s, r2vr, vr2vs, vs2s;
    const auto meanUs = [&f](const LatencyHistogram &h) {
        return h.empty() ? 0.0
                         : f.us(h.sum()) /
                               static_cast<double>(h.count());
    };
    for (int i = cfg.warmup; i < total; ++i) {
        const auto &s = stamps[static_cast<std::size_t>(i)];
        VIRTSIM_ASSERT(s.serverTx > 0,
                       "TCP_RR txn ", i, " missing from trace");
        VIRTSIM_ASSERT(s.serverTx >= s.vmSend &&
                       s.vmSend >= s.vmRx && s.vmRx >= s.hostRx,
                       "TCP_RR stamp ordering broken at txn ", i);
        r2s.add(s.serverTx - s.hostRx);
        r2vr.add(s.vmRx - s.hostRx);
        vr2vs.add(s.vmSend - s.vmRx);
        vs2s.add(s.serverTx - s.vmSend);
        // Request-phase view of the same stamps: hypervisor delivery
        // to the VM driver is the queueing leg, the VM-internal echo
        // is the service leg.
        lat.record(0, LatencyPhase::ServerQueue, s.vmRx - s.hostRx);
        lat.record(0, LatencyPhase::Service, s.vmSend - s.vmRx);
        if (i > cfg.warmup) {
            const auto &prev = stamps[static_cast<std::size_t>(i - 1)];
            s2r.add(s.hostRx - prev.serverTx);
        }
    }
    const auto &first = stamps[static_cast<std::size_t>(cfg.warmup)];
    const auto &last = stamps[static_cast<std::size_t>(total - 1)];
    const double span_us = f.us(last.serverTx - first.serverTx);
    out.timePerTransUs = span_us / (cfg.transactions - 1);
    out.transPerSec = 1e6 / out.timePerTransUs;
    out.sendToRecvUs = meanUs(s2r);
    out.recvToSendUs = meanUs(r2s);
    if (tb.virtualized()) {
        out.recvToVmRecvUs = meanUs(r2vr);
        out.vmRecvToVmSendUs = meanUs(vr2vs);
        out.vmSendToSendUs = meanUs(vs2s);
    }
    return out;
}

NetperfStreamResult
runNetperfStream(Testbed &tb, NetperfStreamConfig cfg)
{
    tb.beginRun();
    const NetstackCosts &net = tb.netCosts();
    const Frequency f = tb.freq();

    const Cycles t_start = f.cycles(200.0);
    const Cycles window = f.cyclesFromSeconds(cfg.windowSeconds);
    std::uint64_t delivered_bytes = 0;
    tb.onVmRx = [&](Cycles t, const Packet &pkt) {
        if (t >= t_start + window)
            return;
        // Guest stack processes the (possibly GRO-coalesced)
        // aggregate and delivers to the netperf sink.
        const int frames = framesFor(pkt.bytes);
        Cycles work = net.rxStack +
                      static_cast<Cycles>(frames - 1) * net.perGroFrame +
                      f.cycles(cfg.appConsumeUs);
        if (tb.virtualized())
            work += net.guestResidual / 4; // amortized, no wakeups
        tb.charge(t, 0, work);
        delivered_bytes += pkt.bytes;
    };

    // The client saturates the wire with MTU frames for the window.
    // All frames belong to the single netperf TCP connection (one
    // flow), which is what lets GRO coalesce them.
    const Cycles frame_gap =
        f.cyclesFromNs(NetstackCosts::mtuBytes * 8.0 / 10.0);
    std::uint64_t seq = 0;
    for (Cycles t = t_start; t < t_start + window; t += frame_gap) {
        Packet pkt;
        pkt.flow = 1;
        pkt.seq = seq++;
        pkt.bytes = NetstackCosts::mtuBytes;
        pkt.born = t;
        tb.clientSend(t, pkt);
    }
    tb.run();

    NetperfStreamResult out;
    out.bytesDelivered = delivered_bytes;
    out.seconds = cfg.windowSeconds;
    out.gbps = static_cast<double>(delivered_bytes) * 8.0 /
               cfg.windowSeconds / 1e9;
    static const RxDropTaps drops;
    const MetricsDomain &counters = tb.machine().counters();
    out.framesDropped = counters.value(drops.nic) +
                        counters.value(drops.netbackNoRequest) +
                        counters.value(drops.netbackBacklog) +
                        counters.value(drops.vhostNoDescriptor) +
                        counters.value(drops.vhostBacklog);
    return out;
}

NetperfStreamResult
runNetperfMaerts(Testbed &tb, NetperfStreamConfig cfg)
{
    tb.beginRun();
    const NetstackCosts &net = tb.netCosts();
    const Frequency f = tb.freq();
    const std::uint32_t seg_bytes = tb.tsoBytes();

    std::uint64_t client_bytes = 0;
    std::uint64_t flow = 0;
    const Cycles t_start = f.cycles(200.0);
    const Cycles window = f.cyclesFromSeconds(cfg.windowSeconds);
    bool stop = false;

    // Server transmit routine: TCP segmentation + stack + send.
    std::function<void(Cycles)> send_segment = [&](Cycles t) {
        if (stop)
            return;
        Packet seg;
        seg.flow = flow++;
        seg.bytes = seg_bytes;
        seg.born = t;
        const int frames = framesFor(seg.bytes);
        // The first send pays the cold socket path; a hot
        // tcp_sendmsg loop on small (regressed) segments costs far
        // less per call.
        const Cycles stack = flow == 0 ? net.txStack : f.cycles(2.2);
        Cycles work = stack +
                      static_cast<Cycles>(frames - 1) * net.perTsoFrame;
        if (tb.virtualized())
            work += net.guestResidual / 4;
        const Cycles t1 = tb.charge(t, 0, work);
        tb.queue().scheduleAt(t1, [&, t1, seg] {
            tb.send(t1, 0, seg, [](Cycles) {});
        });
    };

    tb.onClientRx = [&](Cycles t, const Packet &pkt) {
        if (t >= t_start + window) {
            stop = true;
            return;
        }
        client_bytes += pkt.bytes;
        // TCP self-clocking: an ack opens window for the next
        // segment.
        send_segment(t);
    };

    tb.queue().scheduleAt(t_start, [&, t_start] {
        for (int i = 0; i < cfg.inflightSegments; ++i)
            send_segment(t_start);
    });
    tb.run();

    NetperfStreamResult out;
    out.bytesDelivered = client_bytes;
    out.seconds = cfg.windowSeconds;
    out.gbps = static_cast<double>(client_bytes) * 8.0 /
               cfg.windowSeconds / 1e9;
    return out;
}

} // namespace virtsim
