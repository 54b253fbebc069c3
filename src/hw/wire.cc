#include "hw/wire.hh"

#include "sim/attrib.hh"
#include "sim/log.hh"

namespace virtsim {

namespace {

struct WireTaps
{
    TapId toServer = internTap("wire.to_server");
    TapId toClient = internTap("wire.to_client");
};

const WireTaps &
wireTaps()
{
    static const WireTaps taps;
    return taps;
}

} // namespace

Wire::Wire(EventQueue &eq, MetricsDomain &counters,
           Cycles one_way_latency, Probe *probe)
    : eq(eq), counters(counters), latency(one_way_latency), probe(probe)
{
    wireTaps(); // intern before a sharded run freezes the counters
}

void
Wire::sendToServer(Cycles t, const Packet &pkt)
{
    VIRTSIM_ASSERT(toServer, "wire has no server endpoint");
    counters.counter(wireTaps().toServer).inc();
    std::uint64_t token = 0;
    if (probe)
        token = probe->trace.edgeOut(t, edgeWireTap(), TraceCat::Io);
    EventFn deliver = [this, t, pkt, token] {
        if (probe) {
            probe->trace.edgeIn(t + latency, token, edgeWireTap(),
                                TraceCat::Io);
            // Request-phase view of the traversal. CPU 0: the wire
            // is the single-flow testbed worlds' one wire, and their
            // workload runs on CPU 0.
            probe->latency.record(0, LatencyPhase::WireFlight,
                                  latency);
        }
        toServer(t + latency, pkt);
    };
    if (chToServer)
        chToServer->send(t + latency, std::move(deliver));
    else
        eq.scheduleAt(t + latency, std::move(deliver));
}

void
Wire::sendToClient(Cycles t, const Packet &pkt)
{
    VIRTSIM_ASSERT(toClient, "wire has no client endpoint");
    counters.counter(wireTaps().toClient).inc();
    std::uint64_t token = 0;
    if (probe)
        token = probe->trace.edgeOut(t, edgeWireTap(), TraceCat::Io);
    EventFn deliver = [this, t, pkt, token] {
        if (probe) {
            probe->trace.edgeIn(t + latency, token, edgeWireTap(),
                                TraceCat::Io);
            probe->latency.record(0, LatencyPhase::WireFlight,
                                  latency);
        }
        toClient(t + latency, pkt);
    };
    if (chToClient)
        chToClient->send(t + latency, std::move(deliver));
    else
        eq.scheduleAt(t + latency, std::move(deliver));
}

} // namespace virtsim
