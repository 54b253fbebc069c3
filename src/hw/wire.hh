/**
 * @file
 * The 10 GbE link between the server under test and the client
 * machine, plus a model of the client.
 *
 * The paper runs clients natively on a dedicated machine and ensures
 * they are never saturated, so the client needs no CPU contention
 * model: it is a fixed processing delay plus the wire. The testbed's
 * interconnect (HP Moonshot 45XGc switch) is modelled as isolated,
 * per the paper's claim that cross-traffic was negligible.
 */

#ifndef VIRTSIM_HW_WIRE_HH
#define VIRTSIM_HW_WIRE_HH

#include <functional>

#include "hw/nic.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * Point-to-point link with fixed one-way latency. Endpoints are
 * callbacks installed by the server NIC glue and the client model.
 */
class Wire
{
  public:
    using Endpoint = std::function<void(Cycles, const Packet &)>;

    /** probe is optional: when given, each transit stamps a causal
     *  edge ("edge.wire") linking tx and rx across the link. */
    Wire(EventQueue &eq, MetricsDomain &counters,
         Cycles one_way_latency, Probe *probe = nullptr);

    void setServerEndpoint(Endpoint e) { toServer = std::move(e); }
    void setClientEndpoint(Endpoint e) { toClient = std::move(e); }

    /** Client -> server direction; the packet arrives at
     *  t + oneWayLatency(). @pre t >= now. */
    void sendToServer(Cycles t, const Packet &pkt);

    /** Server -> client direction. @pre t >= now. */
    void sendToClient(Cycles t, const Packet &pkt);

    Cycles oneWayLatency() const { return latency; }

  private:
    MetricsDomain &counters;
    Cycles latency;
    Probe *probe; ///< may be null (standalone wire)
    Endpoint toServer;
    Endpoint toClient;
    EventQueue &eq;
};

} // namespace virtsim

#endif // VIRTSIM_HW_WIRE_HH
