/**
 * @file
 * Xen PV transport: shared-memory I/O rings between a DomU frontend
 * and the Dom0 backend, plus event channels for notification.
 *
 * Unlike virtio (hv/virtio.hh), a request's payload is not directly
 * reachable by the backend: each request carries a grant reference
 * and the backend must map or grant-copy it (hv/grant_table.hh) —
 * Xen's strict I/O isolation policy, which the paper identifies as
 * the root cause of its I/O overheads.
 */

#ifndef VIRTSIM_HV_XEN_PV_HH
#define VIRTSIM_HV_XEN_PV_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "hw/machine.hh"
#include "hw/nic.hh"
#include "hv/grant_table.hh"
#include "sim/types.hh"

namespace virtsim {

/** One PV ring request/response. */
struct PvRequest
{
    GrantRef gref = -1;
    Packet pkt{};
};

/**
 * A Xen PV I/O ring (one direction).
 */
class XenPvRing
{
  public:
    XenPvRing(Machine &m, std::size_t capacity = 256);

    /** Frontend (DomU) posts a request. @return cycle cost. */
    Cycles frontPost(const PvRequest &req);

    /** Backend (Dom0) pops a request. */
    Cycles backPop(PvRequest &out, bool &ok);

    /** Backend pushes a response. */
    Cycles backRespond(const PvRequest &req);

    /** Frontend reaps a response. */
    Cycles frontPopResponse(PvRequest &out, bool &ok);

    std::size_t requestDepth() const { return reqs.size(); }
    std::size_t responseDepth() const { return resps.size(); }
    bool full() const { return reqs.size() >= capacity; }

    Cycles ringOpCost() const;

  private:
    Machine &mach;
    std::size_t capacity;
    std::deque<PvRequest> reqs;
    std::deque<PvRequest> resps;
};

/**
 * Xen event channels: the notification fabric between domains and
 * the hypervisor. Setting a pending bit is cheap; the expensive part
 * — possibly having to schedule the target domain in from the idle
 * domain — is charged by XenHypervisor when delivering.
 */
class EventChannel
{
  public:
    explicit EventChannel(Machine &m);

    /** Allocate a channel between two endpoints. @return port. */
    int allocate();

    /** Mark the port pending. @return cycle cost of the set. */
    Cycles notify(int port);

    /** Consume a pending port. @return true if it was pending. */
    bool consume(int port);

    bool pending(int port) const;

  private:
    Machine &mach;
    std::vector<bool> bits;
};

} // namespace virtsim

#endif // VIRTSIM_HV_XEN_PV_HH
