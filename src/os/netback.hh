/**
 * @file
 * Xen's Dom0 network backend (netback).
 *
 * All Xen I/O flows through Dom0 (Section II): the physical driver
 * and network stack live there, and netback shuttles frames between
 * them and the DomU frontend over PV rings. Crucially, netback cannot
 * touch DomU memory directly — every payload crosses the isolation
 * boundary via a grant copy (hv/grant_table.hh), at frame granularity
 * on the receive path. This is the mechanism behind the paper's
 * TCP_STREAM finding (">250% overhead ... due to Xen's lack of
 * zero-copy I/O support ... particularly on the network receive
 * path") and the >3 us per-copy latency in the Table V analysis.
 */

#ifndef VIRTSIM_OS_NETBACK_HH
#define VIRTSIM_OS_NETBACK_HH

#include <deque>
#include <functional>

#include "hv/grant_table.hh"
#include "hv/xen_pv.hh"
#include "hw/machine.hh"
#include "os/kernel.hh"
#include "os/netstack.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * The netback instance serving one DomU.
 */
class NetbackBackend
{
  public:
    struct Params
    {
        /** Dom0 VCPU0's physical CPU (driver + netback kthread). */
        PcpuId dom0Pcpu = 4;
        /** Dom0 bridge traversal, each direction. [calibrated] with
         *  Table V's recv-to-VM-recv (25.9 us). */
        double dom0BridgeUs = 3.6;
        /** netback per-frame rx processing besides grant work (ring
         *  handling, response construction). [calibrated] */
        double netbackRxWorkUs = 2.0;
        /** netback per-kick tx processing (skb setup, scheduling).
         *  [calibrated] with Table V's VM-send-to-send (21.4 us). */
        double netbackTxWorkUs = 4.4;
        /** Marginal tx work per segment inside a hot batch. */
        double netbackTxBatchedUs = 1.0;
        /** Dom0 physical driver xmit path per kick. */
        double dom0XmitUs = 2.4;
        /** Hot-path handling of a tiny (ack-sized) frame: the
         *  cold per-packet stack+bridge costs amortize away. */
        double smallFrameHotUs = 1.8;
        /** NAPI-to-netback kthread handoff inside Dom0.
         *  [calibrated] */
        double kthreadWakeUs = 2.0;
        /**
         * Use grant *mapping* instead of grant copies (the zero-copy
         * design Xen abandoned; E6 ablation). Map + unmap replaces
         * the copy, trading memcpy for TLB maintenance.
         */
        bool zeroCopyGrants = false;
    };

    NetbackBackend(Machine &m, Vm &dom0, Vm &domU,
                   const NetstackCosts &net, Params params);

    /**
     * Receive path inside Dom0: from the Dom0 datalink-rx point
     * (caller stamps it) through stack, bridge, netback and the grant
     * copy into a DomU buffer. When the response is on the PV ring
     * and netback would notify the frontend, the frame and ready go
     * to the rx sink (setRxSink), or ready(t) fires if none is set.
     */
    void dom0RxToDomU(Cycles t, const Packet &pkt,
                      bool aggregate_leader,
                      std::function<void(Cycles)> ready);

    /** Takes each delivered frame with the continuation dom0RxToDomU
     *  was given (the hypervisor's guest notification). Set once, so
     *  no frame wraps its continuation in another closure. */
    using RxSink = std::function<void(Cycles, const Packet &,
                                      std::function<void(Cycles)>)>;
    void setRxSink(RxSink sink) { rxSink = std::move(sink); }

    /** Depth of the netback rx work queue (for tests). */
    std::size_t rxBacklogDepth() const { return rxJobs.size(); }

    /**
     * Transmit path: a frontend tx request is on the ring (the
     * event channel kick has been delivered to Dom0); netback pops
     * it, grant-copies the payload into Dom0, forwards through the
     * bridge and rings the NIC doorbell. on_datalink_tx fires at the
     * physical "send" tap. The first request after a kick pays the
     * cold path; queue-driven followers amortize.
     */
    void domUTx(Cycles t,
                std::function<void(Cycles, const Packet &)>
                    on_datalink_tx);

    /** Note an event-channel kick: the next domUTx is a cold run. */
    void markTxKick() { txFresh = true; }

    XenPvRing &rxRing() { return rx; }
    XenPvRing &txRing() { return tx; }
    GrantTable &grantTable() { return grants; }

    const Params &params() const { return p; }

    /**
     * Cycle cost of one payload transfer across the isolation
     * boundary under the active policy (copy vs map/unmap).
     * @param batched whether this op rides in a multi-op
     *        GNTTABOP_copy hypercall (amortized fixed cost) — true
     *        for all but the first op of a batch.
     */
    Cycles transferCost(GrantRef ref, std::uint32_t bytes,
                        bool batched = false);

    /** Amortized per-op cost inside a batched grant-copy hypercall.
     *  [calibrated] grant validation + mapping, no hypercall entry. */
    Cycles grantCopyBatchedFixedCost() const;

  private:
    struct RxJob
    {
        Packet pkt;
        bool leader;
        std::function<void(Cycles)> ready;
        /** Causal-edge token: NAPI handoff -> netback kthread. */
        std::uint64_t edgeToken = 0;
    };

    /** Process one queued rx aggregate at the netback kthread's
     *  actual execution time, so ring state advances in step with
     *  simulated time. */
    void pumpRx(Cycles t);

    Machine &mach;
    Vm &dom0;
    Vm &domU;
    NetstackCosts net;
    Params p;
    GrantTable grants;
    XenPvRing rx;
    XenPvRing tx;
    std::deque<RxJob> rxJobs;
    RxSink rxSink;
    bool rxPumpActive = false;
    bool txFresh = true;
    bool rxFresh = true;
    Cycles lastRxAt = 0;
    bool everRx = false;
    Cycles lastTxAt = 0;
    bool everTx = false;
    /** Cap on queued aggregates: beyond it the driver drops (the
     *  receive-livelock guard real netback applies). */
    static constexpr std::size_t rxJobCap = 256;
};

} // namespace virtsim

#endif // VIRTSIM_OS_NETBACK_HH
