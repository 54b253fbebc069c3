/**
 * @file
 * The VHOST in-kernel virtio backend — KVM's I/O engine in the
 * paper's configuration ("KVM was configured with its standard VHOST
 * networking feature, allowing data handling to occur in the kernel
 * instead of userspace", Section III).
 *
 * A vhost worker kthread, pinned to a host physical CPU outside the
 * VM's set (Section III pinning methodology), moves packets between
 * the host network stack (bridge + tap) and the guest's virtio rings.
 * Because the host kernel addresses all of machine memory, payload
 * moves are zero copy (hv/virtio.hh); the costs here are stack
 * traversal and worker processing, charged on the host CPUs so
 * saturation effects are real.
 */

#ifndef VIRTSIM_OS_VHOST_HH
#define VIRTSIM_OS_VHOST_HH

#include <deque>
#include <functional>

#include "hv/virtio.hh"
#include "hw/machine.hh"
#include "os/netstack.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * The vhost-net backend for one guest VM.
 */
class VhostBackend
{
  public:
    struct Params
    {
        /** Host CPU the vhost worker kthread is pinned to. */
        PcpuId workerPcpu = 4;
        /** Host CPU the physical NIC interrupt is steered to. */
        PcpuId hostIrqPcpu = 5;
        /** Host bridge + tap traversal, receive direction.
         *  [calibrated] with Table V's recv-to-VM-recv = 21.1 us. */
        double bridgeTapRxUs = 6.5;
        /** Bridge + tap, transmit direction. [calibrated] with
         *  Table V's VM-send-to-send = 15.0 us. */
        double bridgeTapTxUs = 3.6;
        /** vhost worker per-packet receive processing. */
        double vhostRxWorkUs = 2.2;
        /** vhost worker per-packet transmit processing (cold: kthread
         *  schedule + skb setup). */
        double vhostTxWorkUs = 2.2;
        /** Hot-path marginal tx work per packet while the worker is
         *  streaming. [calibrated] */
        double vhostTxHotUs = 1.2;
        /** Hot-path handling of a tiny (ack-sized) frame on the host
         *  softirq CPU: the cold per-packet stack+bridge amortizes. */
        double smallFrameHotUs = 1.5;
        /** Gap below which consecutive packets ride the hot paths. */
        double hotWindowUs = 30.0;
    };

    VhostBackend(Machine &m, Vm &guest, const NetstackCosts &net,
                 Params params);

    /**
     * Receive path: a frame the host driver has already pulled from
     * the NIC (datalink-rx stamped by the caller) travels through the
     * host stack, bridge and tap to the vhost worker, which places it
     * in the guest's rx ring. When the worker has pushed the
     * descriptor and would signal the guest, the frame and ready go
     * to the rx sink (setRxSink), or ready(t) fires if none is set.
     * @param t time at which host stack processing may start
     * @param aggregate_leader true for the first frame of a GRO
     *        aggregate (pays the full stack traversal); false for
     *        coalesced followers (marginal cost only)
     */
    void hostRxToGuest(Cycles t, const Packet &pkt, bool aggregate_leader,
                       std::function<void(Cycles)> ready);

    /** Takes each placed frame with the continuation hostRxToGuest
     *  was given (the hypervisor's guest notification). Set once, so
     *  no frame wraps its continuation in another closure. */
    using RxSink = std::function<void(Cycles, const Packet &,
                                      std::function<void(Cycles)>)>;
    void setRxSink(RxSink sink) { rxSink = std::move(sink); }

    /**
     * Transmit path: guest descriptors are already in the tx ring;
     * the worker (just signalled via ioeventfd) drains one, runs the
     * host tx stack and rings the NIC doorbell. on_datalink_tx(t)
     * fires at the paper's physical "send" tap, just before the
     * frame is handed to the NIC.
     */
    void txFromGuest(Cycles t,
                     std::function<void(Cycles, const Packet &)>
                         on_datalink_tx);

    VirtioQueue &rxRing() { return rx; }
    VirtioQueue &txRing() { return tx; }

    const Params &params() const { return p; }

    /** Depth of the rx work queue (for tests). */
    std::size_t rxBacklogDepth() const { return rxJobs.size(); }

  private:
    struct RxJob
    {
        Packet pkt;
        bool leader;
        std::function<void(Cycles)> ready;
        /** Causal-edge token: softirq handoff -> worker pump. */
        std::uint64_t edgeToken = 0;
    };

    /** Serialize rx work at the worker's actual execution time. */
    void pumpRx(Cycles t);

    Machine &mach;
    Vm &guest;
    NetstackCosts net;
    Params p;
    VirtioQueue rx;
    VirtioQueue tx;
    std::deque<RxJob> rxJobs;
    RxSink rxSink;
    bool rxPumpActive = false;
    static constexpr std::size_t rxJobCap = 256;
    Cycles lastRxAt = 0;
    Cycles lastTxAt = 0;
    bool everRx = false;
    bool everTx = false;
};

} // namespace virtsim

#endif // VIRTSIM_OS_VHOST_HH
