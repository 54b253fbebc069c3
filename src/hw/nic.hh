/**
 * @file
 * Network interface model: a 10 GbE-class NIC (the testbed used
 * dual-port Mellanox ConnectX-3 adapters) with DMA, rx/tx queues, and
 * interrupt generation.
 *
 * The paper stresses that 10 GbE mattered: at 1 GbE the wire, not the
 * hypervisor, was the bottleneck. The model therefore includes a line
 * rate so that throughput benchmarks can (and do, natively) run into
 * the wire limit rather than a CPU limit.
 */

#ifndef VIRTSIM_HW_NIC_HH
#define VIRTSIM_HW_NIC_HH

#include <cstdint>
#include <deque>
#include <functional>

#include "hw/cost_model.hh"
#include "hw/gic.hh"
#include "sim/event_queue.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** A network packet (or large send segment). */
struct Packet
{
    /** Flow/transaction identifier for trace correlation. */
    std::uint64_t flow = 0;
    /** Payload size in bytes. */
    std::uint32_t bytes = 0;
    /** Time the packet was created at its origin. */
    Cycles born = 0;
    /** Monotonic sequence number assigned by the sender. */
    std::uint64_t seq = 0;
};

/**
 * The machine's NIC.
 */
class Nic
{
  public:
    /** Tunable device latencies (defaults approximate ConnectX-3). */
    struct Params
    {
        /** Wire-side arrival to descriptor DMA'd + IRQ asserted. */
        Cycles rxDmaLatency = 2400; // ~1 us at 2.4 GHz
        /** Doorbell to first byte on the wire. */
        Cycles txDmaLatency = 1700; // ~0.7 us
        /** Line rate in bits per nanosecond (10 GbE = 10). */
        double lineRateGbps = 10.0;
        /** Interrupt coalescing window; 0 = interrupt per packet. */
        Cycles coalesceWindow = 0;
        /** Rx descriptor ring capacity; arrivals beyond it are
         *  dropped (as on real hardware under receive livelock). */
        std::size_t rxQueueCap = 4096;
    };

    Nic(EventQueue &eq, IrqChip &chip, MetricsDomain &counters,
        const Frequency &freq, Params params);

    Nic(EventQueue &eq, IrqChip &chip, MetricsDomain &counters,
        const Frequency &freq);

    /** @name Wire side */
    ///@{
    /** A packet arrives from the wire; DMA it and raise the rx IRQ. */
    void receiveFromWire(Cycles t, const Packet &pkt);

    /** Hook invoked when a packet leaves on the wire. */
    std::function<void(Cycles, const Packet &)> onWireTx;
    ///@}

    /** @name Driver side */
    ///@{
    /** Pop the next received packet, if any. */
    bool popRx(Packet &out);

    std::size_t rxQueueDepth() const { return rxQueue.size(); }

    /**
     * Driver posts a packet for transmission (doorbell write). The
     * NIC serializes packets onto the wire at line rate.
     */
    void transmit(Cycles t, const Packet &pkt);
    ///@}

    /** Serialization delay of a packet at line rate. */
    Cycles serializationDelay(std::uint32_t bytes) const;

    /** Drop queued packets and rewind wire/coalescing state. Keeps
     *  the onWireTx hook: it belongs to the harness that wired the
     *  machine up, not to a single run. */
    void
    reset()
    {
        rxQueue.clear();
        txWireFree = 0;
        coalesceUntil = 0;
        windowIrqPending = false;
    }

  private:
    EventQueue &eq;
    IrqChip &chip;
    MetricsDomain &counters;
    Frequency freq;
    Params params;
    std::deque<Packet> rxQueue;
    /** Time the transmit wire becomes free (line-rate serialization). */
    Cycles txWireFree = 0;
    /** End of the current interrupt-coalescing window, if any. */
    Cycles coalesceUntil = 0;
    /** Whether an end-of-window flush interrupt is already armed. */
    bool windowIrqPending = false;
};

} // namespace virtsim

#endif // VIRTSIM_HW_NIC_HH
