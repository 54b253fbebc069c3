#include "hw/nic.hh"

#include <algorithm>

#include "sim/log.hh"

namespace virtsim {

namespace {

struct NicTaps
{
    TapId rxPackets = internTap("nic.rx_packets");
    TapId rxBytes = internTap("nic.rx_bytes");
    TapId rxDropped = internTap("nic.rx_dropped");
    TapId rxCoalesced = internTap("nic.rx_coalesced");
    TapId txPackets = internTap("nic.tx_packets");
    TapId txBytes = internTap("nic.tx_bytes");
};

const NicTaps &
nicTaps()
{
    static const NicTaps taps;
    return taps;
}

} // namespace

Nic::Nic(EventQueue &eq, IrqChip &chip, MetricsDomain &counters,
         const Frequency &freq, Params params)
    : eq(eq), chip(chip), counters(counters), freq(freq), params(params)
{
}

Nic::Nic(EventQueue &eq, IrqChip &chip, MetricsDomain &counters,
         const Frequency &freq)
    : Nic(eq, chip, counters, freq, Params{})
{
}

void
Nic::receiveFromWire(Cycles t, const Packet &pkt)
{
    counters.counter(nicTaps().rxPackets).inc();
    counters.counter(nicTaps().rxBytes).inc(pkt.bytes);
    const Cycles ready = t + params.rxDmaLatency;
    eq.scheduleAt(ready, [this, ready, pkt] {
        if (rxQueue.size() >= params.rxQueueCap) {
            counters.counter(nicTaps().rxDropped).inc();
            return;
        }
        rxQueue.push_back(pkt);
        if (params.coalesceWindow > 0 && ready < coalesceUntil) {
            // Within a coalescing window: no immediate interrupt,
            // but arm the end-of-window flush so a burst that stops
            // mid-window is still delivered (real adaptive
            // moderation fires at the window boundary).
            counters.counter(nicTaps().rxCoalesced).inc();
            if (!windowIrqPending) {
                windowIrqPending = true;
                eq.scheduleAt(coalesceUntil, [this] {
                    windowIrqPending = false;
                    if (!rxQueue.empty())
                        chip.raiseExternal(eq.now(), spiNicIrq);
                });
            }
            return;
        }
        coalesceUntil = ready + params.coalesceWindow;
        chip.raiseExternal(ready, spiNicIrq);
    });
}

bool
Nic::popRx(Packet &out)
{
    if (rxQueue.empty())
        return false;
    out = rxQueue.front();
    rxQueue.pop_front();
    return true;
}

void
Nic::transmit(Cycles t, const Packet &pkt)
{
    counters.counter(nicTaps().txPackets).inc();
    counters.counter(nicTaps().txBytes).inc(pkt.bytes);
    const Cycles fetch_done = t + params.txDmaLatency;
    // Serialize onto the wire at line rate: packets queue behind the
    // transmitter when the CPU outruns 10 GbE.
    const Cycles start = std::max(fetch_done, txWireFree);
    const Cycles done = start + serializationDelay(pkt.bytes);
    txWireFree = done;
    eq.scheduleAt(done, [this, done, pkt] {
        if (onWireTx)
            onWireTx(done, pkt);
    });
}

Cycles
Nic::serializationDelay(std::uint32_t bytes) const
{
    // bits / (Gbit/s) = ns; convert to cycles.
    const double ns =
        static_cast<double>(bytes) * 8.0 / params.lineRateGbps;
    return freq.cyclesFromNs(ns);
}

} // namespace virtsim
