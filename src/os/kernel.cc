#include "os/kernel.hh"

#include "sim/log.hh"

namespace virtsim {

int
framesFor(std::uint64_t bytes)
{
    if (bytes == 0)
        return 1; // a bare (e.g. 1-byte-less) frame still crosses
    return static_cast<int>((bytes + NetstackCosts::mtuBytes - 1) /
                            NetstackCosts::mtuBytes);
}

TsoSegments
tsoSegments(std::uint64_t bytes, std::uint32_t seg_bytes)
{
    VIRTSIM_ASSERT(seg_bytes > 0, "zero TSO segment size");
    if (bytes == 0)
        return {1, seg_bytes, 0};
    const std::uint64_t count = (bytes + seg_bytes - 1) / seg_bytes;
    return {static_cast<std::uint32_t>(count), seg_bytes,
            static_cast<std::uint32_t>(bytes - (count - 1) * seg_bytes)};
}

int
groAggregates(int frame_count, int gro_frames)
{
    VIRTSIM_ASSERT(gro_frames > 0, "zero GRO window");
    return (frame_count + gro_frames - 1) / gro_frames;
}

void
groDrain(Nic &nic, int gro_frames, std::vector<Packet> &aggs)
{
    aggs.clear();
    Packet pkt;
    int frames_in_agg = 0;
    while (nic.popRx(pkt)) {
        // GRO only aggregates data segments; pure acks and other
        // tiny frames pass through individually.
        if (!aggs.empty() && aggs.back().flow == pkt.flow &&
            pkt.bytes >= 200 && aggs.back().bytes >= 200 &&
            frames_in_agg < gro_frames &&
            aggs.back().bytes + pkt.bytes <= 64 * 1024) {
            aggs.back().bytes += pkt.bytes;
            ++frames_in_agg;
        } else {
            aggs.push_back(pkt);
            frames_in_agg = 1;
        }
    }
}

} // namespace virtsim
