/**
 * @file
 * Kernel-behaviour helpers shared by the native, host, Dom0 and guest
 * OS models: segmentation (TSO) and coalescing (GRO) arithmetic, and
 * the feature flags of the tested kernel.
 *
 * All systems in the paper ran the same Linux 4.0-rc4 (Section III),
 * including its TSO-autosizing regression that depressed Xen
 * TCP_MAERTS results (Section V) — represented here as a config flag
 * so the E8 ablation can turn it off.
 */

#ifndef VIRTSIM_OS_KERNEL_HH
#define VIRTSIM_OS_KERNEL_HH

#include <cstdint>
#include <vector>

#include "hw/nic.hh"
#include "os/netstack.hh"

namespace virtsim {

/** Feature configuration of the Linux build under test. */
struct LinuxConfig
{
    /**
     * The Linux 4.0-rc1 "tcp: refine TSO autosizing" change: on the
     * Xen PV transmit path it shrinks TSO batches drastically,
     * multiplying per-segment costs. The paper confirmed that older
     * kernels or sysfs tuning removed the effect.
     */
    bool tsoAutosizeRegression = true;

    /** GRO enabled on the receive path. */
    bool groEnabled = true;
};

/** Number of wire frames needed for a payload of n bytes. */
int framesFor(std::uint64_t bytes);

/**
 * A payload split into TSO segments: every segment but the last
 * carries seg_bytes, the last the remainder. An empty payload is one
 * empty segment.
 */
struct TsoSegments
{
    std::uint32_t count;
    std::uint32_t segBytes;
    std::uint32_t lastBytes;

    /** Bytes of segment @p i (0 <= i < count). */
    std::uint32_t
    bytes(std::uint32_t i) const
    {
        return i + 1 < count ? segBytes : lastBytes;
    }
};

/** Split a payload into TSO segments of at most seg_bytes. */
TsoSegments tsoSegments(std::uint64_t bytes, std::uint32_t seg_bytes);

/** Number of GRO aggregates the stack sees for frame_count frames. */
int groAggregates(int frame_count, int gro_frames);

/**
 * Drain a NIC's rx queue, coalescing consecutive same-flow frames
 * into GRO aggregates of at most gro_frames frames / 64 KiB.
 * @param aggs receives the aggregates in arrival order; whatever it
 *        held before is cleared first. Callers keep one buffer per
 *        NIC handler so that its storage is reused across interrupts.
 */
void groDrain(Nic &nic, int gro_frames, std::vector<Packet> &aggs);

} // namespace virtsim

#endif // VIRTSIM_OS_KERNEL_HH
