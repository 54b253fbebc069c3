/**
 * @file
 * The calling thread's execution lane.
 *
 * The sharded kernel (sim/shard) marks each thread with the lane it
 * is currently executing events for. Lane-partitioned observability
 * state (TraceSink ring segments, EventKernelProfiler histograms)
 * keys off the same mark, so the hot stamp path stays free of
 * cross-lane synchronization: each lane writes only its own segment.
 *
 * This lives outside sim/shard.hh so sim/probe.hh can read the lane
 * without depending on the kernel (probe is lower in the include
 * graph than shard).
 */

#ifndef VIRTSIM_SIM_LANE_HH
#define VIRTSIM_SIM_LANE_HH

namespace virtsim {

namespace detail {
/** Lane the current thread is executing events for; -1 outside lane
 *  execution (setup, coordinator, export). Written only by LaneScope.
 *  Inline with a constant initializer, so every access is a direct
 *  TLS load with no wrapper call (an extern thread_local goes through
 *  the compiler's TLS init wrapper, which UBSan flags on crew
 *  threads). */
inline thread_local int tl_exec_lane = -1;
} // namespace detail

/** Lane the calling thread is currently executing events for, or -1
 *  outside lane execution. Consumers that index per-lane storage
 *  should clamp -1 to 0: setup-context stamping (tap warming, world
 *  construction) lands in segment 0, which is also the only segment
 *  a single-lane kernel ever uses. */
inline int
currentExecLane()
{
    return detail::tl_exec_lane;
}

/** RAII lane marker, set around every lane execution phase (parallel
 *  workers and the serial round loop alike). */
struct LaneScope
{
    explicit LaneScope(int lane) { detail::tl_exec_lane = lane; }
    ~LaneScope() { detail::tl_exec_lane = -1; }

    LaneScope(const LaneScope &) = delete;
    LaneScope &operator=(const LaneScope &) = delete;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_LANE_HH
