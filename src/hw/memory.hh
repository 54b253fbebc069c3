/**
 * @file
 * Machine memory model: a registry of named buffers with ownership
 * tags plus data-copy cost accounting.
 *
 * Ownership is what distinguishes the two I/O models the paper
 * contrasts: KVM's host kernel owns *all* machine memory including VM
 * memory (enabling zero-copy virtio), while Xen's Dom0 can only reach
 * VM memory through explicit grants (forcing copies). Buffer
 * ownership checks in virtio/grant code enforce exactly that.
 */

#ifndef VIRTSIM_HW_MEMORY_HH
#define VIRTSIM_HW_MEMORY_HH

#include <cstdint>
#include <map>
#include <string>

#include "hw/cost_model.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** Handle to a buffer in machine memory. */
using BufferId = int;

inline constexpr BufferId invalidBuffer = -1;

/**
 * Main memory of a machine.
 */
class MainMemory
{
  public:
    MainMemory(const CostModel &cm, MetricsDomain &counters);

    /**
     * Allocate a buffer owned by the named domain ("vm0", "dom0",
     * "host", ...).
     */
    BufferId alloc(const std::string &owner, std::uint32_t bytes);

    void free(BufferId id);

    bool valid(BufferId id) const;

    const std::string &owner(BufferId id) const;
    std::uint32_t size(BufferId id) const;

    /**
     * Cycle cost of copying n bytes (the caller charges it to the CPU
     * doing the copy). Also bumps the copied-bytes counter, which the
     * zero-copy ablation reads.
     */
    Cycles copyCost(std::uint32_t bytes);

    std::size_t liveBuffers() const { return buffers.size(); }

    /** Free every buffer and rewind the id allocator, so a recycled
     *  memory hands out the same BufferId sequence as a fresh one. */
    void
    reset()
    {
        buffers.clear();
        nextId = 0;
    }

  private:
    struct Buffer
    {
        std::string owner;
        std::uint32_t bytes;
    };

    const CostModel &cm;
    MetricsDomain &counters;
    std::map<BufferId, Buffer> buffers;
    BufferId nextId = 0;
};

} // namespace virtsim

#endif // VIRTSIM_HW_MEMORY_HH
