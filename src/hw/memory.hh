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
 *
 * Owner names are interned once into small integer tags, so the
 * per-packet alloc/free and ownership checks compare integers and a
 * freed buffer's slot is reused: the registry allocates only while it
 * grows past its high-water mark.
 */

#ifndef VIRTSIM_HW_MEMORY_HH
#define VIRTSIM_HW_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "hw/cost_model.hh"
#include "sim/probe.hh"
#include "sim/types.hh"

namespace virtsim {

/** Handle to a buffer in machine memory. */
using BufferId = int;

inline constexpr BufferId invalidBuffer = -1;

/** Interned buffer-owner name (MainMemory::intern). */
using OwnerId = std::uint16_t;

/**
 * Main memory of a machine.
 */
class MainMemory
{
  public:
    MainMemory(const CostModel &cm, MetricsDomain &counters);

    /** Tag of the named domain ("vm0", "dom0", "host", ...),
     *  registering the name on first use. */
    OwnerId intern(const std::string &owner);

    /** Allocate a buffer owned by the tagged domain. A freed buffer's
     *  id may be handed out again. */
    BufferId alloc(OwnerId owner, std::uint32_t bytes);
    BufferId
    alloc(const std::string &owner, std::uint32_t bytes)
    {
        return alloc(intern(owner), bytes);
    }

    void free(BufferId id);

    bool valid(BufferId id) const;

    OwnerId ownerId(BufferId id) const;
    const std::string &owner(BufferId id) const;
    std::uint32_t size(BufferId id) const;

    /** Buffers allocated and not yet freed. */
    std::size_t liveBuffers() const { return live; }

    /**
     * Cycle cost of copying n bytes (the caller charges it to the CPU
     * doing the copy). Also bumps the copied-bytes counter, which the
     * zero-copy ablation reads.
     */
    Cycles copyCost(std::uint32_t bytes);

  private:
    struct Buffer
    {
        std::uint32_t bytes = 0;
        OwnerId owner = 0;
        bool live = false;
    };

    /** The buffer behind a valid id; panics naming @p what otherwise. */
    const Buffer &get(BufferId id, const char *what) const;

    const CostModel &cm;
    MetricsDomain &counters;
    std::vector<std::string> owners; ///< indexed by OwnerId
    std::vector<Buffer> buffers;     ///< indexed by BufferId
    std::vector<BufferId> freed;     ///< slots to reuse, last freed first
    std::size_t live = 0;
};

} // namespace virtsim

#endif // VIRTSIM_HW_MEMORY_HH
