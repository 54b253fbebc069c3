/**
 * @file
 * Virtio rings — KVM's paravirtual I/O transport (Russell's Virtio
 * protocol, which the paper's KVM configuration uses with the VHOST
 * in-kernel backend).
 *
 * The performance-decisive property modelled here is *zero copy*: the
 * ring descriptors reference guest-owned buffers, and because the KVM
 * host kernel has full access to all machine memory including VM
 * memory (paper, Sections II and V), the backend and even the NIC DMA
 * engine touch those buffers directly. Contrast hv/grant_table.hh.
 */

#ifndef VIRTSIM_HV_VIRTIO_HH
#define VIRTSIM_HV_VIRTIO_HH

#include <cstdint>
#include <deque>

#include "hw/machine.hh"
#include "hw/nic.hh"
#include "hv/vm.hh"
#include "sim/types.hh"

namespace virtsim {

/** One virtio descriptor: a guest buffer plus the packet it holds. */
struct VirtioDesc
{
    BufferId buf = invalidBuffer;
    Packet pkt{};
};

/**
 * A single virtqueue (one direction of one device).
 */
class VirtioQueue
{
  public:
    VirtioQueue(Machine &m, Vm &guest, std::size_t capacity = 256);

    /** @name Guest-side operations (frontend driver) */
    ///@{
    /**
     * Guest posts a descriptor into the available ring.
     * @return cycle cost (descriptor write + avail index update);
     *         asserts the buffer really belongs to the guest.
     */
    Cycles guestPost(const VirtioDesc &desc);

    /** Guest reaps a completed descriptor from the used ring.
     *  @return cost, or 0 with ok=false when the ring is empty. */
    Cycles guestPopUsed(VirtioDesc &out, bool &ok);
    ///@}

    /** @name Host-side operations (VHOST backend).
     *  Zero copy: the host reads/writes the guest buffer in place. */
    ///@{
    Cycles hostPop(VirtioDesc &out, bool &ok);
    Cycles hostPushUsed(const VirtioDesc &desc);
    ///@}

    std::size_t availDepth() const { return avail.size(); }
    std::size_t usedDepth() const { return used.size(); }
    bool availFull() const { return avail.size() >= capacity; }

    /** Per-operation ring bookkeeping cost.
     *  [calibrated] a few cache lines of descriptor traffic. */
    Cycles ringOpCost() const;

  private:
    Machine &mach;
    OwnerId guestOwner; ///< guest's tag in machine memory
    std::size_t capacity;
    std::deque<VirtioDesc> avail;
    std::deque<VirtioDesc> used;
};

} // namespace virtsim

#endif // VIRTSIM_HV_VIRTIO_HH
