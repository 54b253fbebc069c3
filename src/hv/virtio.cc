#include "hv/virtio.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct VirtioTaps
{
    TapId guestPost = internTap("virtio.guest_post");
    TapId hostPop = internTap("virtio.host_pop");
    TapId hostPush = internTap("virtio.host_push");
};

const VirtioTaps &
virtioTaps()
{
    static const VirtioTaps taps;
    return taps;
}

} // namespace

VirtioQueue::VirtioQueue(Machine &m, Vm &guest, std::size_t capacity)
    : mach(m), guest(guest), capacity(capacity)
{
}

Cycles
VirtioQueue::guestPost(const VirtioDesc &desc)
{
    VIRTSIM_ASSERT(!availFull(), "virtqueue overflow");
    VIRTSIM_ASSERT(desc.buf == invalidBuffer ||
                   mach.memory().owner(desc.buf) == guest.name(),
                   "guest posting buffer it does not own");
    avail.push_back(desc);
    mach.counters().counter(virtioTaps().guestPost).inc();
    mach.trace().instant(mach.queue().now(), virtioTaps().guestPost,
                         TraceCat::Io, noTrack, desc.pkt.seq);
    return ringOpCost();
}

Cycles
VirtioQueue::guestPopUsed(VirtioDesc &out, bool &ok)
{
    if (used.empty()) {
        ok = false;
        return 0;
    }
    out = used.front();
    used.pop_front();
    ok = true;
    return ringOpCost();
}

Cycles
VirtioQueue::hostPop(VirtioDesc &out, bool &ok)
{
    if (avail.empty()) {
        ok = false;
        return 0;
    }
    out = avail.front();
    avail.pop_front();
    ok = true;
    mach.counters().counter(virtioTaps().hostPop).inc();
    mach.trace().instant(mach.queue().now(), virtioTaps().hostPop,
                         TraceCat::Io, noTrack, out.pkt.seq);
    // Zero copy: the host accesses the guest buffer directly — legal
    // because the Type 2 host kernel maps all machine memory. The
    // cross-CPU cache line transfer of the descriptor is the cost.
    return ringOpCost() + mach.costs().cacheLineTransfer;
}

Cycles
VirtioQueue::hostPushUsed(const VirtioDesc &desc)
{
    used.push_back(desc);
    mach.counters().counter(virtioTaps().hostPush).inc();
    mach.trace().instant(mach.queue().now(), virtioTaps().hostPush,
                         TraceCat::Io, noTrack, desc.pkt.seq);
    return ringOpCost();
}

Cycles
VirtioQueue::ringOpCost() const
{
    // [calibrated] descriptor + index update: a few cache lines.
    return 90;
}

} // namespace virtsim
