#include "hv/xen_pv.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct PvTaps
{
    TapId frontPost = internTap("xenpv.front_post");
    TapId backPop = internTap("xenpv.back_pop");
    TapId backRespond = internTap("xenpv.back_respond");
    TapId evtchnNotify = internTap("xenpv.evtchn_notify");
};

const PvTaps &
pvTaps()
{
    static const PvTaps taps;
    return taps;
}

} // namespace

XenPvRing::XenPvRing(Machine &m, std::size_t capacity)
    : mach(m), capacity(capacity)
{
    pvTaps(); // intern before a sharded run freezes the counters
}

Cycles
XenPvRing::frontPost(const PvRequest &req)
{
    VIRTSIM_ASSERT(!full(), "PV ring overflow");
    reqs.push_back(req);
    mach.counters().counter(pvTaps().frontPost).inc();
    return ringOpCost();
}

Cycles
XenPvRing::backPop(PvRequest &out, bool &ok)
{
    if (reqs.empty()) {
        ok = false;
        return 0;
    }
    out = reqs.front();
    reqs.pop_front();
    ok = true;
    mach.counters().counter(pvTaps().backPop).inc();
    return ringOpCost() + mach.costs().cacheLineTransfer;
}

Cycles
XenPvRing::backRespond(const PvRequest &req)
{
    resps.push_back(req);
    mach.counters().counter(pvTaps().backRespond).inc();
    return ringOpCost();
}

Cycles
XenPvRing::frontPopResponse(PvRequest &out, bool &ok)
{
    if (resps.empty()) {
        ok = false;
        return 0;
    }
    out = resps.front();
    resps.pop_front();
    ok = true;
    return ringOpCost();
}

Cycles
XenPvRing::ringOpCost() const
{
    // [calibrated] shared ring descriptor + producer index update.
    return 110;
}

EventChannel::EventChannel(Machine &m) : mach(m)
{
    pvTaps(); // intern before a sharded run freezes the counters
}

int
EventChannel::allocate()
{
    bits.push_back(false);
    return static_cast<int>(bits.size()) - 1;
}

Cycles
EventChannel::notify(int port)
{
    VIRTSIM_ASSERT(port >= 0 &&
                   static_cast<std::size_t>(port) < bits.size(),
                   "bad event channel port ", port);
    bits[static_cast<std::size_t>(port)] = true;
    mach.counters().counter(pvTaps().evtchnNotify).inc();
    // Setting the pending bit in the shared info page.
    return 70;
}

bool
EventChannel::consume(int port)
{
    VIRTSIM_ASSERT(port >= 0 &&
                   static_cast<std::size_t>(port) < bits.size(),
                   "bad event channel port ", port);
    const bool was = bits[static_cast<std::size_t>(port)];
    bits[static_cast<std::size_t>(port)] = false;
    return was;
}

bool
EventChannel::pending(int port) const
{
    return port >= 0 && static_cast<std::size_t>(port) < bits.size() &&
           bits[static_cast<std::size_t>(port)];
}

} // namespace virtsim
