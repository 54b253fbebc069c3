#include "hw/memory.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct MemTaps
{
    TapId buffersAllocated = internTap("mem.buffers_allocated");
    TapId bytesCopied = internTap("mem.bytes_copied");
    TapId copies = internTap("mem.copies");
};

const MemTaps &
memTaps()
{
    static const MemTaps taps;
    return taps;
}

} // namespace

MainMemory::MainMemory(const CostModel &cm, MetricsDomain &counters)
    : cm(cm), counters(counters)
{
}

OwnerId
MainMemory::intern(const std::string &owner)
{
    for (std::size_t i = 0; i < owners.size(); ++i) {
        if (owners[i] == owner)
            return static_cast<OwnerId>(i);
    }
    owners.push_back(owner);
    return static_cast<OwnerId>(owners.size() - 1);
}

BufferId
MainMemory::alloc(OwnerId owner, std::uint32_t bytes)
{
    VIRTSIM_ASSERT(owner < owners.size(), "unknown buffer owner ", owner);
    BufferId id;
    if (!freed.empty()) {
        id = freed.back();
        freed.pop_back();
    } else {
        id = static_cast<BufferId>(buffers.size());
        buffers.emplace_back();
    }
    buffers[static_cast<std::size_t>(id)] = Buffer{bytes, owner, true};
    ++live;
    counters.counter(memTaps().buffersAllocated).inc();
    return id;
}

void
MainMemory::free(BufferId id)
{
    VIRTSIM_ASSERT(valid(id), "double free of buffer ", id);
    buffers[static_cast<std::size_t>(id)].live = false;
    freed.push_back(id);
    --live;
}

bool
MainMemory::valid(BufferId id) const
{
    return id >= 0 && static_cast<std::size_t>(id) < buffers.size() &&
           buffers[static_cast<std::size_t>(id)].live;
}

const MainMemory::Buffer &
MainMemory::get(BufferId id, const char *what) const
{
    VIRTSIM_ASSERT(valid(id), what, " of invalid buffer ", id);
    return buffers[static_cast<std::size_t>(id)];
}

OwnerId
MainMemory::ownerId(BufferId id) const
{
    return get(id, "owner").owner;
}

const std::string &
MainMemory::owner(BufferId id) const
{
    return owners[get(id, "owner").owner];
}

std::uint32_t
MainMemory::size(BufferId id) const
{
    return get(id, "size").bytes;
}

Cycles
MainMemory::copyCost(std::uint32_t bytes)
{
    counters.counter(memTaps().bytesCopied).inc(bytes);
    counters.counter(memTaps().copies).inc();
    // Round up to whole KiB; small copies still pay setup of ~1 KiB.
    const std::uint32_t kib = (bytes + 1023) / 1024;
    return static_cast<Cycles>(kib == 0 ? 1 : kib) * cm.copyPerKb;
}

} // namespace virtsim
