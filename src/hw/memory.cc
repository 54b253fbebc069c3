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

BufferId
MainMemory::alloc(const std::string &owner, std::uint32_t bytes)
{
    const BufferId id = nextId++;
    buffers[id] = Buffer{owner, bytes};
    counters.counter(memTaps().buffersAllocated).inc();
    return id;
}

void
MainMemory::free(BufferId id)
{
    VIRTSIM_ASSERT(buffers.erase(id) > 0, "double free of buffer ", id);
}

bool
MainMemory::valid(BufferId id) const
{
    return buffers.count(id) > 0;
}

const std::string &
MainMemory::owner(BufferId id) const
{
    auto it = buffers.find(id);
    VIRTSIM_ASSERT(it != buffers.end(), "owner of invalid buffer ", id);
    return it->second.owner;
}

std::uint32_t
MainMemory::size(BufferId id) const
{
    auto it = buffers.find(id);
    VIRTSIM_ASSERT(it != buffers.end(), "size of invalid buffer ", id);
    return it->second.bytes;
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
