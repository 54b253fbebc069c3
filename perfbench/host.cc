/**
 * @file
 * Host-side instruments: clocks, the global allocation counter and the
 * span tracer.
 */

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iomanip>
#include <new>

#include "perfbench.hh"

namespace {

std::atomic<std::uint64_t> allocCalls{0};
std::atomic<std::uint64_t> allocBytes{0};

void *
countedAlloc(std::size_t n)
{
    allocCalls.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t n, std::align_val_t al)
{
    allocCalls.fetch_add(1, std::memory_order_relaxed);
    allocBytes.fetch_add(n, std::memory_order_relaxed);
    const std::size_t a = static_cast<std::size_t>(al);
    const std::size_t size = (n + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, size == 0 ? a : size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every allocation of the process goes through these, so
// alloc.per_op counts exactly what the simulator asks of the heap.
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void *operator new(std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void *operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlignedAlloc(n, a);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
processCpu()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

AllocCount
allocCount()
{
    return {allocCalls.load(std::memory_order_relaxed),
            allocBytes.load(std::memory_order_relaxed)};
}

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

int
Tracer::open(std::string layer, std::string name)
{
    const int id = static_cast<int>(recs.size());
    recs.push_back({std::move(layer), std::move(name), wallNow() - origin,
                    0.0, stack.empty() ? -1 : stack.back()});
    stack.push_back(id);
    return id;
}

void
Tracer::close(int id)
{
    recs[static_cast<std::size_t>(id)].end = wallNow() - origin;
    stack.pop_back();
}

std::map<std::string, double>
Tracer::selfTimeByLayer(std::size_t first) const
{
    std::vector<double> self;
    for (std::size_t i = first; i < recs.size(); ++i)
        self.push_back(recs[i].end - recs[i].start);
    for (std::size_t i = first; i < recs.size(); ++i) {
        const int p = recs[i].parent;
        if (p >= static_cast<int>(first))
            self[static_cast<std::size_t>(p) - first] -=
                recs[i].end - recs[i].start;
    }
    std::map<std::string, double> out;
    for (std::size_t i = first; i < recs.size(); ++i)
        out[recs[i].layer] += self[i - first];
    return out;
}

double
Tracer::totalDuration(const std::string &name, std::size_t first) const
{
    double sum = 0;
    for (std::size_t i = first; i < recs.size(); ++i) {
        if (recs[i].name == name)
            sum += recs[i].end - recs[i].start;
    }
    return sum;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < recs.size(); ++i) {
        const SpanRecord &r = recs[i];
        os << (i ? ",\n" : "\n") << "{\"name\":\"" << r.name
           << "\",\"cat\":\"" << r.layer
           << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
           << r.start * 1e6 << ",\"dur\":" << (r.end - r.start) * 1e6
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << r.parent
           << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

} // namespace perfbench
