#include "sim/latency.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/format.hh"
#include "sim/units.hh"

namespace virtsim {

namespace {

/**
 * Nearest-rank quantile at bucket resolution over `count` samples in
 * [lo, hi]: the highest value equivalent to the sample of rank
 * ceil(q * count), clamped into [lo, hi]. `group(g)` and `bucket(i)`
 * return the histogram's group and bucket counts. Whole groups below
 * the rank are skipped, then one group is walked bucket by bucket.
 */
template <class GroupFn, class BucketFn>
std::uint64_t
rankWalk(std::uint64_t count, std::uint64_t lo, std::uint64_t hi,
         double q, GroupFn group, BucketFn bucket)
{
    if (count == 0)
        return 0;
    if (q <= 0.0)
        return lo;
    if (q >= 1.0)
        return hi;
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;
    std::uint64_t cum = 0;
    std::size_t g = 0;
    for (; g + 1 < LatencyHistogram::numGroups; ++g) {
        const std::uint64_t n = group(g);
        if (cum + n >= rank)
            break;
        cum += n;
    }
    for (std::size_t i = g << LatencyHistogram::subBucketBits;
         i < LatencyHistogram::numBuckets; ++i) {
        cum += bucket(i);
        if (cum >= rank) {
            std::uint64_t v = LatencyHistogram::bucketHigh(i);
            v = v > hi ? hi : v;
            v = v < lo ? lo : v;
            return v;
        }
    }
    return hi; // unreachable: cum == count by then
}

} // namespace

std::uint64_t
LatencyHistogram::quantile(double q) const
{
    return rankWalk(
        _count, _min, _max, q, [this](std::size_t g) { return groups[g]; },
        [this](std::size_t i) { return buckets[i]; });
}

std::uint64_t
LatencyHistogram::countAbove(std::uint64_t threshold) const
{
    if (_count == 0 || threshold >= _max)
        return 0;
    // The rest of the threshold's group bucket by bucket, then every
    // later group from the summary.
    const std::size_t first = bucketOf(threshold) + 1;
    const std::size_t g = first >> subBucketBits;
    std::uint64_t above = 0;
    const std::size_t groupEnd = std::min((g + 1) << subBucketBits,
                                          numBuckets);
    for (std::size_t i = first; i < groupEnd; ++i)
        above += buckets[i];
    for (std::size_t h = g + 1; h < numGroups; ++h)
        above += groups[h];
    return above;
}

void
LatencyHistogram::reset()
{
    buckets.fill(0);
    groups.fill(0);
    _count = 0;
    _sum = 0;
    _min = UINT64_MAX;
    _max = 0;
}

std::string
LatencyHistogram::render() const
{
    std::ostringstream oss;
    if (_count == 0) {
        oss << "n=0";
        return oss.str();
    }
    oss << "n=" << _count << " min=" << _min << " p50=" << p50()
        << " p99=" << p99() << " max=" << _max;
    return oss.str();
}

const char *
to_string(LatencyPhase phase)
{
    switch (phase) {
      case LatencyPhase::Rtt:
        return "rtt";
      case LatencyPhase::ClientThink:
        return "client_think";
      case LatencyPhase::WireFlight:
        return "wire_flight";
      case LatencyPhase::ServerQueue:
        return "server_queue";
      case LatencyPhase::Service:
        return "service";
    }
    return "?";
}

void
RequestTracker::configure(int nCpus)
{
    VIRTSIM_ASSERT(nCpus > 0, "RequestTracker needs >= 1 CPU");
    _cpus = nCpus;
    // Free the old storage first, so the peak is the new table alone.
    table.clear();
    table = std::vector<LatencyHistogram>(
        static_cast<std::size_t>(_cpus + 1) * numLatencyPhases);
}

void
RequestTracker::recordEnabled(int cpu, LatencyPhase phase,
                              Cycles value)
{
    VIRTSIM_ASSERT(cpu >= 0 && cpu < _cpus,
                   "RequestTracker: cpu ", cpu, " out of range");
    table[slotOf(cpu, phase)].add(value);
    table[slotOf(-1, phase)].add(value);
}

const LatencyHistogram &
RequestTracker::slot(int cpu, LatencyPhase phase) const
{
    VIRTSIM_ASSERT(cpu >= -1 && cpu < _cpus,
                   "RequestTracker: cpu ", cpu, " out of range");
    return table[slotOf(cpu, phase)];
}

LatencyHistogram
RequestTracker::merged(int cpu, LatencyPhase phase) const
{
    VIRTSIM_ASSERT(cpu >= 0 && cpu < _cpus,
                   "RequestTracker: cpu ", cpu, " out of range");
    return table[slotOf(cpu, phase)];
}

LatencyHistogram
RequestTracker::aggregate(LatencyPhase phase) const
{
    return slot(-1, phase);
}

std::uint64_t
RequestTracker::totalCount(LatencyPhase phase, int cpu) const
{
    return slot(cpu, phase).count();
}

std::uint64_t
RequestTracker::totalSum(LatencyPhase phase, int cpu) const
{
    return slot(cpu, phase).sum();
}

std::uint64_t
RequestTracker::totalAbove(LatencyPhase phase,
                           std::uint64_t threshold, int cpu) const
{
    return slot(cpu, phase).countAbove(threshold);
}

std::uint64_t
RequestTracker::quantileAcross(LatencyPhase phase, double q,
                               int cpu) const
{
    return slot(cpu, phase).quantile(q);
}

void
RequestTracker::reset()
{
    for (auto &h : table)
        h.reset();
}

namespace {

void
writeHistJson(std::ostream &os, const LatencyHistogram &h,
              const Frequency &f)
{
    os << "{\"count\":" << h.count();
    if (!h.empty()) {
        os << ",\"min_cycles\":" << h.min()
           << ",\"max_cycles\":" << h.max()
           << ",\"sum_cycles\":" << h.sum()
           << ",\"mean_us\":"
           << formatFixed(f.us(h.sum()) /
                          static_cast<double>(h.count()), 4)
           << ",\"p50_cycles\":" << h.p50()
           << ",\"p90_cycles\":" << h.p90()
           << ",\"p99_cycles\":" << h.p99()
           << ",\"p999_cycles\":" << h.p999()
           << ",\"p50_us\":" << formatFixed(f.us(h.p50()), 4)
           << ",\"p90_us\":" << formatFixed(f.us(h.p90()), 4)
           << ",\"p99_us\":" << formatFixed(f.us(h.p99()), 4)
           << ",\"p999_us\":" << formatFixed(f.us(h.p999()), 4)
           << ",\"max_us\":" << formatFixed(f.us(h.max()), 4);
    }
    // Sparse nonzero buckets: validators recompute quantiles and
    // violation mass from these and cross-check the fields above.
    os << ",\"buckets\":[";
    bool first = true;
    for (std::size_t i = 0; i < LatencyHistogram::numBuckets; ++i) {
        if (h.bucketCount(i) == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        os << "[" << i << "," << h.bucketCount(i) << "]";
    }
    os << "]}";
}

void
writePhaseSet(std::ostream &os, const RequestTracker &t,
              const Frequency &f, int cpu)
{
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        const LatencyPhase ph = static_cast<LatencyPhase>(p);
        if (p > 0)
            os << ",";
        os << "\"" << to_string(ph) << "\":";
        const LatencyHistogram h =
            cpu < 0 ? t.aggregate(ph) : t.merged(cpu, ph);
        writeHistJson(os, h, f);
    }
}

} // namespace

std::string
renderLatencyJson(const RequestTracker &tracker,
                  const Frequency &freq, const std::string &world,
                  const std::string &sloJson)
{
    std::ostringstream os;
    os << "{\n\"schema\":\"virtsim-latency-1\",\n"
       << "\"world\":\"" << world << "\",\n"
       << "\"frequency_ghz\":" << freq.ghz() << ",\n"
       << "\"sub_bucket_bits\":" << LatencyHistogram::subBucketBits
       << ",\n"
       << "\"requests\":"
       << tracker.totalCount(LatencyPhase::Rtt) << ",\n"
       << "\"phases\":[";
    for (std::size_t p = 0; p < numLatencyPhases; ++p) {
        if (p > 0)
            os << ",";
        os << "\"" << to_string(static_cast<LatencyPhase>(p)) << "\"";
    }
    os << "],\n\"aggregate\":{";
    writePhaseSet(os, tracker, freq, -1);
    os << "},\n\"per_cpu\":[";
    for (int c = 0; c < tracker.cpus(); ++c) {
        if (c > 0)
            os << ",";
        os << "\n{\"cpu\":" << c << ",";
        writePhaseSet(os, tracker, freq, c);
        os << "}";
    }
    os << "\n],\n\"slo\":"
       << (sloJson.empty() ? std::string("[]") : sloJson) << "\n}";
    return os.str();
}

} // namespace virtsim
