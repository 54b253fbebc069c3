/**
 * @file
 * Request-latency observability: a bounded-memory HDR-style histogram
 * and a per-request phase tracker.
 *
 * The fleet scenarios report p99/p999 tail percentiles and SLO
 * violation rates, not just the paper's means (those are
 * CycleSummary's, in sim/stats). LatencyHistogram is the simulator's
 * one histogram: log-linear buckets (HdrHistogram's scheme) give a
 * fixed <=0.79% relative error at every magnitude in a fixed 58 KB
 * footprint, and merging is bucket-wise integer addition — exact and
 * order-independent.
 *
 * RequestTracker layers the fleet/request model on top: per-CPU
 * histograms for each latency phase of a request/response transaction
 * (RTT plus its decomposition into client think, wire flight, server
 * queue wait, and service). record() writes pre-sized storage, so
 * the hot stamp path performs no allocation, and the disabled path is
 * one predicted branch.
 */

#ifndef VIRTSIM_SIM_LATENCY_HH
#define VIRTSIM_SIM_LATENCY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace virtsim {

/**
 * Fixed-capacity log-linear histogram of unsigned cycle values.
 *
 * Bucket scheme (subBucketBits = m = 7): values below 2^(m+1) = 256
 * are recorded exactly, one bucket per value. Above that, each
 * power-of-two octave [2^k, 2^(k+1)) splits into 2^m equal sub-
 * buckets, so a bucket spanning [low, low + 2^s) has relative width
 * (2^s - 1)/low < 2^-m ~= 0.79% — the quantile error bound at every
 * magnitude, covering the full uint64 range in 7424 buckets.
 * Exact count, sum, min and max are tracked alongside, so means are
 * exact and quantiles clamp into the observed range. A 58-entry
 * per-octave group summary rides along, so quantile() and
 * countAbove() find their octave first and then walk at most one
 * octave's 128 buckets.
 *
 * merge() is bucket-wise integer addition plus exact count/sum/
 * min/max folds: exact, commutative and associative, so histograms
 * merge deterministically in any order.
 */
class LatencyHistogram
{
  public:
    /** Sub-bucket resolution: 2^-subBucketBits relative error. */
    static constexpr unsigned subBucketBits = 7;
    static constexpr std::uint64_t subBuckets = std::uint64_t{1}
                                                << subBucketBits;
    /** Largest value recorded exactly (one bucket per value). */
    static constexpr std::uint64_t exactLimit = 2 * subBuckets;
    /** Octaves above the exact region: bit widths m+2 .. 64. */
    static constexpr std::size_t numBuckets = static_cast<std::size_t>(
        (64 - subBucketBits + 1) * subBuckets);
    /** Summary groups: bucket i counts toward group i >> m, so each
     *  group is one octave's subBuckets buckets (the exact region
     *  forms the first two). */
    static constexpr std::size_t numGroups = numBuckets / subBuckets;

    /** Bucket index a value lands in. */
    static constexpr std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < exactLimit)
            return static_cast<std::size_t>(v);
        const unsigned s = static_cast<unsigned>(std::bit_width(v)) -
                           (subBucketBits + 1);
        return static_cast<std::size_t>(
            (static_cast<std::uint64_t>(s + 1) << subBucketBits) +
            ((v >> s) - subBuckets));
    }

    /** Smallest value mapping to bucket i. */
    static constexpr std::uint64_t
    bucketLow(std::size_t i)
    {
        if (i < exactLimit)
            return static_cast<std::uint64_t>(i);
        const unsigned s =
            static_cast<unsigned>(i >> subBucketBits) - 1;
        const std::uint64_t sub = i & (subBuckets - 1);
        return (subBuckets + sub) << s;
    }

    /** Largest value mapping to bucket i. */
    static constexpr std::uint64_t
    bucketHigh(std::size_t i)
    {
        if (i < exactLimit)
            return static_cast<std::uint64_t>(i);
        const unsigned s =
            static_cast<unsigned>(i >> subBucketBits) - 1;
        const std::uint64_t sub = i & (subBuckets - 1);
        // The next bucket's low minus one; the top bucket saturates.
        const std::uint64_t next = subBuckets + sub + 1;
        if (s >= 56 && sub == subBuckets - 1)
            return UINT64_MAX;
        return (next << s) - 1;
    }

    void
    add(std::uint64_t v)
    {
        const std::size_t i = bucketOf(v);
        ++buckets[i];
        ++groups[i >> subBucketBits];
        ++_count;
        _sum += v;
        _min = v < _min ? v : _min;
        _max = v > _max ? v : _max;
    }

    std::uint64_t count() const { return _count; }
    bool empty() const { return _count == 0; }

    /** Smallest recorded value (exact). @pre !empty() */
    std::uint64_t min() const { return _min; }
    /** Largest recorded value (exact). @pre !empty() */
    std::uint64_t max() const { return _max; }
    /** Sum of all recorded values (exact). */
    std::uint64_t sum() const { return _sum; }

    /** Arithmetic mean (exact). Returns 0 when empty. */
    double
    mean() const
    {
        return _count == 0 ? 0.0
                           : static_cast<double>(_sum) /
                                 static_cast<double>(_count);
    }

    /**
     * Value at quantile q in [0, 1] with nearest-rank semantics at
     * bucket resolution: the highest value equivalent to the sample
     * of rank ceil(q * count), clamped into [min(), max()] so exact
     * extrema are returned exactly. Returns 0 when empty.
     */
    std::uint64_t quantile(double q) const;

    std::uint64_t p50() const { return quantile(0.50); }
    std::uint64_t p90() const { return quantile(0.90); }
    std::uint64_t p99() const { return quantile(0.99); }
    std::uint64_t p999() const { return quantile(0.999); }

    /**
     * Samples strictly above `threshold`, at bucket resolution: the
     * mass of every bucket whose low bound exceeds `threshold` (the
     * bucket containing the threshold counts as within). Exact for
     * thresholds below exactLimit or on a bucket boundary; what SLO
     * violation fractions are computed from, and reproducible from
     * the exported bucket array (scripts/validate_latency.py does).
     */
    std::uint64_t countAbove(std::uint64_t threshold) const;

    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets[i];
    }

    /** Summed count of the subBuckets buckets in group g. */
    std::uint64_t groupCount(std::size_t g) const { return groups[g]; }

    /** Fold another histogram in: exact and order-independent. Empty
     *  groups of `o` are skipped whole. */
    void
    merge(const LatencyHistogram &o)
    {
        for (std::size_t g = 0; g < numGroups; ++g) {
            if (o.groups[g] == 0)
                continue;
            groups[g] += o.groups[g];
            const std::size_t first = g << subBucketBits;
            for (std::size_t i = first; i < first + subBuckets; ++i)
                buckets[i] += o.buckets[i];
        }
        _count += o._count;
        _sum += o._sum;
        _min = o._min < _min ? o._min : _min;
        _max = o._max > _max ? o._max : _max;
    }

    void reset();

    /** One-line summary: n/min/p50/p99/max (cycle values). */
    std::string render() const;

  private:
    std::array<std::uint64_t, numBuckets> buckets{};
    /** Per-group sums of `buckets`: reads skip whole empty or
     *  below-rank groups, visiting at most numGroups + subBuckets
     *  entries instead of numBuckets. */
    std::array<std::uint64_t, numGroups> groups{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = UINT64_MAX;
    std::uint64_t _max = 0;
};

/**
 * The phases a request/response transaction decomposes into. The
 * fleet records the exact modelled identity
 *   rtt = wire_flight(req) + server_queue + service + wire_flight(rsp)
 * per transaction; client think sits between transactions and is
 * deliberately outside the RTT.
 */
enum class LatencyPhase : std::uint8_t {
    Rtt = 0,     ///< request departure -> response arrival
    ClientThink, ///< response arrival -> next request departure
    WireFlight,  ///< one wire traversal (either direction)
    ServerQueue, ///< arrival at the server -> service start
    Service,     ///< service start -> service completion
};

inline constexpr std::size_t numLatencyPhases = 5;

/** Stable lower-case phase name ("rtt", "server_queue", ...). */
const char *to_string(LatencyPhase phase);

/**
 * Per-CPU, per-phase latency recording.
 *
 * configure(nCpus) sizes the table, enable() arms recording. record()
 * then does two dozen integer operations on pre-sized arrays: no
 * locks, no allocation. While disabled, record() is one predicted
 * branch. Beside each per-CPU slot, record() also writes one all-CPU
 * row per phase, so a whole-fleet read (cpu = -1) reads one histogram
 * rather than folding every CPU's.
 */
class RequestTracker
{
  public:
    /** Size storage for `nCpus` server CPUs. Drops previously
     *  recorded data. */
    void configure(int nCpus);

    /** Arm recording. @pre configured. */
    void
    enable()
    {
        VIRTSIM_ASSERT(_cpus > 0,
                       "RequestTracker::enable() before configure()");
        _enabled = true;
    }
    bool enabled() const { return _enabled; }

    int cpus() const { return _cpus; }

    /** Record one phase latency for a request served by `cpu`. The
     *  hot path: one predicted branch when disabled, zero-alloc
     *  bucket increments when enabled. */
    void
    record(int cpu, LatencyPhase phase, Cycles value)
    {
        if (!_enabled) [[likely]]
            return;
        recordEnabled(cpu, phase, value);
    }

    /** Histogram for one (cpu, phase) slot. @pre 0 <= cpu < cpus() */
    LatencyHistogram merged(int cpu, LatencyPhase phase) const;

    /** Histogram for a phase across every CPU. */
    LatencyHistogram aggregate(LatencyPhase phase) const;

    /** Sample count for a phase — cpu = -1 reads the all-CPU row.
     *  @pre -1 <= cpu < cpus() */
    std::uint64_t totalCount(LatencyPhase phase, int cpu = -1) const;

    /** Sum of recorded values (cycles) — the flight recorder's
     *  per-window mean comes from delta(sum)/delta(count) between two
     *  sampling instants. */
    std::uint64_t totalSum(LatencyPhase phase, int cpu = -1) const;

    /** LatencyHistogram::countAbove of the slot. */
    std::uint64_t totalAbove(LatencyPhase phase,
                             std::uint64_t threshold,
                             int cpu = -1) const;

    /** LatencyHistogram::quantile of the slot, read in place (no
     *  58 KB copy) — the SLO engine's per-tick rolling quantile
     *  gauge. */
    std::uint64_t quantileAcross(LatencyPhase phase, double q,
                                 int cpu = -1) const;

    /** Zero recorded data; keep configuration and the enabled flag
     *  (the Probe::reset() contract, like
     *  TimelineSampler::resetSeries). */
    void reset();

  private:
    void recordEnabled(int cpu, LatencyPhase phase, Cycles value);

    /** Row 0 is the all-CPU row (cpu = -1); CPU c owns row c + 1. */
    static std::size_t
    slotOf(int cpu, LatencyPhase phase)
    {
        return static_cast<std::size_t>(cpu + 1) * numLatencyPhases +
               static_cast<std::size_t>(phase);
    }

    /** Slot of a read of `cpu` (-1 = all CPUs), range-checked. */
    const LatencyHistogram &slot(int cpu, LatencyPhase phase) const;

    int _cpus = 0;
    bool _enabled = false;
    /** [slotOf(cpu, phase)], sized by configure(). */
    std::vector<LatencyHistogram> table;
};

class Frequency;

/**
 * Standalone JSON export (schema "virtsim-latency-1"): per-CPU and
 * aggregate histograms for every phase — quantiles in exact cycles
 * and in microseconds, plus the sparse nonzero-bucket array so
 * external tooling can recompute quantiles and violation counts and
 * cross-check the exported values (scripts/validate_latency.py).
 * `sloJson` is a pre-rendered JSON array of SLO verdicts (sim/slo) or
 * empty for "[]"; latency stays below slo in the include graph.
 * Deterministic: derived from exact integers only.
 */
std::string renderLatencyJson(const RequestTracker &tracker,
                              const Frequency &freq,
                              const std::string &world,
                              const std::string &sloJson);

} // namespace virtsim

#endif // VIRTSIM_SIM_LATENCY_HH
