/**
 * @file
 * Statistics primitives: counters and sample accumulators.
 *
 * The paper reports per-operation cycle counts (Tables II and III),
 * per-transaction microsecond decompositions (Table V), and normalized
 * throughput ratios (Figure 4). SampleStat covers all three: it keeps
 * every sample so exact means, percentiles and min/max can be
 * extracted, which is cheap at the scale of these experiments
 * (thousands to low millions of samples).
 */

#ifndef VIRTSIM_SIM_STATS_HH
#define VIRTSIM_SIM_STATS_HH

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace virtsim {

/**
 * A monotonically increasing event counter.
 *
 * Increments are relaxed atomics, so a counter stays exact if it is
 * ever bumped from several threads. Copy semantics are value
 * snapshots (needed by the tap-indexed MetricsDomain vectors).
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &o)
        : _value(o._value.load(std::memory_order_relaxed))
    {}
    Counter &
    operator=(const Counter &o)
    {
        _value.store(o._value.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
        return *this;
    }

    void
    inc(std::uint64_t by = 1)
    {
        _value.fetch_add(by, std::memory_order_relaxed);
    }
    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }
    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Accumulates a set of samples and answers summary queries.
 *
 * Exact but unbounded: every sample is retained, so means and
 * percentiles are exact while memory grows linearly with the sample
 * count. That is the right trade for the paper-table experiments
 * (thousands to low millions of samples, then the exact numbers go in
 * a table). Streams that scale with fleet size or run length belong
 * in LatencyHistogram (sim/latency) — bounded memory, <=0.79%
 * quantile error — or HistogramStat below; add() asserts the
 * maxSamples ceiling so an accidental unbounded feed fails loudly
 * instead of quietly growing the heap.
 */
class SampleStat
{
  public:
    /** Hard ceiling on retained samples (32 MB of doubles). */
    static constexpr std::size_t maxSamples = std::size_t{1} << 22;

    void add(double sample);

    std::size_t count() const { return samples.size(); }
    bool empty() const { return samples.empty(); }

    /** Arithmetic mean. @pre !empty() */
    double mean() const;

    /** Smallest sample. @pre !empty() */
    double min() const;

    /** Largest sample. @pre !empty() */
    double max() const;

    /** Sum of all samples. */
    double sum() const { return _sum; }

    /** Population standard deviation. @pre !empty() */
    double stddev() const;

    /**
     * p-th percentile with nearest-rank semantics.
     * @param p in [0, 100].  @pre !empty()
     */
    double percentile(double p) const;

    /** Median (50th percentile). @pre !empty() */
    double median() const { return percentile(50.0); }

    void reset();

  private:
    /** Sort samples into sorted_ on demand. */
    void ensureSorted() const;

    std::vector<double> samples;
    mutable std::vector<double> sorted;
    mutable bool sortedValid = false;
    double _sum = 0.0;
};

/**
 * Bounded-memory cycle histogram: 64 log2 buckets plus exact min, max,
 * count and sum. Unlike SampleStat it never grows with the number of
 * samples, so it is safe to leave attached to per-trap-reason metrics
 * over arbitrarily long sweeps.
 */
class HistogramStat
{
  public:
    static constexpr std::size_t numBuckets = 64;

    void
    add(std::uint64_t sample)
    {
        ++buckets[bucketOf(sample)];
        ++_count;
        _sum += sample;
        _min = std::min(_min, sample);
        _max = std::max(_max, sample);
    }

    std::uint64_t count() const { return _count; }
    bool empty() const { return _count == 0; }

    /** Smallest sample (exact). @pre !empty() */
    std::uint64_t min() const { return _min; }

    /** Largest sample (exact). @pre !empty() */
    std::uint64_t max() const { return _max; }

    /** Sum of all samples (exact). */
    std::uint64_t sum() const { return _sum; }

    /** Arithmetic mean (exact). Returns 0 when empty. */
    double
    mean() const
    {
        return _count == 0
                   ? 0.0
                   : static_cast<double>(_sum) /
                         static_cast<double>(_count);
    }

    /** Samples in bucket i, which covers [2^(i-1), 2^i - 1] (bucket 0
     *  holds exactly the value 0). */
    std::uint64_t bucketCount(std::size_t i) const
    {
        return buckets[i];
    }

    /** Bucket index a sample lands in: bit width of the value. */
    static constexpr std::size_t
    bucketOf(std::uint64_t sample)
    {
        return static_cast<std::size_t>(std::bit_width(sample));
    }

    void reset();

    /** One-line summary: n/min/mean/max. */
    std::string render() const;

  private:
    std::array<std::uint64_t, numBuckets + 1> buckets{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = UINT64_MAX;
    std::uint64_t _max = 0;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_STATS_HH
