/**
 * @file
 * Statistics primitives: counters and exact cycle summaries.
 *
 * The paper reports per-operation cycle means (Tables II and III).
 * CycleSummary carries exactly that — count, sum, min, max and the
 * mean — in a fixed 32 bytes, whatever the sample count. Request
 * latency tails live in LatencyHistogram (sim/latency).
 *
 * Neither type is thread-safe: every world runs on one event queue,
 * and sweep workers never share a world.
 */

#ifndef VIRTSIM_SIM_STATS_HH
#define VIRTSIM_SIM_STATS_HH

#include <algorithm>
#include <cstdint>

#include "sim/log.hh"

namespace virtsim {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void inc(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Exact count, sum, min and max of integer cycle samples. The mean is
 * the sum divided once, so it equals the mean of the same samples
 * summed as doubles while the sum stays below 2^53.
 */
class CycleSummary
{
  public:
    void
    add(std::uint64_t sample)
    {
        ++_count;
        _sum += sample;
        _min = std::min(_min, sample);
        _max = std::max(_max, sample);
    }

    std::uint64_t count() const { return _count; }
    bool empty() const { return _count == 0; }
    std::uint64_t sum() const { return _sum; }

    /** Smallest sample. @pre !empty() */
    std::uint64_t
    min() const
    {
        VIRTSIM_ASSERT(!empty(), "min of empty summary");
        return _min;
    }

    /** Largest sample. @pre !empty() */
    std::uint64_t
    max() const
    {
        VIRTSIM_ASSERT(!empty(), "max of empty summary");
        return _max;
    }

    /** Arithmetic mean. @pre !empty() */
    double
    mean() const
    {
        VIRTSIM_ASSERT(!empty(), "mean of empty summary");
        return static_cast<double>(_sum) / static_cast<double>(_count);
    }

    void reset() { *this = CycleSummary(); }

  private:
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = UINT64_MAX;
    std::uint64_t _max = 0;
};

} // namespace virtsim

#endif // VIRTSIM_SIM_STATS_HH
