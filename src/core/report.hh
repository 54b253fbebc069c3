/**
 * @file
 * Plain-text table rendering for the bench harnesses, so each bench
 * binary prints rows shaped like the paper's tables.
 */

#ifndef VIRTSIM_CORE_REPORT_HH
#define VIRTSIM_CORE_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/format.hh"

namespace virtsim {

class FlightRecorder;
class Frequency;
class RequestTracker;
class TimelineSampler;

/**
 * A simple right-aligned text table.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append a row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Render with aligned columns. */
    std::string render() const;

    /** Render as CSV (for plotting pipelines). */
    std::string renderCsv() const;

    std::size_t rows() const { return body.size(); }

  private:
    std::vector<std::string> head;
    std::vector<std::vector<std::string>> body;
};

/** 6500 -> "6,500" (the paper's cycle-count formatting). */
std::string formatCycles(double cycles);

/** Percentage delta vs a reference ("+8.3%"). */
std::string formatDelta(double measured, double reference);

/**
 * ASCII sparkline of a sampled gauge: the series resampled into
 * `width` buckets, each rendered " .:-=+*#%@" by its bucket maximum
 * scaled to the series maximum. Empty when the gauge has no samples.
 */
std::string renderSparkline(const TimelineSampler &timeline,
                            std::size_t gauge, std::size_t width = 48);

/**
 * Multi-line summary of an armed timeline for bench stdout: tick and
 * sample totals, a sparkline per named gauge, and every recorded
 * watchdog anomaly window. Benches print this next to their tables so
 * a saturated queue is visible without opening the JSON export.
 */
std::string renderTimelineSummary(
    const TimelineSampler &timeline, const Frequency &freq,
    const std::vector<std::string> &gauges);

/**
 * Multi-line summary of a request-latency tracker (sim/latency) for
 * bench stdout: one row per recorded phase with count, mean and the
 * tail quantiles in microseconds, from the aggregate histograms — so
 * the printed numbers match the virtsim-latency-1 export byte for
 * byte. Empty string when nothing was recorded.
 */
std::string renderLatencySummary(const RequestTracker &latency,
                                 const Frequency &freq);

/**
 * Multi-line summary of a flight recorder's captured incidents for
 * bench stdout: one row per incident with the trigger instant, window
 * bounds, record count, critical-path coverage and the term that grew
 * most vs the healthy reference ("-" when none grew) — the "what
 * changed" headline without opening the incident JSON. A truncated
 * window is marked in the records column and adds a line naming
 * VIRTSIM_TRACE_CAPACITY, the ring size that bounds windows. Empty
 * string when nothing was captured and nothing was dropped.
 */
std::string renderIncidentSummary(const FlightRecorder &flight,
                                  const Frequency &freq);

} // namespace virtsim

#endif // VIRTSIM_CORE_REPORT_HH
