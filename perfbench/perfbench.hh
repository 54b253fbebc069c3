/**
 * @file
 * Shared pieces of perfbench: the reference kernel every
 * timed step is normalised against, the allocation counter, the span
 * tracer, and the record one op leaves behind for its output checks.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** @name Host clocks */
double wallNow();    ///< steady clock, seconds
double processCpu(); ///< CPU time of the whole process, seconds

/**
 * The reference kernel: a fixed-size, single-threaded event-heap plus
 * hash-map churn of about 20 ms. It calls nothing in virtsim and is
 * compiled with flags fixed by this package, so its duration moves
 * only with the host. @return its wall time in seconds.
 */
double runReferenceKernel();

/** Calls and bytes through the global operator new since start. */
struct AllocCount
{
    std::uint64_t calls = 0;
    std::uint64_t bytes = 0;
};
AllocCount allocCount();

/** One recorded span; parent is -1 at the root. */
struct SpanRecord
{
    std::string layer;
    std::string name;
    double start = 0; ///< seconds since tracer start
    double end = 0;
    int parent = -1;
};

/**
 * In-memory span recorder. Spans open and close through SpanScope; the
 * recorder is inert (and SpanScope a no-op) unless armed.
 */
class Tracer
{
  public:
    void arm() { armed = true; }
    void disarm() { armed = false; }
    bool isArmed() const { return armed; }

    int open(std::string layer, std::string name);
    void close(int id);

    const std::vector<SpanRecord> &spans() const { return recs; }

    /** Self time (duration minus children) summed per layer over spans
     *  [first, recs.size()), seconds. */
    std::map<std::string, double> selfTimeByLayer(std::size_t first) const;

    /** Summed duration of spans named `name` from index first on. */
    double totalDuration(const std::string &name,
                         std::size_t first = 0) const;

    /** Write every span as a Chrome-trace "X" event. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    bool armed = false;
    double origin = wallNow();
    std::vector<SpanRecord> recs;
    std::vector<int> stack;
};

Tracer &tracer();

/** RAII span around one call into a layer. */
class SpanScope
{
  public:
    SpanScope(const char *layer, std::string name)
    {
        if (tracer().isArmed())
            id = tracer().open(layer, std::move(name));
    }
    ~SpanScope()
    {
        if (id >= 0)
            tracer().close(id);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    int id = -1;
};

/**
 * What one op produced: named result values (simulated quantities,
 * never host times) and the check verdict. Two ops of one workload do
 * byte-identical simulated work, so their values must be equal.
 */
struct OpOutput
{
    std::map<std::string, double> values;
    /** Names of the output predicates that failed. */
    std::vector<std::string> failures;
};

/** One step of an op: a call sequence timed between two reference
 *  kernel runs. */
struct Step
{
    std::string name;
    std::function<void(OpOutput &)> run;
};

/** A benchmark workload as the harness sees it. */
struct BenchWorkload
{
    std::string name;
    /** Steps of one op, each bracketed by the reference kernel. */
    std::vector<Step> steps;
    /** Append the failed predicates of out to out.failures; may also
     *  derive summary values from the per-step ones. */
    std::function<void(OpOutput &)> check;
    /** A value the self-test corrupts to show the check catches it. */
    std::string corruptKey;
    /** Modelled mean RTT of the op, microseconds of simulated time. */
    std::string rttKey;
};

/** @name Workload construction (workloads.cc) */
BenchWorkload paperTablesWorkload(std::uint64_t seed);
BenchWorkload fleetClosedWorkload(std::uint64_t seed);
BenchWorkload fleetObservedWorkload(std::uint64_t seed,
                               const std::string &incidentDir);
BenchWorkload fleetLanesWorkload(std::uint64_t seed);

/** @name Paper reference table (paper_ref.cc) */
struct PaperError
{
    double allPct = 0;     ///< mean |sim - paper| / paper, every cell
    double heldoutPct = 0; ///< the same over held-out cells only
    int cells = 0;
    int heldoutCells = 0;
};
/** Score a paper pass's values against the published cells. Throws
 *  if a cell's value is missing. */
PaperError scorePaperCells(const OpOutput &out);
/** Run only the experiments the reference table covers. */
OpOutput runPaperCellExperiments(std::uint64_t seed);

/** @name Per-layer probes of the traced run (probes.cc) */
using Metrics = std::map<std::string, std::pair<double, std::string>>;
void runLayerProbes(std::uint64_t seed, const std::string &incidentDir,
                    Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
