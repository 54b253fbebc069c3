/**
 * @file
 * Deterministic parallel sweep runner: a fork/join per call.
 *
 * The large experiment sweeps — Figure 4's twelve workloads x five
 * configurations, the ablation grids, the Table II microbenchmark
 * matrix — are embarrassingly parallel: every cell builds its own
 * Testbed with its own EventQueue and PRNG and shares nothing with
 * its neighbors. parallelSweep() farms such cells out to host threads
 * while keeping the output *bit-identical* to a serial run:
 *
 *  - tasks are handed out by an atomic index (no work stealing, no
 *    reordering queues), and
 *  - each task commits its result into results[i] for input index i,
 *    so the assembled vector is independent of execution
 *    interleaving — any scheduling of the same tasks yields the same
 *    output bytes.
 *
 * Each parallel sweep starts its helper threads, drains the index on
 * the calling thread alongside them, and joins them before it
 * returns; no thread outlives the call. A cell costs milliseconds and
 * a thread start tens of microseconds, so there is nothing to reuse
 * across sweeps. A sweep that throws sets an abort flag so the
 * remaining task indices are abandoned rather than drained; the first
 * exception is rethrown on the calling thread after the join.
 *
 * Thread count comes from the VIRTSIM_JOBS environment variable
 * (default: std::thread::hardware_concurrency), capped at the number
 * of tasks and at 256. VIRTSIM_JOBS=1 forces the plain serial path —
 * same code the harness always ran — which is also used automatically
 * for single-item sweeps and for sweeps nested inside a sweep task.
 */

#ifndef VIRTSIM_SIM_SWEEP_HH
#define VIRTSIM_SIM_SWEEP_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace virtsim {

/** Thread count a sweep will use: VIRTSIM_JOBS if set (must be a
 *  positive integer), else hardware_concurrency, else 1. Read per
 *  call so tests and benches can adjust the environment. */
int sweepJobs();

namespace sweep_detail {

/** Run task(0..n-1) on up to jobs threads, the caller included;
 *  serial when jobs <= 1. A throwing task aborts the remaining
 *  indices; the first exception is rethrown after every thread has
 *  been joined. */
void runIndexed(std::size_t n,
                const std::function<void(std::size_t)> &task,
                int jobs);

} // namespace sweep_detail

/**
 * Evaluate fn(0), ..., fn(n-1) — each must be independent of the
 * others — and return their results in input order.
 *
 * Result types must be default-constructible and movable. The output
 * is byte-identical for every jobs value, 1 included.
 */
template <typename Fn>
auto
parallelSweepIndexed(std::size_t n, Fn fn, int jobs = sweepJobs())
    -> std::vector<decltype(fn(std::size_t{}))>
{
    using Result = decltype(fn(std::size_t{}));
    std::vector<Result> results(n);
    sweep_detail::runIndexed(
        n, [&](std::size_t i) { results[i] = fn(i); }, jobs);
    return results;
}

/**
 * Map fn over items in parallel; results come back in item order.
 */
template <typename Item, typename Fn>
auto
parallelSweep(const std::vector<Item> &items, Fn fn,
              int jobs = sweepJobs())
    -> std::vector<decltype(fn(items.front()))>
{
    return parallelSweepIndexed(
        items.size(), [&](std::size_t i) { return fn(items[i]); },
        jobs);
}

} // namespace virtsim

#endif // VIRTSIM_SIM_SWEEP_HH
