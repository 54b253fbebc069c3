#include "sim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>

#include "sim/env.hh"
#include "sim/log.hh"

namespace virtsim {

int
sweepJobs()
{
    if (const char *env = std::getenv("VIRTSIM_JOBS")) {
        // An explicitly empty VIRTSIM_JOBS is a user error, not a
        // request for the hardware default (envPositiveCount treats
        // empty as unset).
        if (*env == '\0') {
            fatal("VIRTSIM_JOBS must be a positive integer, "
                  "got \"\"");
        }
        const auto v = envPositiveCount(
            "VIRTSIM_JOBS",
            static_cast<std::uint64_t>(
                std::numeric_limits<int>::max()));
        return static_cast<int>(*v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace {

/** A thread already inside a sweep task: nested sweeps run inline on
 *  it, which is byte-identical anyway and keeps a sweep of sweeps
 *  from starting threads per outer cell. */
thread_local bool in_sweep_task = false;

/** Most threads one sweep starts, the caller included, so a huge
 *  VIRTSIM_JOBS cannot start a thread per cell (width beyond a few
 *  times the core count only idles on the atomic index anyway). */
constexpr std::size_t maxWidth = 256;

} // namespace

namespace sweep_detail {

void
runIndexed(std::size_t n,
           const std::function<void(std::size_t)> &task, int jobs)
{
    if (jobs <= 1 || n <= 1 || in_sweep_task) {
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    // Set on the first task exception: remaining indices are
    // abandoned instead of drained to completion.
    std::atomic<bool> abort{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;
    auto drain = [&] {
        in_sweep_task = true;
        while (!abort.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                task(i);
            } catch (...) {
                std::lock_guard<std::mutex> g(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
                abort.store(true, std::memory_order_relaxed);
            }
        }
        in_sweep_task = false;
    };

    const std::size_t width =
        std::min({static_cast<std::size_t>(jobs), n, maxWidth});
    {
        std::vector<std::jthread> helpers;
        helpers.reserve(width - 1);
        for (std::size_t t = 1; t < width; ++t)
            helpers.emplace_back(drain);
        drain(); // the calling thread participates
    } // ~jthread joins every helper
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace sweep_detail

} // namespace virtsim
