#include "sim/sweep.hh"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>

#include <limits>

#include "sim/env.hh"
#include "sim/log.hh"
#include "sim/probe.hh"

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

/** A thread already inside a sweep task: nested sweeps run serially
 *  (the pool dispatches one job at a time), which is byte-identical
 *  anyway. */
thread_local bool in_sweep_task = false;

/**
 * Process-lifetime worker pool. Workers are created lazily the first
 * time a sweep wants them, sleep on a condition variable between
 * sweeps, and are joined at static destruction. One job runs at a
 * time — sweeps at this level are never concurrent with each other —
 * so the job state is a single slot guarded by the pool mutex.
 *
 * Determinism: the pool changes *which host thread* runs a task, but
 * tasks are still handed out by an atomic index and committed at
 * their input index, so results are byte-identical to the old
 * spawn/join runner (and to serial) for every VIRTSIM_JOBS value.
 */
class SweepPool
{
  public:
    static SweepPool &
    instance()
    {
        static SweepPool pool;
        return pool;
    }

    void
    run(std::size_t n, const std::function<void(std::size_t)> &task,
        std::size_t width)
    {
        Job job;
        job.task = &task;
        job.n = n;
        {
            std::unique_lock<std::mutex> lock(m);
            // Helpers beyond the calling thread; cap the persistent
            // pool so a huge VIRTSIM_JOBS cannot pin thousands of
            // idle threads (extra width beyond the cap only idles on
            // the atomic index anyway).
            const std::size_t helpers =
                std::min(width - 1, maxThreads);
            while (threads.size() < helpers)
                threads.emplace_back([this] { workerLoop(); });
            current = &job;
            wanted = std::min(helpers, threads.size());
            ++statParallelSweeps;
            cv.notify_all();
        }
        drain(job); // the calling thread participates
        {
            std::unique_lock<std::mutex> lock(m);
            wanted = 0; // cancel pickups that never happened
            doneCv.wait(lock, [this] { return active == 0; });
            current = nullptr;
        }
        if (job.firstError)
            std::rethrow_exception(job.firstError);
    }

    SweepPoolStats
    stats()
    {
        std::lock_guard<std::mutex> lock(m);
        SweepPoolStats s;
        s.threads = threads.size();
        s.parallelSweeps = statParallelSweeps;
        s.serialSweeps = statSerialSweeps;
        s.tasksExecuted =
            statTasksExecuted.load(std::memory_order_relaxed);
        s.workerWakes = statWakes;
        return s;
    }

    void
    countSerialSweep(std::uint64_t tasks)
    {
        std::lock_guard<std::mutex> lock(m);
        ++statSerialSweeps;
        statTasksExecuted.fetch_add(tasks, std::memory_order_relaxed);
    }

    ~SweepPool()
    {
        {
            std::lock_guard<std::mutex> lock(m);
            stop = true;
            cv.notify_all();
        }
        for (auto &t : threads)
            t.join();
    }

  private:
    struct Job
    {
        const std::function<void(std::size_t)> *task = nullptr;
        std::size_t n = 0;
        std::atomic<std::size_t> next{0};
        /** Set on the first task exception: remaining indices are
         *  abandoned instead of drained to completion. */
        std::atomic<bool> abort{false};
        std::exception_ptr firstError;
        std::mutex errorMutex;
    };

    /** Largest number of persistent helper threads ever retained. */
    static constexpr std::size_t maxThreads = 256;

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            cv.wait(lock,
                    [this] { return stop || (current && wanted > 0); });
            if (stop)
                return;
            --wanted;
            ++active;
            ++statWakes;
            Job *job = current;
            lock.unlock();
            drain(*job);
            lock.lock();
            if (--active == 0)
                doneCv.notify_all();
        }
    }

    void
    drain(Job &job)
    {
        in_sweep_task = true;
        for (;;) {
            if (job.abort.load(std::memory_order_relaxed))
                break;
            const std::size_t i =
                job.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= job.n)
                break;
            try {
                (*job.task)(i);
                statTasksExecuted.fetch_add(1,
                                            std::memory_order_relaxed);
            } catch (...) {
                std::lock_guard<std::mutex> g(job.errorMutex);
                if (!job.firstError)
                    job.firstError = std::current_exception();
                job.abort.store(true, std::memory_order_relaxed);
            }
        }
        in_sweep_task = false;
    }

    std::mutex m;
    std::condition_variable cv;     ///< workers sleep here
    std::condition_variable doneCv; ///< caller waits for quiescence
    std::vector<std::thread> threads;
    Job *current = nullptr;  ///< the one in-flight job, if any
    std::size_t wanted = 0;  ///< pickups still to hand out
    std::size_t active = 0;  ///< workers inside the current job
    bool stop = false;
    std::uint64_t statParallelSweeps = 0;
    std::uint64_t statSerialSweeps = 0;
    std::uint64_t statWakes = 0;
    std::atomic<std::uint64_t> statTasksExecuted{0};
};

} // namespace

SweepPoolStats
sweepPoolStats()
{
    return SweepPool::instance().stats();
}

void
publishSweepPoolStats(MetricsRegistry &metrics)
{
    const SweepPoolStats s = sweepPoolStats();
    MetricsDomain &mach = metrics.machine();
    auto set = [&mach](const char *name, std::uint64_t v) {
        Counter &c = mach.counter(internTap(name));
        c.reset();
        c.inc(v);
    };
    set("sweep.pool.threads", s.threads);
    set("sweep.pool.parallel_sweeps", s.parallelSweeps);
    set("sweep.pool.serial_sweeps", s.serialSweeps);
    set("sweep.pool.tasks_executed", s.tasksExecuted);
    set("sweep.pool.worker_wakes", s.workerWakes);
}

namespace sweep_detail {

void
runIndexed(std::size_t n,
           const std::function<void(std::size_t)> &task, int jobs)
{
    if (jobs <= 1 || n <= 1 || in_sweep_task) {
        // The old serial path, byte-identical by construction. Also
        // taken for sweeps nested inside a sweep task: the pool runs
        // one job at a time, and nesting deadlocking on it would buy
        // nothing over the (deterministic) inline loop.
        for (std::size_t i = 0; i < n; ++i)
            task(i);
        SweepPool::instance().countSerialSweep(n);
        return;
    }

    const std::size_t width =
        std::min(static_cast<std::size_t>(jobs), n);
    SweepPool::instance().run(n, task, width);
}

} // namespace sweep_detail

} // namespace virtsim
