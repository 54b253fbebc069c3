/**
 * @file
 * Tests for the deterministic parallel sweep runner: results must be
 * committed in input order and be bit-identical to a serial run, no
 * matter how many worker threads the environment requests.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/appbench.hh"
#include "sim/sweep.hh"

using namespace virtsim;

namespace {

/** Scoped environment override; restores the prior value on exit. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name(name)
    {
        const char *prev = std::getenv(name);
        if (prev)
            saved = prev;
        had = prev != nullptr;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~ScopedEnv()
    {
        if (had)
            ::setenv(name.c_str(), saved.c_str(), 1);
        else
            ::unsetenv(name.c_str());
    }

  private:
    std::string name;
    std::string saved;
    bool had = false;
};

/** Scoped VIRTSIM_JOBS override; restores the prior value on exit. */
class ScopedJobs : public ScopedEnv
{
  public:
    explicit ScopedJobs(const char *value)
        : ScopedEnv("VIRTSIM_JOBS", value)
    {
    }
};

} // namespace

TEST(Sweep, ResultsCommittedInInputOrder)
{
    const std::vector<int> items = {7, 1, 9, 4, 4, 0, 3};
    for (int jobs : {1, 2, 8}) {
        auto out = parallelSweep(
            items, [](const int &v) { return v * 10; }, jobs);
        ASSERT_EQ(out.size(), items.size());
        for (std::size_t i = 0; i < items.size(); ++i)
            EXPECT_EQ(out[i], items[i] * 10) << "jobs=" << jobs;
    }
}

TEST(Sweep, IndexedVariantCoversEveryIndexExactlyOnce)
{
    constexpr std::size_t n = 100;
    std::vector<std::atomic<int>> calls(n);
    auto out = parallelSweepIndexed(
        n,
        [&calls](std::size_t i) {
            calls[i].fetch_add(1);
            return i * i;
        },
        4);
    ASSERT_EQ(out.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(calls[i].load(), 1);
        EXPECT_EQ(out[i], i * i);
    }
}

TEST(Sweep, EmptyAndSingleItemInputs)
{
    const std::vector<int> none;
    EXPECT_TRUE(
        parallelSweep(none, [](const int &v) { return v; }, 8).empty());
    const std::vector<int> one = {42};
    auto out = parallelSweep(one, [](const int &v) { return v + 1; }, 8);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 43);
}

TEST(Sweep, ExceptionFromWorkerPropagates)
{
    EXPECT_THROW(parallelSweepIndexed(
                     16,
                     [](std::size_t i) {
                         if (i == 9)
                             throw std::runtime_error("boom");
                         return i;
                     },
                     4),
                 std::runtime_error);
}

TEST(Sweep, JobsEnvControlsWorkerCount)
{
    {
        ScopedJobs env("3");
        EXPECT_EQ(sweepJobs(), 3);
    }
    {
        ScopedJobs env("1");
        EXPECT_EQ(sweepJobs(), 1);
    }
    {
        ScopedJobs env(nullptr);
        EXPECT_GE(sweepJobs(), 1);
    }
}

TEST(Sweep, InvalidJobsEnvIsFatal)
{
    // Sweeps join their threads before returning, but a sanitizer
    // runtime may keep a background thread of its own; threadsafe
    // style re-executes the death test from scratch instead of
    // forking a multithreaded process.
    testing::FLAGS_gtest_death_test_style = "threadsafe";
    // fatal() exits with status 1 after printing the offending value;
    // zero, negative, non-numeric and empty are all rejected.
    for (const char *bad : {"0", "-3", "abc", "", "4x"}) {
        ScopedJobs env(bad);
        EXPECT_EXIT(sweepJobs(), testing::ExitedWithCode(1),
                    "VIRTSIM_JOBS")
            << "value \"" << bad << "\"";
    }
}

TEST(Sweep, NestedSweepRunsInlineOnTheCaller)
{
    constexpr std::size_t outer = 4;
    constexpr std::size_t inner = 8;
    auto square = [](std::size_t i) { return i * i; };
    const auto serial = parallelSweepIndexed(inner, square, 1);

    struct Cell
    {
        std::vector<std::size_t> results;
        bool sameThread = true;
    };
    const auto cells = parallelSweepIndexed(
        outer,
        [&](std::size_t) {
            const std::thread::id self = std::this_thread::get_id();
            Cell c;
            c.results = parallelSweepIndexed(
                inner,
                [&](std::size_t i) {
                    // Long enough that helper threads, had the inner
                    // sweep started any, would claim some indices.
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
                    if (std::this_thread::get_id() != self)
                        c.sameThread = false;
                    return square(i);
                },
                4);
            return c;
        },
        4);
    ASSERT_EQ(cells.size(), outer);
    for (const Cell &c : cells) {
        EXPECT_EQ(c.results, serial);
        EXPECT_TRUE(c.sameThread);
    }
}

namespace {

/** Threads in this process per /proc/self/status, or 0 where that
 *  file is unavailable. */
std::size_t
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoul(line.substr(8));
    }
    return 0;
}

} // namespace

TEST(Sweep, NeverStartsMoreThreadsThanCells)
{
    constexpr std::size_t n = 3;
    const std::size_t before = processThreads();
    std::mutex m;
    std::set<std::thread::id> ids;
    std::size_t peak = 0;
    std::atomic<std::size_t> started{0};
    (void)parallelSweepIndexed(
        n,
        [&](std::size_t i) {
            // Hold each task until all three are in flight (bounded,
            // so a narrower sweep fails the id count instead of
            // hanging), then count the threads alive at that moment.
            started.fetch_add(1);
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (started.load() < n &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::yield();
            const std::size_t alive = processThreads();
            std::lock_guard<std::mutex> g(m);
            ids.insert(std::this_thread::get_id());
            peak = std::max(peak, alive);
            return i;
        },
        8);
    EXPECT_EQ(ids.size(), n); // three cells at jobs=8 run three wide
    if (before > 0) {
        EXPECT_LE(peak, before + n - 1); // the caller plus two helpers
    }
}

TEST(Sweep, ThrowAbortsRemainingTasks)
{
    // Every task throws immediately, so each participating thread
    // claims at most one index before the abort flag stops the drain:
    // far fewer than n tasks may start.
    constexpr std::size_t n = 1000;
    constexpr int jobs = 4;
    std::atomic<std::size_t> started{0};
    EXPECT_THROW(parallelSweepIndexed(
                     n,
                     [&started](std::size_t) -> int {
                         started.fetch_add(1);
                         throw std::runtime_error("each task throws");
                     },
                     jobs),
                 std::runtime_error);
    EXPECT_LE(started.load(), static_cast<std::size_t>(jobs));
    EXPECT_LT(started.load(), n);
}

namespace {

void
expectIdenticalRows(const std::vector<AppBenchRow> &a,
                    const std::vector<AppBenchRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("row " + a[i].workload);
        EXPECT_EQ(a[i].workload, b[i].workload);
        EXPECT_EQ(a[i].nativeScoreArm, b[i].nativeScoreArm);
        EXPECT_EQ(a[i].nativeScoreX86, b[i].nativeScoreX86);
        ASSERT_EQ(a[i].cells.size(), b[i].cells.size());
        for (std::size_t c = 0; c < a[i].cells.size(); ++c) {
            EXPECT_EQ(a[i].cells[c].kind, b[i].cells[c].kind);
            EXPECT_EQ(a[i].cells[c].score, b[i].cells[c].score);
            EXPECT_EQ(a[i].cells[c].normalizedOverhead,
                      b[i].cells[c].normalizedOverhead);
        }
    }
}

} // namespace

TEST(Sweep, Figure4IsDeterministicAcrossJobCounts)
{
    AppBenchOptions opt;
    opt.seed = 42;

    std::vector<AppBenchRow> serial;
    {
        ScopedJobs env("1");
        serial = runFigure4(opt);
    }
    std::vector<AppBenchRow> parallel;
    {
        ScopedJobs env("8");
        parallel = runFigure4(opt);
    }
    ASSERT_FALSE(serial.empty());
    expectIdenticalRows(serial, parallel);
}
