/**
 * @file
 * Tests for the deterministic parallel sweep runner: results must be
 * committed in input order and be bit-identical to a serial run, no
 * matter how many worker threads the environment requests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
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
    // Earlier tests may have started persistent pool workers;
    // threadsafe style re-executes the death test from scratch
    // instead of forking a multithreaded process.
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

TEST(Sweep, PoolPersistsAcrossBackToBackSweeps)
{
    ScopedJobs env("4");
    auto task = [](std::size_t i) { return i + 1; };

    (void)parallelSweepIndexed(32, task);
    const SweepPoolStats after_first = sweepPoolStats();
    EXPECT_GE(after_first.threads, 3u); // caller + 3 helpers at jobs=4
    EXPECT_GE(after_first.parallelSweeps, 1u);

    (void)parallelSweepIndexed(32, task);
    (void)parallelSweepIndexed(32, task);
    const SweepPoolStats after_more = sweepPoolStats();

    // Reuse, not respawn: two more sweeps ran without growing the
    // pool, and every task completed.
    EXPECT_EQ(after_more.threads, after_first.threads);
    EXPECT_EQ(after_more.parallelSweeps, after_first.parallelSweeps + 2);
    EXPECT_EQ(after_more.tasksExecuted, after_first.tasksExecuted + 64);
}

TEST(Sweep, SerialPathIsCountedSeparately)
{
    const SweepPoolStats before = sweepPoolStats();
    (void)parallelSweepIndexed(8, [](std::size_t i) { return i; }, 1);
    const SweepPoolStats after = sweepPoolStats();
    EXPECT_EQ(after.serialSweeps, before.serialSweeps + 1);
    EXPECT_EQ(after.parallelSweeps, before.parallelSweeps);
    EXPECT_EQ(after.tasksExecuted, before.tasksExecuted + 8);
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
