/**
 * @file
 * perfbench: single-process benchmark for virtsim.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>] [--setup-only] [--self-test]
 *
 * One process runs one workload: set-up, one warm-up op, then ops until
 * the time is up. Every op does byte-identical simulated work; its
 * steps are each timed between two runs of the reference kernel and
 * reported in reference-kernel units, so host drift between processes
 * cancels. Each op's output is checked (paper predicates, fleet
 * checksums) and must equal the warm-up op's output exactly.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics (end-to-end metrics with --trace 0, per-layer metrics
 * with --trace 1). A fuller record, with the host and build, goes to
 * <out-dir>/results-<workload>-seed<n>-trace<t>.json, and a traced run
 * writes its spans to <out-dir>/trace-<workload>-seed<n>.json.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hh"

extern char **environ;

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return std::nan("");
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

namespace {

/** Default --seed; 7 is the second seed for held-out claim checks. */
constexpr std::uint64_t defaultSeed = 42;

/** setup_s is in seconds of a host on which one reference-kernel run
 *  takes this long (about what it takes on the 4-core host the bounds
 *  were set on). */
constexpr double nominalRefSeconds = 0.02;
constexpr int setupRefRuns = 3;

struct Args
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out";
    bool setupOnly = false;
    bool selfTest = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload "
                 "<paper_tables|fleet_closed|fleet_observed|fleet_lanes> "
                 "[--seed N] [--seconds S] [--trace 0|1] [--out-dir DIR] "
                 "[--setup-only] [--self-test]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + k);
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--out-dir")
                a.outDir = value();
            else if (k == "--setup-only")
                a.setupOnly = true;
            else if (k == "--self-test")
                a.selfTest = true;
            else
                usage("unknown argument " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (a.workload.empty() && !a.selfTest)
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

/**
 * Drop every inherited VIRTSIM_* variable (a stray VIRTSIM_TRACE would
 * arm sinks), then pin one host thread per op: no sweep pool, one
 * kernel lane. fleet_lanes asks for its two lanes explicitly.
 */
void
sanitizeEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("VIRTSIM_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        unsetenv(n.c_str());
    setenv("VIRTSIM_JOBS", "1", 1);
    setenv("VIRTSIM_SHARDS", "1", 1);
}

BenchWorkload
makeWorkload(const Args &a, const std::string &incidentDir)
{
    if (a.workload == "paper_tables")
        return paperTablesWorkload(a.seed);
    if (a.workload == "fleet_closed")
        return fleetClosedWorkload(a.seed);
    if (a.workload == "fleet_observed")
        return fleetObservedWorkload(a.seed, incidentDir);
    if (a.workload == "fleet_lanes")
        return fleetLanesWorkload(a.seed);
    usage("unknown workload " + a.workload);
}

/** Check an op's output: the workload's predicates, then exact
 *  equality with the warm-up op (host.* values describe the host-side
 *  execution and are exempt). */
void
checkOp(const BenchWorkload &w, const OpOutput *reference, OpOutput &out)
{
    w.check(out);
    if (!reference)
        return;
    auto modelled = [](const std::map<std::string, double> &m) {
        std::map<std::string, double> r;
        for (const auto &[k, v] : m) {
            if (k.rfind("host.", 0) != 0)
                r[k] = v;
        }
        return r;
    };
    if (modelled(out.values) != modelled(reference->values))
        out.failures.emplace_back("output_differs_from_warmup_op");
}

/** One timed op's host-side measurements. */
struct OpSample
{
    double refUnits = 0; ///< sum over steps of step time / its reference
    double cpuRefUnits = 0;
    double seconds = 0;
    std::uint64_t allocCalls = 0;
    std::uint64_t allocBytes = 0;
    bool traced = false;
    bool failed = false;
};

OpSample
runOp(const BenchWorkload &w, const OpOutput *reference,
      std::vector<double> &refs, bool corrupt)
{
    OpSample s;
    OpOutput out;
    double before = runReferenceKernel();
    refs.push_back(before);
    for (const Step &step : w.steps) {
        const AllocCount a0 = allocCount();
        const double c0 = processCpu();
        const double t0 = wallNow();
        {
            SpanScope span("bench", "step." + step.name);
            step.run(out);
        }
        const double t = wallNow() - t0;
        const double c = processCpu() - c0;
        const AllocCount a1 = allocCount();
        const double after = runReferenceKernel();
        refs.push_back(after);
        const double ref = (before + after) / 2;
        s.refUnits += t / ref;
        s.cpuRefUnits += c / ref;
        s.seconds += t;
        s.allocCalls += a1.calls - a0.calls;
        s.allocBytes += a1.bytes - a0.bytes;
        before = after;
    }
    if (corrupt)
        out.values[w.corruptKey] = out.values[w.corruptKey] * 2 + 1;
    checkOp(w, reference, out);
    s.failed = !out.failures.empty();
    for (const std::string &f : out.failures)
        std::cerr << "perfbench: op check failed: " << f << "\n";
    return s;
}

/** Peak resident memory of this process image, from VmHWM. (getrusage's
 *  ru_maxrss also keeps the peak of the process that exec'd us.) */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return std::nan("");
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string r = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            r += '\\';
        r += c;
    }
    return r + "\"";
}

std::string
metricsJson(const Metrics &m)
{
    std::string s = "{";
    bool first = true;
    for (const auto &[name, vu] : m) {
        s += (first ? "" : ", ") + jsonString(name) +
             ": {\"value\": " + jsonNumber(vu.first) +
             ", \"unit\": " + jsonString(vu.second) + "}";
        first = false;
    }
    return s + "}";
}

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool optimizedBuild = true;
#else
constexpr bool optimizedBuild = false;
#endif

std::string
environmentJson(const Args &a)
{
    std::ostringstream os;
    os << "{\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"build_type\": " << jsonString(PERFBENCH_BUILD_TYPE)
       << ", \"optimized\": " << (optimizedBuild ? "true" : "false")
       << ", \"compiler\": " << jsonString(__VERSION__)
       << ", \"seed\": " << a.seed << ", \"workload\": "
       << jsonString(a.workload) << ", \"seconds\": " << a.seconds
       << ", \"trace\": " << (a.trace ? 1 : 0) << "}";
    return os.str();
}

/** The self-test: a corrupted op must be counted as failed, a clean
 *  one must not. Runs the real harness path on fleet_closed. */
int
selfTest(const Args &a, const std::string &incidentDir)
{
    Args fa = a;
    fa.workload = "fleet_closed";
    const BenchWorkload w = makeWorkload(fa, incidentDir);
    OpOutput reference;
    for (const Step &s : w.steps)
        s.run(reference);
    std::vector<double> refs;
    const OpSample clean = runOp(w, &reference, refs, false);
    const OpSample bad = runOp(w, &reference, refs, true);
    const bool ok = !clean.failed && bad.failed;
    std::cout << "perfbench self-test: clean op "
              << (clean.failed ? "FAILED" : "passed")
              << ", corrupted op "
              << (bad.failed ? "counted as failed" : "NOT caught") << "\n"
              << (ok ? "self-test passed" : "self-test FAILED") << "\n";
    return ok ? 0 : 1;
}

int
run(const Args &a, double processStart)
{
    std::filesystem::create_directories(a.outDir);
    const std::string incidentDir =
        (std::filesystem::path(a.outDir) / ("incidents-" + a.workload))
            .string();
    if (a.selfTest)
        return selfTest(a, incidentDir);
    if (!optimizedBuild)
        std::cerr << "perfbench: WARNING: this build is not optimised; "
                     "its timings are not comparable\n";

    BenchWorkload w = makeWorkload(a, incidentDir);

    // Warm-up op: fills the testbed cache and lazy state, and fixes the
    // output every timed op must reproduce.
    OpOutput reference;
    for (const Step &s : w.steps)
        s.run(reference);
    checkOp(w, nullptr, reference);
    const bool warmupOk = reference.failures.empty();
    for (const std::string &f : reference.failures)
        std::cerr << "perfbench: warm-up check failed: " << f << "\n";
    const double setupRawS = wallNow() - processStart;
    // Peak memory through set-up and one op: fixed work, so unlike the
    // end-of-run peak it does not grow with the number of ops that fit
    // into the run (heap fragmentation grows with them on some seeds).
    const double peakRss = peakRssMb();
    // Raw set-up seconds follow the host's speed, which moved by a third
    // between runs minutes apart; scaled by the reference kernel timed
    // right after, set-up is reported in seconds of a nominal host.
    std::vector<double> setupRefs;
    for (int i = 0; i < setupRefRuns; ++i)
        setupRefs.push_back(runReferenceKernel());
    const double setupS = setupRawS / median(setupRefs) * nominalRefSeconds;

    if (a.setupOnly) {
        Metrics m;
        m["setup_s"] = {setupS, "s"};
        std::cout << "{\"correct\": " << (warmupOk ? "true" : "false")
                  << ", \"attempted\": 1, \"failed\": "
                  << (warmupOk ? 0 : 1)
                  << ", \"metrics\": " << metricsJson(m) << "}\n";
        return 0;
    }

    // The checks must catch a corrupted result, or their verdict means
    // nothing.
    OpOutput corrupted = reference;
    corrupted.failures.clear();
    corrupted.values[w.corruptKey] = corrupted.values[w.corruptKey] * 2 + 1;
    checkOp(w, &reference, corrupted);
    if (corrupted.failures.empty()) {
        std::cerr << "perfbench: output check missed a corrupted "
                  << w.corruptKey << "\n";
        return 3;
    }

    // Timed ops. A traced run alternates traced and untraced ops, at
    // least one of each; the untraced ones give trace.overhead_pct.
    std::vector<OpSample> ops;
    std::vector<double> refs;
    const std::size_t tracedSpanStart = tracer().spans().size();
    const std::size_t minOps = a.trace ? 2 : 1;
    const double deadline = wallNow() + a.seconds;
    while (ops.size() < minOps || wallNow() < deadline) {
        const bool traced = a.trace && ops.size() % 2 == 0;
        if (traced)
            tracer().arm();
        OpSample s = runOp(w, &reference, refs, false);
        tracer().disarm();
        s.traced = traced;
        ops.push_back(s);
    }

    std::uint64_t failed = 0;
    std::vector<double> opRef, cpuRef, opRefTraced, allocCalls, allocBytes;
    double tracedOps = 0;
    for (const OpSample &s : ops) {
        failed += s.failed ? 1 : 0;
        (s.traced ? opRefTraced : opRef).push_back(s.refUnits);
        if (!s.traced)
            cpuRef.push_back(s.cpuRefUnits);
        allocCalls.push_back(static_cast<double>(s.allocCalls));
        allocBytes.push_back(static_cast<double>(s.allocBytes));
        tracedOps += s.traced ? 1 : 0;
    }
    const std::uint64_t attempted = ops.size();

    Metrics m;
    if (!a.trace) {
        m["setup_s"] = {setupS, "s"};
        m["op_ref_p50"] = {median(opRef), "ref"};
        m["peak_rss_mb"] = {peakRss, "MB"};
        m["pass_pct"] = {100.0 * static_cast<double>(attempted - failed) /
                             static_cast<double>(attempted),
                         "%"};
        m["sim_rtt_mean_us"] = {reference.values.at(w.rttKey), "sim_us"};
        const OpOutput cells = a.workload == "paper_tables"
                                   ? reference
                                   : runPaperCellExperiments(a.seed);
        const PaperError err = scorePaperCells(cells);
        m["paper_err_pct"] = {err.allPct, "%"};
        m["heldout_err_pct"] = {err.heldoutPct, "%"};
    } else {
        const std::map<std::string, double> self =
            tracer().selfTimeByLayer(tracedSpanStart);
        for (const char *layer : {"bench", "core.testbed", "hv", "net",
                                  "core.appbench", "core.fleet", "obs"}) {
            const auto it = self.find(layer);
            m[std::string("self_ms.") + layer] = {
                it == self.end() ? 0.0 : it->second * 1e3 / tracedOps,
                "ms"};
        }
        m["alloc.per_op"] = {median(allocCalls), "count"};
        m["alloc.bytes_per_op"] = {median(allocBytes), "bytes"};
        m["ref_s_p50"] = {median(refs), "s"};
        m["cpu_per_wall"] = {median(cpuRef) / median(opRef), "ratio"};
        m["trace.overhead_pct"] = {
            (median(opRefTraced) / median(opRef) - 1) * 100, "%"};
        tracer().arm();
        runLayerProbes(a.seed, incidentDir, m);
        tracer().disarm();
        const std::string tracePath =
            (std::filesystem::path(a.outDir) /
             ("trace-" + a.workload + "-seed" + std::to_string(a.seed) +
              ".json"))
                .string();
        if (!tracer().writeChromeTrace(tracePath))
            std::cerr << "perfbench: cannot write " << tracePath << "\n";
    }

    const bool correct = warmupOk && failed == 0;
    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << attempted << ", \"failed\": " << failed
           << ", \"metrics\": " << metricsJson(m) << "}";

    std::ostringstream samples, seconds, refRuns;
    for (std::size_t i = 0; i < ops.size(); ++i) {
        samples << (i ? ", " : "") << jsonNumber(ops[i].refUnits);
        seconds << (i ? ", " : "") << jsonNumber(ops[i].seconds);
    }
    for (std::size_t i = 0; i < refs.size(); ++i)
        refRuns << (i ? ", " : "") << jsonNumber(refs[i]);
    const std::string resultsPath =
        (std::filesystem::path(a.outDir) /
         ("results-" + a.workload + "-seed" + std::to_string(a.seed) +
          "-trace" + (a.trace ? "1" : "0") + ".json"))
            .string();
    std::ofstream rf(resultsPath);
    rf << "{\"environment\": " << environmentJson(a)
       << ",\n \"setup_raw_s\": " << jsonNumber(setupRawS)
       << ",\n \"op_ref_samples\": [" << samples.str()
       << "],\n \"op_seconds\": [" << seconds.str()
       << "],\n \"ref_seconds\": [" << refRuns.str()
       << "],\n \"result\": " << result.str() << "}\n";

    std::cout << "perfbench " << a.workload << " seed " << a.seed << ": "
              << attempted << " ops, " << failed << " failed; environment "
              << environmentJson(a) << "\n"
              << result.str() << "\n";
    return 0;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    const double start = perfbench::wallNow();
    perfbench::sanitizeEnvironment();
    const perfbench::Args args = perfbench::parseArgs(argc, argv);
    try {
        return perfbench::run(args, start);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
