/**
 * @file
 * The four benchmark workloads: what one op calls, and the checks its
 * output must pass. The paper predicates are the ones the bench
 * binaries exit on; the fleet checks pin the modelled result.
 */

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>

#include "core/appbench.hh"
#include "core/fleet.hh"
#include "core/hypercall_breakdown.hh"
#include "core/microbench.hh"
#include "core/netperf.hh"
#include "core/testbed.hh"
#include "core/workloads/apache.hh"
#include "core/workloads/memcached.hh"
#include "core/workloads/netperf_workloads.hh"
#include "hw/machine.hh"
#include "perfbench.hh"
#include "workloads.hh"

using namespace virtsim;

namespace perfbench {

std::string
sutSlug(SutKind k)
{
    switch (k) {
      case SutKind::Native:
        return "native";
      case SutKind::NativeX86:
        return "native_x86";
      case SutKind::KvmArm:
        return "kvm_arm";
      case SutKind::XenArm:
        return "xen_arm";
      case SutKind::KvmX86:
        return "kvm_x86";
      case SutKind::XenX86:
        return "xen_x86";
      case SutKind::KvmArmVhe:
        return "kvm_arm_vhe";
    }
    return "unknown";
}

std::string
opSlug(MicroOp op)
{
    switch (op) {
      case MicroOp::Hypercall:
        return "hypercall";
      case MicroOp::InterruptControllerTrap:
        return "irq_trap";
      case MicroOp::VirtualIpi:
        return "vipi";
      case MicroOp::VirtualIrqCompletion:
        return "virq_complete";
      case MicroOp::VmSwitch:
        return "vm_switch";
      case MicroOp::IoLatencyOut:
        return "io_out";
      case MicroOp::IoLatencyIn:
        return "io_in";
    }
    return "unknown";
}

std::string
regSlug(RegClass c)
{
    switch (c) {
      case RegClass::Gp:
        return "gp";
      case RegClass::Fp:
        return "fp";
      case RegClass::El1Sys:
        return "el1_sys";
      case RegClass::Vgic:
        return "vgic";
      case RegClass::Timer:
        return "timer";
      case RegClass::El2Config:
        return "el2_config";
      case RegClass::El2VirtMem:
        return "el2_virt_mem";
      case RegClass::Vmcs:
        return "vmcs";
    }
    return "unknown";
}

std::string
workloadSlug(const std::string &name)
{
    std::string s;
    for (char c : name)
        s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

namespace {

TestbedLease
acquire(TestbedConfig tc)
{
    SpanScope s("core.testbed", "testbed.acquire." + sutSlug(tc.kind));
    return acquireTestbed(tc);
}

TestbedConfig
config(SutKind k, std::uint64_t seed)
{
    TestbedConfig tc;
    tc.kind = k;
    tc.seed = seed;
    return tc;
}

/** Normalized overhead of one Figure 4 cell; -1 when N/A. */
double
cellOverhead(const AppBenchRow &row, SutKind k)
{
    for (const AppBenchCell &c : row.cells) {
        if (c.kind == k)
            return c.normalizedOverhead.value_or(-1.0);
    }
    return -1.0;
}

AppBenchRow
appRow(virtsim::Workload &w, const AppBenchOptions &opt,
       const std::string &span)
{
    SpanScope s("core.appbench", span);
    return runAppBenchRow(w, opt);
}

void
streamGbps(TestbedConfig tc, const std::string &cell, OpOutput &out,
           bool maerts)
{
    TestbedLease tb = acquire(tc);
    const std::string name =
        std::string(maerts ? "net.maerts." : "net.stream.") + cell;
    NetperfStreamResult r;
    {
        SpanScope s("net", name);
        r = maerts ? runNetperfMaerts(*tb) : runNetperfStream(*tb);
    }
    out.values[name + ".gbps"] = r.gbps;
    out.values[name + ".sim_ms"] = r.seconds * 1e3;
}

/** @name Paper-pass steps; each stores simulated results only. */

void
stepTable2(SutKind k, std::uint64_t seed, OpOutput &out)
{
    TestbedLease tb = acquire(config(k, seed));
    MicrobenchSuite suite(*tb);
    for (MicroOp op : allMicroOps) {
        const std::string key = sutSlug(k) + "." + opSlug(op);
        SpanScope s("hv", "hv." + key);
        out.values["t2." + key] =
            suite.run(op, microIterations).cycles.mean();
    }
}

void
stepTable3(std::uint64_t seed, OpOutput &out)
{
    TestbedLease tb = acquire(config(SutKind::KvmArm, seed));
    HypercallBreakdown b;
    {
        SpanScope s("hv", "hv.breakdown");
        b = measureHypercallBreakdown(*tb);
    }
    for (const BreakdownRow &row : b.rows) {
        out.values["t3." + regSlug(row.cls) + ".save"] =
            static_cast<double>(row.save);
        out.values["t3." + regSlug(row.cls) + ".restore"] =
            static_cast<double>(row.restore);
    }
    out.values["t3.total_save"] = static_cast<double>(b.totalSave);
    out.values["t3.total_restore"] = static_cast<double>(b.totalRestore);
    out.values["t3.hypercall"] = static_cast<double>(b.hypercallCycles);
}

void
stepTable5(std::uint64_t seed, OpOutput &out)
{
    for (SutKind k : rrSuts) {
        TestbedLease tb = acquire(config(k, seed));
        NetperfRrResult r;
        {
            SpanScope s("net", "net.rr." + sutSlug(k));
            r = runNetperfRr(*tb);
        }
        const std::string p = "t5." + sutSlug(k) + ".";
        out.values[p + "trans_s"] = r.transPerSec;
        out.values[p + "time_trans"] = r.timePerTransUs;
        out.values[p + "send_to_recv"] = r.sendToRecvUs;
        out.values[p + "recv_to_send"] = r.recvToSendUs;
        out.values[p + "recv_to_vm_recv"] = r.recvToVmRecvUs;
        out.values[p + "vm_recv_to_vm_send"] = r.vmRecvToVmSendUs;
        out.values[p + "vm_send_to_send"] = r.vmSendToSendUs;
    }
}

/** TCP_STREAM/MAERTS cells: E6 (zero copy), E8 (TSO regression) and
 *  the KVM ARM stream. */
void
stepNetIo(std::uint64_t seed, OpOutput &out)
{
    auto zc = [seed](SutKind k, bool on) {
        TestbedConfig tc = config(k, seed);
        tc.zeroCopyGrants = on;
        return tc;
    };
    auto tso = [seed](SutKind k, bool on) {
        TestbedConfig tc = config(k, seed);
        tc.tsoRegression = on;
        return tc;
    };
    streamGbps(config(SutKind::KvmArm, seed), "kvm_arm", out, false);
    streamGbps(zc(SutKind::Native, false), "native", out, false);
    streamGbps(zc(SutKind::NativeX86, false), "native_x86", out, false);
    streamGbps(zc(SutKind::XenArm, false), "xen_arm", out, false);
    streamGbps(zc(SutKind::XenArm, true), "xen_arm_zero_copy", out, false);
    streamGbps(zc(SutKind::XenX86, false), "xen_x86", out, false);
    streamGbps(zc(SutKind::XenX86, true), "xen_x86_zero_copy", out, false);
    streamGbps(tso(SutKind::Native, true), "native", out, true);
    streamGbps(tso(SutKind::XenArm, true), "xen_arm", out, true);
    streamGbps(tso(SutKind::XenArm, false), "xen_arm_tso_fixed", out, true);
    streamGbps(tso(SutKind::KvmArm, true), "kvm_arm", out, true);
}

void
stepFigure4(std::size_t row, std::uint64_t seed, OpOutput &out)
{
    AppBenchOptions opt;
    opt.seed = seed;
    const auto w = std::move(figure4Workloads().at(row));
    const std::string slug = workloadSlug(w->name());
    const AppBenchRow r = appRow(*w, opt, "app." + slug);
    for (SutKind k : opt.kinds)
        out.values["f4." + slug + "." + sutSlug(k)] = cellOverhead(r, k);
}

/** E5: virtual-interrupt distribution, one (workload, hypervisor,
 *  routing) cell. */
void
stepE5(bool memcached, SutKind k, VirqDistribution d, std::uint64_t seed,
       OpOutput &out)
{
    std::unique_ptr<virtsim::Workload> w;
    if (memcached)
        w = std::make_unique<MemcachedWorkload>();
    else
        w = std::make_unique<ApacheWorkload>();
    AppBenchOptions opt;
    opt.kinds = {k};
    opt.virqDist = d;
    opt.seed = seed;
    const std::string key =
        "e5." + workloadSlug(w->name()) + "." + sutSlug(k) +
        (d == VirqDistribution::Spread ? ".spread" : ".single");
    out.values[key] = cellOverhead(appRow(*w, opt, "app." + key), k);
}

/** x86 vAPIC ablation. */
void
stepVapic(std::uint64_t seed, OpOutput &out)
{
    auto micro = [seed](SutKind k, bool vapic) {
        TestbedConfig tc = config(k, seed);
        tc.vApic = vapic;
        TestbedLease tb = acquire(tc);
        MicrobenchSuite suite(*tb);
        SpanScope s("hv", "hv.vapic." + sutSlug(k));
        return suite.run(MicroOp::VirtualIrqCompletion, 20).cycles.mean();
    };
    auto memcached = [seed](bool vapic) {
        MemcachedWorkload mem;
        TestbedLease nat = acquire(config(SutKind::NativeX86, seed));
        double native = 0;
        {
            SpanScope s("core.appbench", "app.vapic.native_x86");
            native = mem.run(*nat);
        }
        TestbedConfig tc = config(SutKind::KvmX86, seed);
        tc.vApic = vapic;
        TestbedLease tb = acquire(tc);
        SpanScope s("core.appbench", "app.vapic.kvm_x86");
        return native / mem.run(*tb);
    };
    out.values["vapic.virq.x86_plain"] = micro(SutKind::KvmX86, false);
    out.values["vapic.virq.x86_vapic"] = micro(SutKind::KvmX86, true);
    out.values["vapic.virq.arm"] = micro(SutKind::KvmArm, false);
    out.values["vapic.memcached.plain"] = memcached(false);
    out.values["vapic.memcached.vapic"] = memcached(true);
}

/** E7: VHE projection, one I/O workload on the VHE configuration (the
 *  KVM ARM and Xen ARM overheads come from the Figure 4 steps, the
 *  microbenchmarks from Table II). */
void
stepVhe(virtsim::Workload &w, std::uint64_t seed, OpOutput &out)
{
    AppBenchOptions opt;
    opt.kinds = {SutKind::KvmArmVhe};
    opt.seed = seed;
    const std::string key = "vhe." + workloadSlug(w.name());
    out.values[key] =
        cellOverhead(appRow(w, opt, "app." + key), SutKind::KvmArmVhe);
}

double
at(const OpOutput &out, const std::string &key)
{
    const auto it = out.values.find(key);
    return it == out.values.end() ? std::nan("") : it->second;
}

void
expect(OpOutput &out, bool ok, const char *name)
{
    if (!ok)
        out.failures.emplace_back(name);
}

/** The qualitative findings the bench binaries exit on. */
void
checkPaper(OpOutput &out)
{
    auto v = [&out](const std::string &k) { return at(out, k); };

    // Table II (bench_table2_microbenchmarks).
    expect(out, v("t2.xen_arm.hypercall") * 3 < v("t2.kvm_x86.hypercall"),
           "t2.xen_arm_fast_hypercall");
    expect(out,
           v("t2.kvm_arm.hypercall") > 10 * v("t2.xen_arm.hypercall"),
           "t2.kvm_arm_slow_hypercall");
    expect(out,
           v("t2.kvm_arm.virq_complete") * 10 <
               v("t2.kvm_x86.virq_complete"),
           "t2.arm_virq_completion_fast");
    expect(out, v("t2.xen_arm.io_out") > 2 * v("t2.kvm_arm.io_out"),
           "t2.xen_io_out_slow");

    // Table III (bench_table3_hypercall_breakdown).
    const double save = v("t3.total_save");
    const double restore = v("t3.total_restore");
    const double unattributed = v("t3.hypercall") - save - restore;
    double maxOther = 0;
    for (const char *c : {"gp", "fp", "el1_sys", "timer", "el2_config",
                          "el2_virt_mem"})
        maxOther = std::max(maxOther, v(std::string("t3.") + c + ".save"));
    expect(out, save + restore > 4 * unattributed, "t3.state_dominates");
    expect(out, v("t3.vgic.save") > 3 * maxOther, "t3.vgic_dominates");
    expect(out, save > 2 * restore, "t3.save_gt_restore");

    // Table V (bench_table5_netperf_rr).
    auto t5 = [&v](const char *sut, const char *f) {
        return v(std::string("t5.") + sut + "." + f);
    };
    expect(out,
           t5("kvm_arm", "time_trans") > 1.6 * t5("native", "time_trans") &&
               t5("xen_arm", "time_trans") >
                   1.8 * t5("native", "time_trans"),
           "t5.both_high_overhead");
    expect(out, t5("xen_arm", "time_trans") > t5("kvm_arm", "time_trans"),
           "t5.xen_worse");
    expect(out,
           t5("kvm_arm", "send_to_recv") <
               1.08 * t5("native", "send_to_recv"),
           "t5.kvm_send_recv_native");
    expect(out,
           t5("xen_arm", "send_to_recv") >
               1.08 * t5("native", "send_to_recv"),
           "t5.xen_send_recv_slower");
    expect(out,
           t5("xen_arm", "vm_recv_to_vm_send") <
                   1.25 * t5("kvm_arm", "vm_recv_to_vm_send") &&
               t5("kvm_arm", "vm_recv_to_vm_send") <
                   1.4 * t5("native", "recv_to_send"),
           "t5.vm_internal_similar");
    expect(out,
           t5("xen_arm", "recv_to_vm_recv") +
                   t5("xen_arm", "vm_send_to_send") >
               t5("kvm_arm", "recv_to_vm_recv") +
                   t5("kvm_arm", "vm_send_to_send") + 5.0,
           "t5.xen_delivery_slower");

    // Figure 4 (bench_figure4_applications).
    auto f4 = [&v](const char *w, const char *sut) {
        return v(std::string("f4.") + w + "." + sut);
    };
    expect(out,
           f4("kernbench", "kvm_arm") < 1.10 &&
               f4("kernbench", "xen_arm") < 1.10 &&
               f4("specjvm2008", "kvm_arm") < 1.10 &&
               f4("specjvm2008", "xen_arm") < 1.10,
           "f4.cpu_small");
    expect(out,
           f4("hackbench", "xen_arm") < f4("hackbench", "kvm_arm") &&
               f4("hackbench", "kvm_arm") - f4("hackbench", "xen_arm") <
                   0.12,
           "f4.xen_wins_hackbench");
    expect(out,
           f4("tcp_rr", "kvm_arm") < f4("tcp_rr", "xen_arm") &&
               f4("tcp_stream", "kvm_arm") < f4("tcp_stream", "xen_arm") &&
               f4("tcp_maerts", "kvm_arm") < f4("tcp_maerts", "xen_arm"),
           "f4.kvm_beats_xen_netperf");
    expect(out, f4("tcp_stream", "xen_arm") > 2.5, "f4.xen_stream_250");
    expect(out,
           f4("tcp_stream", "kvm_arm") < 1.15 &&
               f4("tcp_stream", "kvm_x86") < 1.15,
           "f4.kvm_stream_native");
    expect(out,
           f4("apache", "kvm_arm") < f4("apache", "xen_arm") &&
               f4("memcached", "kvm_arm") < f4("memcached", "xen_arm"),
           "f4.kvm_beats_xen_apps");
    expect(out, f4("apache", "xen_x86") < 0, "f4.xen_x86_apache_na");

    // E5 (bench_ablation_virq_distribution).
    bool allImprove = true;
    double reduction = 0;
    for (const char *w : {"apache", "memcached"}) {
        for (const char *k : {"kvm_arm", "xen_arm"}) {
            const std::string p = std::string("e5.") + w + "." + k;
            const double single = v(p + ".single");
            const double spread = v(p + ".spread");
            if (!(spread < single))
                allImprove = false;
            reduction += (single - spread) / (single - 1.0 + 1e-9);
        }
    }
    expect(out, allImprove && reduction / 4.0 > 0.25, "e5.sharp");

    // E6 (bench_ablation_zero_copy).
    expect(out,
           v("net.stream.xen_x86_zero_copy.gbps") <=
               v("net.stream.xen_x86.gbps") * 1.02,
           "e6.x86_zero_copy_loses");
    expect(out,
           v("net.stream.xen_arm_zero_copy.gbps") >=
               v("net.stream.xen_arm.gbps") * 0.95,
           "e6.arm_zero_copy_competitive");

    // E8 (bench_ablation_maerts_regression).
    const double native = v("net.maerts.native.gbps");
    expect(out, native / v("net.maerts.xen_arm.gbps") > 1.7,
           "e8.xen_bad_with_regression");
    expect(out,
           v("net.maerts.xen_arm_tso_fixed.gbps") >
               1.5 * v("net.maerts.xen_arm.gbps"),
           "e8.tuning_recovers");
    expect(out, native / v("net.maerts.kvm_arm.gbps") < 1.15,
           "e8.kvm_unaffected");

    // vAPIC (bench_ablation_vapic).
    expect(out, v("vapic.virq.x86_vapic") < 3 * v("vapic.virq.arm"),
           "vapic.comparable_to_arm");
    expect(out, v("vapic.virq.x86_plain") > 10 * v("vapic.virq.x86_vapic"),
           "vapic.removes_traps");
    expect(out,
           v("vapic.memcached.vapic") <= v("vapic.memcached.plain") + 1e-9,
           "vapic.helps_apps");

    // E7 (bench_vhe_projection).
    expect(out,
           v("t2.kvm_arm.hypercall") / v("t2.kvm_arm_vhe.hypercall") > 8.0,
           "vhe.hypercall_order_of_magnitude");
    expect(out,
           v("t2.kvm_arm_vhe.hypercall") < 2.0 * v("t2.xen_arm.hypercall"),
           "vhe.near_type1");
    expect(out, v("t2.kvm_arm.io_out") / v("t2.kvm_arm_vhe.io_out") > 2.5,
           "vhe.io_out_improves");
    bool improve = true;
    bool beatsXen = true;
    for (const char *w : {"apache", "memcached", "tcp_rr"}) {
        const double kvm = f4(w, "kvm_arm");
        const double vhe = v(std::string("vhe.") + w);
        if ((kvm - vhe) / kvm < 0.02)
            improve = false;
        if (vhe > f4(w, "xen_arm"))
            beatsXen = false;
    }
    expect(out, improve, "vhe.workloads_improve");
    expect(out, beatsXen, "vhe.beats_xen");
}

/** Store a fleet run's modelled results under prefix + "fleet.*" and
 *  its host-side counters under "host." + prefix. */
void
storeFleet(const FleetResult &r, OpOutput &out,
           const std::string &prefix = "")
{
    const Frequency freq = MachineConfig::hpMoonshotM400().costs.freq;
    const std::string p = prefix + "fleet.";
    out.values[p + "transactions"] = static_cast<double>(r.transactions);
    out.values[p + "rtt_mean_us"] =
        r.transactions == 0 ? 0.0
                            : freq.us(r.totalRttCycles) /
                                  static_cast<double>(r.transactions);
    out.values[p + "final_us"] = freq.us(r.finalTime);
    // Exact in a double: two 32-bit halves.
    out.values[p + "checksum_hi"] = static_cast<double>(r.checksum >> 32);
    out.values[p + "checksum_lo"] =
        static_cast<double>(r.checksum & 0xffffffffu);
    out.values[p + "slo_breaches"] = static_cast<double>(r.sloBreaches);
    out.values[p + "anomalies"] = static_cast<double>(r.anomalies);
    const std::string h = "host." + prefix;
    out.values[h + "rounds"] = static_cast<double>(r.rounds);
    out.values[h + "parallel_rounds"] = static_cast<double>(r.parallelRounds);
    out.values[h + "lane_dispatches"] = static_cast<double>(r.laneDispatches);
}

FleetResult
runFleet(const FleetConfig &cfg, int lanes)
{
    SpanScope s("core.fleet", "fleet.run.lanes" + std::to_string(lanes));
    return runNetperfRrFleet(cfg, lanes);
}

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream is(p);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

} // namespace

/** Count the incident files in dir, and those that name the breached
 *  SLO rule with a nonempty critical path. */
std::pair<double, double>
scanIncidents(const std::string &dir)
{
    SpanScope s("obs", "obs.incident_scan");
    double files = 0;
    double named = 0;
    std::error_code ec;
    for (const auto &de : std::filesystem::directory_iterator(dir, ec)) {
        const std::string body = slurp(de.path());
        ++files;
        if (body.find("\"schema\":\"virtsim-incident-1\"") !=
                std::string::npos &&
            body.find("slo.rtt_p99") != std::string::npos &&
            body.find("\"steps\":[]") == std::string::npos)
            ++named;
    }
    return {files, named};
}

/**
 * One paper pass, split at every experiment call so each step is timed
 * between its own pair of reference-kernel runs: a long step spans more
 * host drift than its brackets see.
 */
std::vector<Step>
paperPassSteps(std::uint64_t seed)
{
    std::vector<Step> steps;
    for (SutKind k : paperMicroSuts)
        steps.push_back({"table2." + sutSlug(k), [k, seed](OpOutput &o) {
                             stepTable2(k, seed, o);
                         }});
    steps.push_back({"table3", [seed](OpOutput &o) { stepTable3(seed, o); }});
    steps.push_back({"table5", [seed](OpOutput &o) { stepTable5(seed, o); }});
    steps.push_back({"net_io", [seed](OpOutput &o) { stepNetIo(seed, o); }});
    const auto rows = figure4Workloads();
    for (std::size_t i = 0; i < rows.size(); ++i)
        steps.push_back({"figure4." + workloadSlug(rows[i]->name()),
                         [i, seed](OpOutput &o) { stepFigure4(i, seed, o); }});
    for (const bool memcached : {false, true}) {
        for (SutKind k : {SutKind::KvmArm, SutKind::XenArm}) {
            for (VirqDistribution d : {VirqDistribution::SingleVcpu,
                                       VirqDistribution::Spread}) {
                steps.push_back({"e5", [=](OpOutput &o) {
                                     stepE5(memcached, k, d, seed, o);
                                 }});
            }
        }
    }
    steps.push_back({"vapic", [seed](OpOutput &o) { stepVapic(seed, o); }});
    steps.push_back({"vhe.apache", [seed](OpOutput &o) {
                         ApacheWorkload w;
                         stepVhe(w, seed, o);
                     }});
    steps.push_back({"vhe.memcached", [seed](OpOutput &o) {
                         MemcachedWorkload w;
                         stepVhe(w, seed, o);
                     }});
    steps.push_back({"vhe.tcp_rr", [seed](OpOutput &o) {
                         TcpRrWorkload w;
                         stepVhe(w, seed, o);
                     }});
    return steps;
}

BenchWorkload
paperTablesWorkload(std::uint64_t seed)
{
    BenchWorkload w;
    w.name = "paper_tables";
    w.steps = paperPassSteps(seed);
    w.check = checkPaper;
    w.corruptKey = "t2.xen_arm.hypercall";
    w.rttKey = "t5.kvm_arm.time_trans";
    return w;
}

FleetConfig
closedFleetConfig(std::uint64_t seed, int vms)
{
    FleetConfig c;
    c.nVms = vms;
    c.transactionsPerConn = fleetTransactionsPerConn;
    c.arrivalSeed = seed;
    return c;
}

FleetConfig
lanesFleetConfig(std::uint64_t seed)
{
    FleetConfig c = closedFleetConfig(seed, lanesVms);
    c.transactionsPerConn = lanesTransactionsPerConn;
    return c;
}

FleetConfig
observedFleetConfig(std::uint64_t seed)
{
    // The bench_fleet_latency overload world: open-loop MMPP arrivals
    // at about 2x the service capacity between bursts, 4x bursts.
    FleetConfig c;
    c.nVms = observedVms;
    c.transactionsPerConn = observedTransactionsPerConn;
    c.openLoop = true;
    c.meanInterarrivalUs = 60.0;
    c.burstRateFactor = 4.0;
    c.latency = true;
    c.arrivalSeed = seed;
    return c;
}

BenchWorkload
fleetClosedWorkload(std::uint64_t seed)
{
    const FleetConfig cfg = closedFleetConfig(seed, closedVms);
    BenchWorkload w;
    w.name = "fleet_closed";
    w.steps = {{"fleet", [cfg](OpOutput &o) {
                    storeFleet(runFleet(cfg, 1), o);
                }}};
    const double expected = static_cast<double>(cfg.nVms) *
                            cfg.connsPerCpu * cfg.transactionsPerConn;
    w.check = [expected](OpOutput &o) {
        expect(o, at(o, "fleet.transactions") == expected,
               "fleet.all_transactions_done");
    };
    w.corruptKey = "fleet.transactions";
    w.rttKey = "fleet.rtt_mean_us";
    return w;
}


BenchWorkload
fleetObservedWorkload(std::uint64_t seed, const std::string &incidentDir)
{
    BenchWorkload w;
    w.name = "fleet_observed";
    for (int run = 0; run < observedRuns; ++run) {
        const FleetConfig cfg =
            observedFleetConfig(seed * observedRuns + run);
        const std::string prefix = "run" + std::to_string(run) + ".";
        w.steps.push_back({"fleet." + prefix, [=](OpOutput &o) {
            std::filesystem::remove_all(incidentDir);
            setenv("VIRTSIM_INCIDENTS", incidentDir.c_str(), 1);
            const FleetResult r = runFleet(cfg, 1);
            unsetenv("VIRTSIM_INCIDENTS");
            storeFleet(r, o, prefix);
            const auto [files, named] = scanIncidents(incidentDir);
            o.values[prefix + "obs.incident_files"] = files;
            o.values[prefix + "obs.incidents_naming_rtt_p99"] = named;
        }});
    }
    w.check = [](OpOutput &o) {
        double rtt = 0;
        for (int run = 0; run < observedRuns; ++run) {
            const std::string p = "run" + std::to_string(run) + ".";
            expect(o, at(o, p + "fleet.slo_breaches") > 0,
                   "observed.slo_breached");
            expect(o, at(o, p + "fleet.anomalies") > 0,
                   "observed.anomaly_opened");
            expect(o, at(o, p + "obs.incidents_naming_rtt_p99") > 0,
                   "observed.incident_names_slo_rtt_p99");
            rtt += at(o, p + "fleet.rtt_mean_us");
        }
        o.values["fleet.rtt_mean_us"] = rtt / observedRuns;
    };
    w.corruptKey = "run0.fleet.slo_breaches";
    w.rttKey = "fleet.rtt_mean_us";
    return w;
}

BenchWorkload
fleetLanesWorkload(std::uint64_t seed)
{
    const FleetConfig cfg = lanesFleetConfig(seed);
    // The 1-lane run every 2-lane op must reproduce exactly.
    OpOutput serial;
    storeFleet(runFleet(cfg, 1), serial);
    BenchWorkload w;
    w.name = "fleet_lanes";
    w.steps = {{"fleet", [cfg](OpOutput &o) {
                    storeFleet(runFleet(cfg, 2), o);
                }}};
    w.check = [serial](OpOutput &o) {
        bool same = true;
        for (const auto &[k, v] : serial.values) {
            if (k.rfind("host.", 0) != 0 && at(o, k) != v)
                same = false;
        }
        expect(o, same, "lanes.matches_serial");
    };
    w.corruptKey = "fleet.checksum_lo";
    w.rttKey = "fleet.rtt_mean_us";
    return w;
}

} // namespace perfbench
