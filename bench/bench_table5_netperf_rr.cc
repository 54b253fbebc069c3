/**
 * @file
 * Regenerates Table V: "Netperf TCP RR Analysis on ARM" — the
 * tcpdump-style decomposition of a 1-byte request/response
 * transaction into wire/client, hypervisor-delivery and VM-internal
 * legs, for native, KVM and Xen on the ARM testbed.
 *
 * Each virtualized run also feeds the causal analyzer: the op.tcp_rr
 * envelope roots every transaction's world switches and backend work,
 * and the Xen-vs-KVM differential ranks where Xen's extra
 * per-transaction latency comes from.
 */

#include <iostream>
#include <vector>

#include "core/netperf.hh"
#include "core/report.hh"
#include "sim/attrib.hh"
#include "sim/timeline.hh"

using namespace virtsim;

namespace {

struct PaperColumn
{
    double trans_s;
    double time_trans;
    double send_to_recv;
    double recv_to_send;
    double recv_to_vm_recv;
    double vm_recv_to_vm_send;
    double vm_send_to_send;
};

const PaperColumn paperNative = {23911, 41.8, 29.7, 14.5, 0, 0, 0};
const PaperColumn paperKvm = {11591, 86.3, 29.8, 53.0, 21.1, 16.9,
                              15.0};
const PaperColumn paperXen = {10253, 97.5, 33.9, 64.6, 25.9, 17.4,
                              21.4};

} // namespace

int
main()
{
    std::cout << "Table V: Netperf TCP RR Analysis on ARM\n"
              << "Simulated reproduction of Dall et al., ISCA 2016.\n\n";

    const std::vector<std::pair<SutKind, const PaperColumn *>> cols = {
        {SutKind::Native, &paperNative},
        {SutKind::KvmArm, &paperKvm},
        {SutKind::XenArm, &paperXen},
    };

    std::vector<NetperfRrResult> results;
    std::vector<std::string> briefs;
    std::vector<BlameReport> blames;
    std::vector<std::string> timelines;
    std::uint64_t anomalies = 0;
    std::uint64_t sloBreaches = 0;
    for (const auto &[kind, paper] : cols) {
        (void)paper;
        TestbedConfig tc;
        tc.kind = kind;
        Testbed tb(tc);
        CausalAnalyzer &an = tb.attribution();
        an.setLabel(to_string(kind));
        results.push_back(runNetperfRr(tb));
        briefs.push_back(tb.metrics().snapshot().brief());
        blames.push_back(an.report(&tb.trace()));
        // When VIRTSIM_TIMELINE / VIRTSIM_TRACE armed the sampler,
        // gate on the watchdog: a paper-config run must be
        // anomaly-free or the table's numbers are suspect.
        const TimelineSampler &tl = tb.timeline();
        if (tl.enabled()) {
            anomalies += tl.anomalyCount();
            timelines.push_back(
                to_string(kind) + "\n" +
                renderTimelineSummary(
                    tl, tb.freq(),
                    {"cpu0.el", "cpu0.gic.lr_used", "nic.rx_queue",
                     "virtio.rx.avail", "vhost.rx_backlog",
                     "xenring.rx.requests", "event_queue.depth"}));
        }
        // When VIRTSIM_LATENCY armed request tracking, gate on the
        // SLO engine too: every paper configuration must meet the
        // testbed's 500 us p99 round-trip objective.
        if (tb.latency().enabled())
            sloBreaches += tb.sloBreaches();
    }

    TextTable table({"", "Native", "KVM", "Xen"});
    auto row3 = [&](const std::string &label, auto get, int digits) {
        table.addRow({label, formatFixed(get(results[0]), digits),
                      formatFixed(get(results[1]), digits),
                      formatFixed(get(results[2]), digits)});
    };
    row3("Trans/s",
         [](const NetperfRrResult &r) { return r.transPerSec; }, 0);
    row3("Time/trans (us)",
         [](const NetperfRrResult &r) { return r.timePerTransUs; }, 1);
    table.addRow(
        {"Overhead (us)", "-",
         formatFixed(results[1].timePerTransUs -
                         results[0].timePerTransUs, 1),
         formatFixed(results[2].timePerTransUs -
                         results[0].timePerTransUs, 1)});
    row3("send to recv (us)",
         [](const NetperfRrResult &r) { return r.sendToRecvUs; }, 1);
    row3("recv to send (us)",
         [](const NetperfRrResult &r) { return r.recvToSendUs; }, 1);
    row3("recv to VM recv (us)",
         [](const NetperfRrResult &r) { return r.recvToVmRecvUs; }, 1);
    row3("VM recv to VM send (us)",
         [](const NetperfRrResult &r) { return r.vmRecvToVmSendUs; },
         1);
    row3("VM send to send (us)",
         [](const NetperfRrResult &r) { return r.vmSendToSendUs; }, 1);
    std::cout << table.render() << "\n";

    std::cout << "Paper reference:\n";
    TextTable ref({"", "Native", "KVM", "Xen"});
    ref.addRow({"Trans/s", "23,911", "11,591", "10,253"});
    ref.addRow({"Time/trans (us)", "41.8", "86.3", "97.5"});
    ref.addRow({"send to recv (us)", "29.7", "29.8", "33.9"});
    ref.addRow({"recv to send (us)", "14.5", "53.0", "64.6"});
    ref.addRow({"recv to VM recv (us)", "-", "21.1", "25.9"});
    ref.addRow({"VM recv to VM send (us)", "-", "16.9", "17.4"});
    ref.addRow({"VM send to send (us)", "-", "15.0", "21.4"});
    std::cout << ref.render() << "\n";

    std::cout << "Metrics snapshot (per configuration):\n";
    for (std::size_t i = 0; i < cols.size(); ++i) {
        std::cout << "  " << to_string(cols[i].first) << ": "
                  << briefs[i];
    }
    std::cout << "\n";

    std::cout << "Causal attribution (per configuration):\n";
    for (std::size_t i = 0; i < cols.size(); ++i) {
        const BlameReport &b = blames[i];
        std::cout << "  " << to_string(cols[i].first) << ": "
                  << b.operations << " transactions, "
                  << b.edgesLinked << " causal edges, "
                  << b.attributed() << " cy attributed\n";
    }
    std::cout << "\n";

    // Where Xen's extra per-transaction latency goes, ranked.
    const DiffReport diff = diffBlame(blames[2], blames[1]);
    std::cout << diff.render() << "\n";

    if (!timelines.empty()) {
        std::cout << "Timeline summary (per configuration):\n";
        for (const std::string &t : timelines)
            std::cout << t << "\n";
    }
    if (anomalies > 0) {
        std::cout << "WATCHDOG: " << anomalies
                  << " anomalies recorded across configurations\n";
    }
    if (sloBreaches > 0) {
        std::cout << "SLO: " << sloBreaches
                  << " objectives breached across configurations\n";
    }

    // The paper's qualitative conclusions from this table.
    const auto &nat = results[0];
    const auto &kvm = results[1];
    const auto &xen = results[2];
    const bool both_high_overhead =
        kvm.timePerTransUs > 1.6 * nat.timePerTransUs &&
        xen.timePerTransUs > 1.8 * nat.timePerTransUs;
    const bool xen_worse = xen.timePerTransUs > kvm.timePerTransUs;
    const bool kvm_send_recv_native =
        kvm.sendToRecvUs < 1.08 * nat.sendToRecvUs;
    const bool xen_send_recv_slower =
        xen.sendToRecvUs > 1.08 * nat.sendToRecvUs;
    const bool vm_internal_similar =
        xen.vmRecvToVmSendUs < 1.25 * kvm.vmRecvToVmSendUs &&
        kvm.vmRecvToVmSendUs < 1.4 * nat.recvToSendUs;
    const bool xen_delivery_slower =
        xen.recvToVmRecvUs + xen.vmSendToSendUs >
        kvm.recvToVmRecvUs + kvm.vmSendToSendUs + 5.0;

    std::cout << "Key findings reproduced:\n"
              << "  Both hypervisors add large per-transaction "
                 "overhead: "
              << (both_high_overhead ? "yes" : "NO") << "\n"
              << "  Xen noticeably worse than KVM: "
              << (xen_worse ? "yes" : "NO") << "\n"
              << "  KVM send-to-recv equals native (no interference): "
              << (kvm_send_recv_native ? "yes" : "NO") << "\n"
              << "  Xen send-to-recv slower (idle->Dom0 before "
                 "stamp): "
              << (xen_send_recv_slower ? "yes" : "NO") << "\n"
              << "  VM-internal time similar across hypervisors: "
              << (vm_internal_similar ? "yes" : "NO") << "\n"
              << "  Xen loses on the delivery legs (grant copies + "
                 "domain switches): "
              << (xen_delivery_slower ? "yes" : "NO") << "\n";

    return (both_high_overhead && xen_worse && kvm_send_recv_native &&
            xen_send_recv_slower && vm_internal_similar &&
            xen_delivery_slower && anomalies == 0 &&
            sloBreaches == 0)
               ? 0
               : 1;
}
