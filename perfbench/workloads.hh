/**
 * @file
 * Workload shapes shared by the timed workloads and the traced run's
 * layer probes.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.hh"
#include "core/microbench.hh"
#include "core/testbed.hh"
#include "perfbench.hh"

namespace perfbench {

/** Table II columns plus the VHE projection's configuration. */
inline constexpr std::array<virtsim::SutKind, 5> paperMicroSuts = {
    virtsim::SutKind::KvmArm, virtsim::SutKind::XenArm,
    virtsim::SutKind::KvmX86, virtsim::SutKind::XenX86,
    virtsim::SutKind::KvmArmVhe};

/** TCP_RR configurations: Table V's three plus the x86 pair. */
inline constexpr std::array<virtsim::SutKind, 5> rrSuts = {
    virtsim::SutKind::Native, virtsim::SutKind::KvmArm,
    virtsim::SutKind::XenArm, virtsim::SutKind::KvmX86,
    virtsim::SutKind::XenX86};

/** Every configuration a testbed can be built in. */
inline constexpr std::array<virtsim::SutKind, 7> allSuts = {
    virtsim::SutKind::Native,    virtsim::SutKind::NativeX86,
    virtsim::SutKind::KvmArm,    virtsim::SutKind::XenArm,
    virtsim::SutKind::KvmX86,    virtsim::SutKind::XenX86,
    virtsim::SutKind::KvmArmVhe};

/** Iterations per Table II cell, as bench_table2 runs them. */
inline constexpr int microIterations = 50;

/** fleet_closed: 64 VMs on one lane. */
inline constexpr int closedVms = 64;
/** fleet_lanes: 16 VMs on two lanes; at 64 VMs two lanes stayed too
 *  noisy to gate. */
inline constexpr int lanesVms = 16;
/** Transactions per connection of the closed fleets, sized so one
 *  fleet_closed op takes about 120 ms and a fleet_lanes op about
 *  250 ms of host time. */
inline constexpr int fleetTransactionsPerConn = 60;
inline constexpr int lanesTransactionsPerConn = 400;
/** fleet_observed: the bench_fleet_latency overload shape at 16 VMs.
 *  Its mean RTT depends on one fleet-wide burst chain, so one run's RTT
 *  spreads about 14% across arrival seeds; an op runs four seeds. */
inline constexpr int observedVms = 16;
inline constexpr int observedRuns = 4;
inline constexpr int observedTransactionsPerConn = 150;

std::string sutSlug(virtsim::SutKind k);
std::string opSlug(virtsim::MicroOp op);
std::string workloadSlug(const std::string &name);

std::vector<Step> paperPassSteps(std::uint64_t seed);

/** Count the incident files in dir, and those that name the breached
 *  SLO rule with a nonempty critical path. */
std::pair<double, double> scanIncidents(const std::string &dir);
virtsim::FleetConfig closedFleetConfig(std::uint64_t seed, int vms);
virtsim::FleetConfig lanesFleetConfig(std::uint64_t seed);
virtsim::FleetConfig observedFleetConfig(std::uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
