#include "hv/hypervisor.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

struct HvTaps
{
    TapId vmsCreated = internTap("hv.vms_created");
    TapId started = internTap("hv.started");
};

const HvTaps &
hvTaps()
{
    static const HvTaps taps;
    return taps;
}

} // namespace

std::string
to_string(HvType t)
{
    return t == HvType::Type1 ? "Type 1" : "Type 2";
}

Hypervisor::Hypervisor(Machine &m, const std::string &family, bool e2h)
    : mach(m), wse(m.costs()), pol(ArchPolicy::create(m, wse, family, e2h))
{
    wse.attachTrace(&m.trace());
    hvTaps(); // intern before a sharded run freezes the counters
}

MetricsDomain &
Hypervisor::vmMetrics(const Vm &vm)
{
    const auto i = static_cast<std::size_t>(vm.id());
    if (i >= vmDomains.size())
        vmDomains.resize(i + 1, nullptr);
    if (vmDomains[i] == nullptr)
        vmDomains[i] = &mach.metrics().vm(vm.name());
    return *vmDomains[i];
}

Vm &
Hypervisor::createVm(const std::string &name, int n_vcpus,
                     const std::vector<PcpuId> &pinning)
{
    for (PcpuId p : pinning) {
        VIRTSIM_ASSERT(p >= 0 && p < mach.numCpus(),
                       "vm ", name, " pinned to bad pcpu ", p);
    }
    _vms.push_back(std::make_unique<Vm>(nextVmId++, name, VmKind::Guest,
                                        n_vcpus, pinning));
    Vm &vm = *_vms.back();
    dists[vm.id()] = std::make_unique<VgicDistributor>(vm);
    // Populate Stage-2 tables with an identity-offset mapping for the
    // VM's RAM (12 GiB per the paper's Section III configuration,
    // 4 KiB granules). Benchmarks touch only a window of it; the map
    // is kept sparse and filled on demand by fault handling instead.
    counters().counter(hvTaps().vmsCreated).inc();
    return vm;
}

void
Hypervisor::start()
{
    counters().counter(hvTaps().started).inc();

    // Per-VM timeline gauges. Guest VMs only (_vms excludes Xen's
    // Dom0/idle domains), in creation order so exports are
    // deterministic. Captures are stable: VM/VCPU storage never
    // moves, metrics domains are held by pointer, and the sampler is
    // cleared before any of them is torn down (Machine::reset()).
    TimelineSampler &tl = mach.probe().timeline;
    const TapId ws = worldSwitchTap();
    for (const auto &vmPtr : _vms) {
        Vm &vm = *vmPtr;
        MetricsDomain *dom = &vmMetrics(vm);
        // value(), not counter(): a registering read would add a
        // zero-valued world_switch row to every snapshot.
        tl.addRateGauge(vm.name() + ".world_switch.rate",
                        [dom, ws] {
                            return static_cast<std::int64_t>(
                                dom->value(ws));
                        });
        for (VcpuId i = 0; i < vm.numVcpus(); ++i) {
            const Vcpu *vc = &vm.vcpu(i);
            tl.addGauge(vm.name() + ".vcpu" + std::to_string(i) +
                            ".state",
                        [vc] {
                            return static_cast<std::int64_t>(
                                vc->state());
                        },
                        static_cast<std::uint16_t>(vc->pcpu()));
        }
    }
}

Cycles
Hypervisor::chargeGuest(Cycles t, Vcpu &v, Cycles work)
{
    return mach.cpu(v.pcpu()).charge(t, work);
}

VgicDistributor &
Hypervisor::dist(Vm &vm)
{
    auto it = dists.find(vm.id());
    VIRTSIM_ASSERT(it != dists.end(), "no vgic for vm ", vm.name());
    return *it->second;
}

void
Hypervisor::countWorldSwitch(const Vcpu &v)
{
    vmMetrics(v.vm()).counter(worldSwitchTap()).inc();
    cpuMetrics(v.pcpu()).counter(worldSwitchTap()).inc();
}

VcpuId
Hypervisor::pickVirqTarget(Vm &vm)
{
    if (virqDist == VirqDistribution::SingleVcpu)
        return 0;
    const VcpuId target = nextVirqRr % vm.numVcpus();
    nextVirqRr = (nextVirqRr + 1) % vm.numVcpus();
    return target;
}

} // namespace virtsim
