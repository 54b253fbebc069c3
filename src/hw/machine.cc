#include "hw/machine.hh"

#include "sim/log.hh"

namespace virtsim {

MachineConfig
MachineConfig::hpMoonshotM400()
{
    MachineConfig c;
    c.name = "hp-moonshot-m400";
    c.costs = CostModel::armAtlas();
    c.nCpus = 8;
    c.ramGib = 64;
    // Adaptive interrupt moderation: immediate at request-response
    // rates, coalescing under streaming load (~30 us window).
    c.nicParams.coalesceWindow = 72000;
    return c;
}

MachineConfig
MachineConfig::dellR320()
{
    MachineConfig c;
    c.name = "dell-r320";
    c.costs = CostModel::x86Xeon();
    c.nCpus = 8; // hyperthreading disabled: 8 physical cores
    c.ramGib = 16;
    c.nicParams.coalesceWindow = 63000; // ~30 us at 2.1 GHz
    return c;
}

Machine::Machine(EventQueue &eq, MachineConfig config)
    : cfg(std::move(config)), eq(eq),
      _mmu(cfg.costs, _counters, cfg.nCpus, &_probe),
      _memory(cfg.costs, _counters)
{
    VIRTSIM_ASSERT(cfg.nCpus > 0, "machine needs at least one cpu");
    for (int i = 0; i < cfg.nCpus; ++i)
        cpus.push_back(std::make_unique<PhysicalCpu>(i, eq, cfg.costs));

    if (cfg.costs.arch == Arch::Arm) {
        chip = std::make_unique<Gic>(eq, cfg.costs, _counters, cfg.nCpus,
                                     &_probe);
    } else {
        chip = std::make_unique<Apic>(eq, cfg.costs, _counters, cfg.nCpus,
                                      &_probe);
    }

    _timers = std::make_unique<TimerBank>(eq, *chip, cfg.nCpus);
    _nic = std::make_unique<Nic>(eq, *chip, _counters, cfg.costs.freq,
                                 cfg.nicParams);

    registerTimelineGauges();
}

void
Machine::registerTimelineGauges()
{
    TimelineSampler &tl = _probe.timeline;
    const bool arm = cfg.costs.arch == Arch::Arm;
    for (int i = 0; i < cfg.nCpus; ++i) {
        PhysicalCpu *c = cpus[static_cast<std::size_t>(i)].get();
        const std::string prefix = "cpu" + std::to_string(i);
        const auto track = static_cast<std::uint16_t>(i);
        // Exception level (ARM: EL0/EL1/EL2) or root/non-root mode
        // (x86) as the CpuMode ordinal — the paper's Table I state.
        tl.addGauge(prefix + (arm ? ".el" : ".mode"),
                    [c] {
                        return static_cast<std::int64_t>(c->mode());
                    },
                    track);
        tl.addRateGauge(prefix + ".busy.rate",
                        [c] {
                            return static_cast<std::int64_t>(
                                c->busyCycles());
                        },
                        track);
        if (arm) {
            Gic *g = static_cast<Gic *>(chip.get());
            tl.addGauge(prefix + ".gic.lr_used",
                        [g, i] {
                            std::int64_t used = 0;
                            for (const ListReg &lr : g->listRegs(i)) {
                                if (!lr.empty())
                                    ++used;
                            }
                            return used;
                        },
                        track);
        }
    }
    tl.addGauge("event_queue.depth", [this] {
        return static_cast<std::int64_t>(eq.pending());
    });
    tl.addGauge("nic.rx_queue", [this] {
        return static_cast<std::int64_t>(_nic->rxQueueDepth());
    });
    const TapId rxDropped = internTap("nic.rx_dropped");
    const TapId stage2Fault = internTap("mmu.stage2_fault");
    tl.addRateGauge("nic.rx_drop.rate", [this, rxDropped] {
        return static_cast<std::int64_t>(_counters.value(rxDropped));
    });
    tl.addRateGauge("mmu.stage2_fault.rate", [this, stage2Fault] {
        return static_cast<std::int64_t>(_counters.value(stage2Fault));
    });
}

PhysicalCpu &
Machine::cpu(PcpuId id)
{
    VIRTSIM_ASSERT(id >= 0 && id < numCpus(), "bad pcpu id ", id);
    return *cpus[static_cast<std::size_t>(id)];
}

Gic &
Machine::gic()
{
    VIRTSIM_ASSERT(arch() == Arch::Arm, "gic() on non-ARM machine");
    return static_cast<Gic &>(*chip);
}

Apic &
Machine::apic()
{
    VIRTSIM_ASSERT(arch() == Arch::X86, "apic() on non-x86 machine");
    return static_cast<Apic &>(*chip);
}

} // namespace virtsim
