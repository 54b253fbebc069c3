#include "hv/arch_policy.hh"

#include "sim/log.hh"

namespace virtsim {

namespace {

// The software constants of each family on each ISA.

constexpr XenParams xenArm{
    .hypercallDispatch = 16,
    .hypercallHandler = 0,
    .irqchipEmulation = 980,
    .ipiEmulation = 3280,
    .eoiEmulation = 0,
    .xenIrqDispatch = 150,
    .vgicInject = 300,
    .schedWork = 3067,
    .domainWakeFromIdle = 13100,
    .guestIrqDispatch = 100,
    .backendDequeue = 510,
    .guestDriverRxPop = 1400,
    .evtchnUpcall = 5280, // ~2.2 us
    .grantSetup = 450,
    .countsResume = false,
    .countsDomainSwitch = true,
};

constexpr XenParams xenX86{
    .hypercallDispatch = 28,
    .hypercallHandler = 60,
    .irqchipEmulation = 566,
    // APIC emulation, then the kick path: event checks, softirqs.
    .ipiEmulation = 566 + 2358,
    .eoiEmulation = 296,
    .xenIrqDispatch = 150,
    .vgicInject = 0,
    .schedWork = 9274,
    // [derived] I/O Latency rows (11,262 / 10,050).
    .domainWakeFromIdle = 8550,
    .guestIrqDispatch = 100,
    .backendDequeue = 510,
    .guestDriverRxPop = 760,
    .evtchnUpcall = 4620, // ~2.2 us at 2.1 GHz
    .grantSetup = 380,
    .countsResume = true,
    .countsDomainSwitch = false,
};

constexpr KvmParams kvmArm{
    .exitDispatch = 260,
    .entryDispatch = 260,
    .hypercallHandler = 104,
    .irqchipEmulation = 974,
    // SGI emulation (lighter than a full distributor access), then
    // the kvm_vcpu_kick bookkeeping.
    .ipiEmulation = 420 + 120,
    .eoiEmulation = 0,
    .reschedIrqHandler = 80,
    .vcpuSwitchWork = 3991,
    .ioeventfdSignal = 250,
    .vhostNotifyLatency = 1228,
    .vcpuWakeFromIdle = 11272,
    .irqfdInject = 300,
    .guestIrqDispatch = 100,
    .guestDriverRxPop = 720,
    .txPost = 150,
    .ioeventfdFastPath = false,
    .rxWindowIsCpuBusy = false,
};

/** VHE: the host-kernel dispatch after a trap to EL2 replaces the
 *  split-mode lowvisor round trip. [calibrated] */
constexpr KvmParams kvmArmVhe = [] {
    KvmParams p = kvmArm;
    p.exitDispatch = 100;
    p.entryDispatch = 0;
    return p;
}();

constexpr KvmParams kvmX86{
    .exitDispatch = 60,
    .entryDispatch = 0,
    .hypercallHandler = 100,
    .irqchipEmulation = 1184,
    // ICR emulation, then target lookup, request bits, reschedule.
    .ipiEmulation = 1184 + 1446,
    .eoiEmulation = 356,
    .reschedIrqHandler = 260,
    .vcpuSwitchWork = 3492,
    .ioeventfdSignal = 40,
    .vhostNotifyLatency = 1100,
    .vcpuWakeFromIdle = 17773,
    .irqfdInject = 300,
    .guestIrqDispatch = 100,
    .guestDriverRxPop = 640,
    .txPost = 130,
    .ioeventfdFastPath = true,
    .rxWindowIsCpuBusy = true,
};

constexpr ArchTraits armTraits{"ARM", xenArm, kvmArm, 0x405700,
                               ppiVtimerIrq, true};
constexpr ArchTraits armVheTraits{"ARM (VHE)", xenArm, kvmArmVhe,
                                  0x405700, ppiVtimerIrq, true};
constexpr ArchTraits x86Traits{"x86", xenX86, kvmX86, 0x860000, -1,
                               false};

/** Host EL1 state a split-mode exit makes live again. */
constexpr std::initializer_list<RegClass> hostEl1State = {
    RegClass::Gp, RegClass::Fp, RegClass::El1Sys, RegClass::Timer};

/** What VHE still moves between two VMs: their EL1 worlds (the host
 *  left EL1, the VMs did not). */
constexpr std::initializer_list<RegClass> vheVmState = {
    RegClass::Fp,    RegClass::El1Sys,    RegClass::Vgic,
    RegClass::Timer, RegClass::El2Config, RegClass::El2VirtMem};

/**
 * ARMv8 with the GICv2 virtualization extensions. Software chooses
 * what to switch: Xen ARM moves only GP registers on a trap, split-mode
 * KVM everything (Table III), and KVM on VHE (e2h) the GP registers of
 * a host that lives in EL2.
 */
class ArmPolicy final : public ArchPolicy
{
  public:
    ArmPolicy(Machine &m, WorldSwitchEngine &wse, bool e2h)
        : ArchPolicy(m, wse, e2h ? armVheTraits : armTraits), e2h(e2h)
    {
    }

    Cycles
    trap(PhysicalCpu &cpu, RegFile &guest) const override
    {
        guest.copyClassFrom(cpu.regs(), RegClass::Gp);
        cpu.setMode(CpuMode::El2);
        return trapCost();
    }

    Cycles
    resume(PhysicalCpu &cpu, const RegFile &guest) const override
    {
        cpu.regs().copyClassFrom(guest, RegClass::Gp);
        cpu.setMode(CpuMode::El1);
        return resumeCost();
    }

    Cycles
    trapCost() const override
    {
        return costs().trapToEl2 + costs().cost(RegClass::Gp).save;
    }

    Cycles
    resumeCost() const override
    {
        return costs().cost(RegClass::Gp).restore + costs().eretToEl1;
    }

    Cycles trapHw() const override { return costs().trapToEl2; }

    Cycles
    saveDomain(PhysicalCpu &cpu, RegFile *from, Cycles t) const override
    {
        // Both worlds live in EL1, so unlike a trap the whole EL1
        // state moves (Xen's VM Switch is barely ahead of KVM's).
        if (from == nullptr)
            return costs().cost(RegClass::Gp).save;
        return wse.save(cpu, *from, xenVmSwitchState, t);
    }

    Cycles
    restoreDomain(PhysicalCpu &cpu, const RegFile &to,
                  Cycles t) const override
    {
        return wse.restore(cpu, to, xenVmSwitchState, t) +
               costs().eretToEl1;
    }

    Cycles
    exitToHost(PhysicalCpu &cpu, RegFile &guest, const RegFile &host,
               Cycles t) const override
    {
        const CostModel &cm = costs();
        Cycles c = cm.trapToEl2 + kvm.exitDispatch;
        if (e2h) {
            // The trap lands in the EL2-resident host. The guest's EL1
            // system registers, VGIC and timer stay live: only the GP
            // registers reach memory (Section VI).
            c += wse.save(cpu, guest, {RegClass::Gp}, t + c);
            cpu.setMode(CpuMode::El2);
            return c;
        }
        // Split mode: save the complete VM state — including the VGIC
        // read-back, the dominant Table III term — disable Stage-2 and
        // traps for the host, and eret to host EL1 (the second half of
        // the double trap).
        c += wse.save(cpu, guest, kvmArmSwitchedState, t + c);
        c += cm.stage2Toggle + cm.eretToEl1;
        for (RegClass cls : hostEl1State)
            cpu.regs().copyClassFrom(host, cls);
        cpu.setMode(CpuMode::El1);
        return c;
    }

    Cycles
    enterGuest(PhysicalCpu &cpu, const RegFile &guest, RegFile &host,
               Cycles t, Cycles flush) const override
    {
        const CostModel &cm = costs();
        Cycles c = kvm.entryDispatch + flush;
        if (e2h) {
            // Already in EL2: restore the GP registers and eret.
            c += wse.restore(cpu, guest, {RegClass::Gp}, t + c);
        } else {
            // Preserve the host's live EL1 values before the guest's
            // own state overwrites them, trap back to EL2, restore
            // everything and re-enable Stage-2 and traps.
            for (RegClass cls : hostEl1State)
                host.copyClassFrom(cpu.regs(), cls);
            c += cm.trapToEl2;
            c += wse.restore(cpu, guest, kvmArmSwitchedState, t + c);
            c += cm.stage2Toggle;
        }
        cpu.setMode(CpuMode::El1);
        return c + cm.eretToEl1;
    }

    Cycles
    switchVms(PhysicalCpu &cpu, RegFile &from, const RegFile &to,
              Cycles t, Cycles work) const override
    {
        if (!e2h)
            return work; // exit and entry already moved everything
        const Cycles c = wse.save(cpu, from, vheVmState, t) + work;
        return c + wse.restore(cpu, to, vheVmState, t + c);
    }

    Cycles
    hostIrqAck() const override
    {
        return 2 * costs().irqChipRegAccess; // IAR read, EOI write
    }

    Cycles
    flushPending(Cycles t, VgicDistributor &d, Vcpu &v) const override
    {
        Cycles flush = 0;
        while (d.hasPending(v.id())) {
            const IrqId virq = d.popPending(v.id());
            if (mach.gic().injectVirq(t, v.pcpu(), virq) < 0) {
                // No free list register; keep it software-pending.
                d.setPending(v.id(), virq);
                break;
            }
            flush += mach.gic().lrWriteCost();
        }
        return flush;
    }

    Cycles
    inject(Cycles t, PcpuId cpu, IrqId virq) const override
    {
        mach.gic().injectVirq(t, cpu, virq);
        return mach.gic().lrWriteCost();
    }

    IrqId
    ack(PcpuId cpu, Cycles t) const override
    {
        return mach.gic().guestAckVirq(cpu, t);
    }

    Cycles
    complete(PcpuId cpu, IrqId acked) const override
    {
        return acked >= 0 ? mach.gic().guestCompleteVirq(cpu, acked) : 0;
    }

    Cycles
    completeAfterHandler(PcpuId cpu, IrqId acked, Cycles) const override
    {
        return complete(cpu, acked);
    }

    bool eoiTraps() const override { return false; }

    Cycles
    completeActive(PcpuId cpu) const override
    {
        // The VM completes through the GIC virtual CPU interface with
        // no trap (Table II: 71 cycles for both families).
        IrqId virq = -1;
        for (auto &lr : mach.gic().listRegs(cpu)) {
            if (!lr.empty() && lr.active) {
                virq = lr.virq;
                break;
            }
        }
        return mach.gic().guestCompleteVirq(cpu, virq);
    }

  private:
    const bool e2h;
};

/**
 * x86-64 with VT-x and the local APIC. The hardware switches the VMCS
 * state block on every exit and entry, so both families pay the same
 * transition (Section IV), and without vAPIC every guest EOI traps.
 */
class X86Policy final : public ArchPolicy
{
  public:
    X86Policy(Machine &m, WorldSwitchEngine &wse, const std::string &family)
        : ArchPolicy(m, wse, x86Traits),
          eoiTrapTap(internTap(family + ".virq_complete_trap")),
          vapicTap(internTap(family + ".virq_complete_vapic"))
    {
    }

    Cycles
    trap(PhysicalCpu &cpu, RegFile &guest) const override
    {
        saveVmcs(cpu, guest);
        cpu.setMode(CpuMode::KernelRoot);
        return trapCost();
    }

    Cycles
    resume(PhysicalCpu &cpu, const RegFile &guest) const override
    {
        loadVmcs(cpu, guest);
        cpu.setMode(CpuMode::KernelNonRoot);
        return resumeCost();
    }

    // The VMCS state switch is the same mechanism KVM pays: Type 1
    // gains nothing here on x86 (Section IV).
    Cycles trapCost() const override { return costs().vmexitHw; }
    Cycles resumeCost() const override { return costs().vmentryHw; }
    Cycles trapHw() const override { return costs().vmexitHw; }

    Cycles
    saveDomain(PhysicalCpu &cpu, RegFile *from, Cycles) const override
    {
        if (from != nullptr)
            saveVmcs(cpu, *from);
        return 0;
    }

    Cycles
    restoreDomain(PhysicalCpu &cpu, const RegFile &to,
                  Cycles) const override
    {
        loadVmcs(cpu, to);
        return costs().vmcsSwitch + costs().vmentryHw;
    }

    Cycles
    exitToHost(PhysicalCpu &cpu, RegFile &guest, const RegFile &host,
               Cycles) const override
    {
        // The exit itself saves the guest block and loads the host's:
        // no software save/restore choice, unlike ARM.
        saveVmcs(cpu, guest);
        loadVmcs(cpu, host);
        cpu.setMode(CpuMode::KernelRoot);
        return costs().vmexitHw + kvm.exitDispatch;
    }

    Cycles
    enterGuest(PhysicalCpu &cpu, const RegFile &guest, RegFile &host,
               Cycles, Cycles flush) const override
    {
        saveVmcs(cpu, host);
        loadVmcs(cpu, guest);
        cpu.setMode(CpuMode::KernelNonRoot);
        return costs().vmentryHw + kvm.entryDispatch + flush;
    }

    Cycles
    switchVms(PhysicalCpu &, RegFile &, const RegFile &, Cycles,
              Cycles work) const override
    {
        return work + costs().vmcsSwitch;
    }

    Cycles hostIrqAck() const override { return 0; }

    Cycles
    flushPending(Cycles t, VgicDistributor &d, Vcpu &v) const override
    {
        // The VMCS interrupt-information field carries one virq.
        if (!d.hasPending(v.id()))
            return 0;
        return inject(t, v.pcpu(), d.popPending(v.id()));
    }

    Cycles
    inject(Cycles t, PcpuId cpu, IrqId virq) const override
    {
        return mach.apic().injectVirq(t, cpu, virq);
    }

    IrqId
    ack(PcpuId cpu, Cycles) const override
    {
        return mach.apic().guestAckVirq(cpu);
    }

    Cycles complete(PcpuId, IrqId) const override { return 0; }

    Cycles
    completeAfterHandler(PcpuId, IrqId acked,
                         Cycles emulation) const override
    {
        // The handler's EOI write traps on vAPIC-less hardware: a full
        // exit round trip per delivered interrupt, after the
        // measurement endpoint — it shows in application results, not
        // in Table II's delivery latency.
        if (acked < 0 || !eoiTraps())
            return 0;
        mach.counters().counter(eoiTrapTap).inc();
        return trapCost() + emulation + resumeCost();
    }

    bool eoiTraps() const override { return !mach.apic().vApicEnabled(); }

    Cycles
    completeActive(PcpuId) const override
    {
        mach.counters().counter(vapicTap).inc();
        return costs().irqChipRegAccess;
    }

  private:
    static void
    saveVmcs(PhysicalCpu &cpu, RegFile &area)
    {
        area.copyClassFrom(cpu.regs(), RegClass::Gp);
        area.copyClassFrom(cpu.regs(), RegClass::Vmcs);
    }

    static void
    loadVmcs(PhysicalCpu &cpu, const RegFile &area)
    {
        cpu.regs().copyClassFrom(area, RegClass::Gp);
        cpu.regs().copyClassFrom(area, RegClass::Vmcs);
    }

    /** The owning family's EOI counters ("kvm.virq_complete_trap"...). */
    const TapId eoiTrapTap;
    const TapId vapicTap;
};

} // namespace

std::unique_ptr<const ArchPolicy>
ArchPolicy::create(Machine &m, WorldSwitchEngine &wse,
                   const std::string &family, bool e2h)
{
    if (m.arch() == Arch::X86) {
        VIRTSIM_ASSERT(!e2h, "VHE needs an ARM machine");
        return std::make_unique<X86Policy>(m, wse, family);
    }
    return std::make_unique<ArmPolicy>(m, wse, e2h);
}

} // namespace virtsim
