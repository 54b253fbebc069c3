#include "hw/cpu.hh"

#include <algorithm>

#include "sim/log.hh"

namespace virtsim {

RegFile::RegFile()
{
    for (std::size_t i = 0; i < numRegClasses; ++i)
        banks[i].assign(bankSize(static_cast<RegClass>(i)), 0);
}

std::size_t
RegFile::bankSize(RegClass cls)
{
    switch (cls) {
      case RegClass::Gp:
        return 31; // x0-x30
      case RegClass::Fp:
        return 32; // v0-v31
      case RegClass::El1Sys:
        return 20; // TTBRx_EL1, SCTLR_EL1, TCR_EL1, VBAR_EL1, ...
      case RegClass::Vgic:
        return 11; // GICH_HCR, GICH_VMCR, GICH_APR, 4+ list registers
      case RegClass::Timer:
        return 3;  // CNTV_CTL, CNTV_CVAL, CNTVOFF
      case RegClass::El2Config:
        return 4;  // HCR_EL2, CPTR_EL2, HSTR_EL2, CNTHCTL_EL2
      case RegClass::El2VirtMem:
        return 2;  // VTTBR_EL2, VTCR_EL2
      case RegClass::Vmcs:
        return 32; // x86 state block switched by hardware
    }
    panic("bad RegClass");
}

std::vector<std::uint64_t> &
RegFile::bank(RegClass cls)
{
    return banks[static_cast<std::size_t>(cls)];
}

const std::vector<std::uint64_t> &
RegFile::bank(RegClass cls) const
{
    return banks[static_cast<std::size_t>(cls)];
}

void
RegFile::fillPattern(std::uint64_t tag)
{
    for (std::size_t c = 0; c < numRegClasses; ++c) {
        auto &b = banks[c];
        for (std::size_t i = 0; i < b.size(); ++i)
            b[i] = (tag << 16) ^ (static_cast<std::uint64_t>(c) << 8) ^ i;
    }
}

bool
RegFile::matchesPattern(std::uint64_t tag) const
{
    for (std::size_t c = 0; c < numRegClasses; ++c) {
        const auto &b = banks[c];
        for (std::size_t i = 0; i < b.size(); ++i) {
            const std::uint64_t want =
                (tag << 16) ^ (static_cast<std::uint64_t>(c) << 8) ^ i;
            if (b[i] != want)
                return false;
        }
    }
    return true;
}

void
RegFile::copyClassFrom(const RegFile &other, RegClass cls)
{
    bank(cls) = other.bank(cls);
}

PhysicalCpu::PhysicalCpu(PcpuId id, EventQueue &eq, const CostModel &cm)
    : _id(id), eq(eq), cm(cm),
      _mode(cm.arch == Arch::Arm ? CpuMode::El1 : CpuMode::KernelRoot)
{
}

Cycles
PhysicalCpu::charge(Cycles ready, Cycles cost)
{
    const Cycles start = std::max(ready, _frontier);
    _frontier = start + cost;
    _busy += cost;
    return _frontier;
}

double
PhysicalCpu::utilization(Cycles now) const
{
    if (now == 0)
        return 0.0;
    return static_cast<double>(_busy) / static_cast<double>(now);
}

} // namespace virtsim
