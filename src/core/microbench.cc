#include "core/microbench.hh"

#include "sim/log.hh"
#include "sim/sweep.hh"

namespace virtsim {

std::string
to_string(MicroOp op)
{
    switch (op) {
      case MicroOp::Hypercall:
        return "Hypercall";
      case MicroOp::InterruptControllerTrap:
        return "Interrupt Controller Trap";
      case MicroOp::VirtualIpi:
        return "Virtual IPI";
      case MicroOp::VirtualIrqCompletion:
        return "Virtual IRQ Completion";
      case MicroOp::VmSwitch:
        return "VM Switch";
      case MicroOp::IoLatencyOut:
        return "I/O Latency Out";
      case MicroOp::IoLatencyIn:
        return "I/O Latency In";
    }
    panic("bad MicroOp");
}

std::string
describe(MicroOp op)
{
    switch (op) {
      case MicroOp::Hypercall:
        return "Transition from VM to hypervisor and return to VM "
               "without doing any work in the hypervisor.";
      case MicroOp::InterruptControllerTrap:
        return "Trap from VM to emulated interrupt controller then "
               "return to VM.";
      case MicroOp::VirtualIpi:
        return "Issue a virtual IPI from a VCPU to another VCPU "
               "running on a different PCPU.";
      case MicroOp::VirtualIrqCompletion:
        return "VM acknowledging and completing a virtual interrupt.";
      case MicroOp::VmSwitch:
        return "Switch from one VM to another on the same physical "
               "core.";
      case MicroOp::IoLatencyOut:
        return "Latency between a driver in the VM signaling the "
               "virtual I/O device and the device receiving the "
               "signal.";
      case MicroOp::IoLatencyIn:
        return "Latency between the virtual I/O device signaling the "
               "VM and the VM receiving the virtual interrupt.";
    }
    panic("bad MicroOp");
}

MicrobenchSuite::MicrobenchSuite(Testbed &tb) : tb(tb)
{
    VIRTSIM_ASSERT(tb.virtualized(),
                   "microbenchmarks run inside a VM");
}

Vm &
MicrobenchSuite::secondVm()
{
    if (vm1 == nullptr) {
        // A second VM pinned to the same PCPUs, initially unloaded —
        // the "oversubscribed physical CPUs" scenario of the VM
        // Switch row.
        vm1 = &tb.hypervisor()->createVm("vm1", tb.width(),
                                         {0, 1, 2, 3});
    }
    return *vm1;
}

void
MicrobenchSuite::setUp(MicroOp op)
{
    Hypervisor *hv = tb.hypervisor();
    Machine &m = tb.machine();
    Vm &vm = *tb.guest();

    switch (op) {
      case MicroOp::VirtualIrqCompletion: {
        // Arm an active virtual interrupt for the VM to complete.
        if (m.arch() == Arch::Arm) {
            m.gic().injectVirq(tb.queue().now(), vm.vcpu(0).pcpu(),
                               spiNicIrq);
            m.gic().guestAckVirq(vm.vcpu(0).pcpu());
        }
        break;
      }
      case MicroOp::IoLatencyOut: {
        // Dom0 idles between iterations in the paper's setup; the
        // cost of waking it is precisely what this row measures for
        // Xen.
        if (auto *xen = dynamic_cast<XenHypervisor *>(hv))
            xen->forceDom0Idle();
        break;
      }
      case MicroOp::IoLatencyIn: {
        // The backend signals a blocked VM: the receiving VCPU is
        // idle, and (for Xen) Dom0 is the running signaller.
        tb.setIdle(0, true);
        if (auto *xen = dynamic_cast<XenHypervisor *>(hv))
            xen->forceDom0Running();
        break;
      }
      default:
        break;
    }
}

void
MicrobenchSuite::issue(MicroOp op, Cycles t, Done done)
{
    Hypervisor *hv = tb.hypervisor();
    Vm &vm = *tb.guest();

    switch (op) {
      case MicroOp::Hypercall:
        hv->hypercall(t, vm.vcpu(0), std::move(done));
        return;
      case MicroOp::InterruptControllerTrap:
        hv->irqControllerTrap(t, vm.vcpu(0), std::move(done));
        return;
      case MicroOp::VirtualIpi:
        hv->virtualIpi(t, vm.vcpu(0), vm.vcpu(1), std::move(done));
        return;
      case MicroOp::VirtualIrqCompletion:
        hv->virqComplete(t, vm.vcpu(0), std::move(done));
        return;
      case MicroOp::VmSwitch: {
        // Alternate directions so every iteration is a genuine
        // switch.
        Vm &other = secondVm();
        Vcpu &cur = vm1Loaded ? other.vcpu(0) : vm.vcpu(0);
        Vcpu &next = vm1Loaded ? vm.vcpu(0) : other.vcpu(0);
        vm1Loaded = !vm1Loaded;
        hv->vmSwitch(t, cur, next, std::move(done));
        return;
      }
      case MicroOp::IoLatencyOut:
        hv->ioSignalOut(t, vm.vcpu(0), std::move(done));
        return;
      case MicroOp::IoLatencyIn:
        hv->ioSignalIn(t, vm.vcpu(0), std::move(done));
        return;
    }
    panic("bad MicroOp");
}

MicroResult
MicrobenchSuite::run(MicroOp op, int iterations)
{
    VIRTSIM_ASSERT(iterations > 0, "need at least one iteration");
    MicroResult result;
    result.op = op;

    // Iterations chain through the event queue with a settling gap,
    // mirroring a measurement loop with instruction barriers around
    // timestamps.
    const Cycles gap = tb.freq().cycles(60.0);
    auto *res = &result;
    // Iteration driver; outlives tb.run(), so the queued callbacks
    // can hold a plain pointer to it (a self-capturing shared_ptr
    // would form a reference cycle and leak).
    std::function<void(int)> iterate;
    auto *iter = &iterate;
    iterate = [this, res, iterations, gap, iter](int i) {
        if (i >= iterations)
            return;
        setUp(res->op);
        const Cycles t0 = std::max(tb.queue().now(),
                                   tb.frontier(0)) + gap;
        tb.queue().scheduleAt(t0, [this, res, i, t0, iter] {
            issue(res->op, t0, [res, i, t0, iter](Cycles t1) {
                res->cycles.add(static_cast<double>(t1 - t0));
                (*iter)(i + 1);
            });
        });
    };
    iterate(0);
    tb.run();
    if (op == MicroOp::VmSwitch && vm1Loaded) {
        // Leave the testbed with the measured VM loaded so later
        // operations target a running vm0 (uncounted switch back).
        const Cycles t = std::max(tb.queue().now(), tb.frontier(0));
        tb.hypervisor()->vmSwitch(t, vm1->vcpu(0),
                                  tb.guest()->vcpu(0), [](Cycles) {});
        tb.run();
        vm1Loaded = false;
    }
    VIRTSIM_ASSERT(res->cycles.count() ==
                   static_cast<std::size_t>(iterations),
                   "microbenchmark lost iterations: ",
                   res->cycles.count(), " of ", iterations);
    return result;
}

std::vector<MicroResult>
MicrobenchSuite::runAll(int iterations)
{
    std::vector<MicroResult> out;
    for (MicroOp op : allMicroOps)
        out.push_back(run(op, iterations));
    return out;
}

std::vector<MicroSweepColumn>
runMicrobenchSweep(const std::vector<SutKind> &kinds, int iterations,
                   bool attribution)
{
    return parallelSweep(kinds, [iterations, attribution](SutKind kind) {
        TestbedConfig tc;
        tc.kind = kind;
        TestbedLease tb = acquireTestbed(tc);
        CausalAnalyzer *an = nullptr;
        if (attribution) {
            an = &tb->attribution();
            an->setLabel(to_string(kind));
        }
        MicrobenchSuite suite(*tb);
        MicroSweepColumn col{kind, suite.runAll(iterations), {}, {}};
        col.metrics = tb->metrics().snapshot();
        if (an)
            col.blame = an->report(&tb->trace());
        return col;
    });
}

} // namespace virtsim
