// Reproduces the section 5.5 measurement: the architectural bias of a
// process-model CPU against interrupt-model kernels. On kernel entry the
// interrupt model must move the trap state from the per-CPU stack to the
// TCB (and back on exit); the paper measures ~6 cycles of extra trap
// overhead on a Pentium against a ~70-cycle minimal crossing -- under 10%
// of even the fastest possible system call.

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"

namespace fluke {
namespace {

// Measures the average virtual cost of a null syscall under `model`:
// a syscall loop runs for a fixed virtual duration (counting completed
// calls), and an identical loop without the trap calibrates away the
// loop overhead.
double NullSyscallCycles(ExecModel model) {
  constexpr Time kWindow = 50 * kNsPerMs;
  constexpr uint32_t kCounter = 0x10000;

  // Loop overhead per iteration, from a trap-free control kernel.
  double loop_cycles = 0;
  {
    KernelConfig cfg;
    cfg.model = model;
    Kernel k(cfg);
    auto space = k.CreateSpace("ctrl");
    space->SetAnonRange(0x10000, 1 << 20);
    Assembler b("ctrl");
    const auto loop = b.NewLabel();
    b.MovImm(kRegC, kCounter);
    b.MovImm(kRegDI, 0);
    b.Bind(loop);
    b.MovImm(kRegA, kSysNull);  // same instruction mix, no trap
    b.AddImm(kRegDI, kRegDI, 1);
    b.StoreW(kRegDI, kRegC, 0);
    b.Jmp(loop);
    space->program = b.Build();
    k.StartThread(k.CreateThread(space));
    k.Run(k.clock.now() + kWindow);
    uint32_t iters = 0;
    space->HostRead(kCounter, &iters, 4);
    loop_cycles = static_cast<double>(kWindow) / kNsPerCycle / iters;
  }

  KernelConfig cfg;
  cfg.model = model;
  Kernel k(cfg);
  auto space = k.CreateSpace("bias");
  space->SetAnonRange(0x10000, 1 << 20);
  Assembler a("nulls");
  const auto loop = a.NewLabel();
  a.MovImm(kRegC, kCounter);
  a.MovImm(kRegDI, 0);
  a.Bind(loop);
  a.MovImm(kRegA, kSysNull);
  a.Syscall();
  a.AddImm(kRegDI, kRegDI, 1);
  a.StoreW(kRegDI, kRegC, 0);
  a.Jmp(loop);
  space->program = a.Build();
  k.StartThread(k.CreateThread(space));
  k.Run(k.clock.now() + kWindow);
  const uint64_t calls = k.stats.syscalls;
  const double per_iter = static_cast<double>(kWindow) / kNsPerCycle / calls;
  return per_iter - loop_cycles;
}

int Main() {
  std::printf("Section 5.5: architectural bias of a process-model CPU\n\n");
  const double proc = NullSyscallCycles(ExecModel::kProcess);
  const double intr = NullSyscallCycles(ExecModel::kInterrupt);
  std::printf("  null system call, process model:   %6.1f cycles\n", proc);
  std::printf("  null system call, interrupt model: %6.1f cycles\n", intr);
  std::printf("  interrupt-model entry/exit penalty: %5.1f cycles (%.1f%% of a null call)\n",
              intr - proc, (intr - proc) * 100.0 / proc);
  std::printf("\n  (paper: ~6 cycles penalty on a 100 MHz Pentium; minimal crossing\n"
              "   ~70 cycles; \"even for the fastest possible system call the\n"
              "   interrupt-model overhead is less than 10%%\")\n");
  return 0;
}

}  // namespace
}  // namespace fluke

int main() { return fluke::Main(); }
