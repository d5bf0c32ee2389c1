// Reproduces Table 7: per-thread kernel memory overhead across execution
// models. We measure, for each model:
//   * the retained kernel-stack bytes of threads blocked inside syscalls
//     (the coroutine frame IS the kernel stack in the process model; the
//     interrupt model destroys it on every block, so it retains zero), and
//   * the simulator's thread control block size,
// under a workload that parks many threads deep in representative kernel
// operations (mutex waits, cond waits, IPC sends/receives, fault waits).
// The paper's numbers for other systems are printed alongside for context.

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"

namespace fluke {
namespace {

struct Measured {
  uint64_t blocked_threads = 0;
  uint64_t retained_stack_bytes = 0;  // peak, while blocked
  uint64_t peak_per_thread = 0;
};

Measured MeasureModel(ExecModel model) {
  KernelConfig cfg;
  cfg.model = model;
  Kernel k(cfg);

  auto space = k.CreateSpace("park");
  space->SetAnonRange(0x10000, 1 << 20);
  auto locked_mutex = k.NewMutex();
  locked_mutex->locked = true;
  const Handle m = k.Install(space, locked_mutex);
  const Handle cm = k.Install(space, k.NewMutex());
  const Handle c = k.Install(space, k.NewCond());
  auto port = k.NewPort(1);
  const Handle pref = k.Install(space, k.NewReference(port));

  constexpr int kPerKind = 16;
  // Threads blocked in mutex_lock.
  for (int i = 0; i < kPerKind; ++i) {
    Assembler a("m" + std::to_string(i));
    EmitSys(a, kSysMutexLock, m);
    a.Halt();
    k.StartThread(k.CreateThread(space, a.Build()));
  }
  // Threads blocked in cond_wait (nested: cond wait + mutex relock frames).
  for (int i = 0; i < kPerKind; ++i) {
    Assembler a("c" + std::to_string(i));
    EmitSys(a, kSysMutexLock, cm);
    EmitSys(a, kSysCondWait, c, cm);
    a.Halt();
    k.StartThread(k.CreateThread(space, a.Build()));
  }
  // Threads blocked mid-IPC (queued on a port no server answers).
  for (int i = 0; i < kPerKind; ++i) {
    Assembler a("i" + std::to_string(i));
    EmitSys(a, kSysIpcClientConnectSend, pref, 0x10000, 256, 0, 0);
    a.Halt();
    k.StartThread(k.CreateThread(space, a.Build()));
  }

  k.Run(k.clock.now() + 200 * kNsPerMs);

  Measured r;
  uint64_t peak = 0;
  for (const auto& t : k.threads()) {
    if (t->run_state == ThreadRun::kBlocked) {
      ++r.blocked_threads;
      if (t->kstack_bytes > peak) {
        peak = t->kstack_bytes;
      }
    }
  }
  r.retained_stack_bytes = k.stats.blocked_frame_bytes_peak;
  r.peak_per_thread = peak;
  return r;
}

int Main() {
  std::printf("Table 7: memory overhead due to thread management\n\n");
  std::printf("  Paper's survey (bytes):\n");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "System", "Model", "TCB", "Stack", "Total");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "FreeBSD", "Process", "2132", "6700", "8832");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Linux", "Process", "2395", "4096", "6491");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Mach", "Process", "452", "4022", "4474");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Mach", "Interrupt", "690", "--", "690");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "L3", "Process", "", "1024", "1024");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Fluke", "Process", "", "4096", "4096");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Fluke", "Process", "", "1024", "1024");
  std::printf("    %-10s %-10s %6s %6s %6s\n", "Fluke", "Interrupt", "300", "--", "300");

  std::printf("\n  This implementation (measured, %d threads parked in kernel ops):\n\n",
              48);
  std::printf("    %-10s %8s %14s %16s %10s\n", "Model", "blocked", "peak stack/thr",
              "total retained", "sim TCB");
  for (ExecModel model : {ExecModel::kProcess, ExecModel::kInterrupt}) {
    Measured r = MeasureModel(model);
    std::printf("    %-10s %8llu %13lluB %15lluB %9zuB\n",
                model == ExecModel::kProcess ? "Process" : "Interrupt",
                static_cast<unsigned long long>(r.blocked_threads),
                static_cast<unsigned long long>(r.peak_per_thread),
                static_cast<unsigned long long>(r.retained_stack_bytes), sizeof(Thread));
  }
  std::printf("\n  The interrupt model retains ZERO kernel-stack bytes for blocked\n"
              "  threads (frames are destroyed at every block; the registers are the\n"
              "  continuation); the process model retains one coroutine frame chain\n"
              "  per blocked thread -- the moral equivalent of its per-thread kernel\n"
              "  stack, far below the 4 KiB a page-granular stack would cost.\n");
  return 0;
}

}  // namespace
}  // namespace fluke

int main() { return fluke::Main(); }
