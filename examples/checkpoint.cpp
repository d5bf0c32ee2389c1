// User-level checkpointing -- the paper's flagship application.
//
// Because every Fluke operation is interruptible and restartable, a plain
// user-level manager can capture the COMPLETE state of a running task --
// including threads blocked deep inside multi-stage system calls -- destroy
// it, and re-create it later, indistinguishably. No kernel cooperation
// beyond the ordinary thread_get_state/set_state calls is needed.
//
// This demo runs a two-thread task (one holds a mutex through a long
// computation; the other is BLOCKED on that mutex), checkpoints it at an
// awkward moment, destroys every thread, restores from the image, and shows
// the output is exactly what an undisturbed run produces.
//
// Build & run:  ./build/examples/checkpoint

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/workloads/checkpoint.h"

using namespace fluke;

namespace {

ProgramRegistry g_registry;
Handle g_mutex_h = 0;

void BuildTask(Kernel& k, Space* space) {
  auto mutex = k.NewMutex();
  g_mutex_h = k.Install(space, mutex);

  // Thread A: grab the lock, do 5 ms of "work" in stages, release.
  Assembler aa("worker-a");
  EmitSys(aa, kSysMutexLock, g_mutex_h);
  EmitCheckOk(aa);
  EmitPuts(aa, "[A:locked]");
  EmitCompute(aa, 1000000);
  EmitPuts(aa, "[A:halfway]");
  EmitCompute(aa, 1000000);
  EmitSys(aa, kSysMutexUnlock, g_mutex_h);
  EmitPuts(aa, "[A:done]");
  aa.Halt();

  // Thread B: wants the same lock -- it will be BLOCKED in mutex_lock when
  // the checkpoint fires.
  Assembler ab("worker-b");
  EmitCompute(ab, 100000);  // arrive second
  EmitSys(ab, kSysMutexLock, g_mutex_h);
  EmitCheckOk(ab);
  EmitPuts(ab, "[B:got-lock]");
  EmitSys(ab, kSysMutexUnlock, g_mutex_h);
  ab.Halt();

  g_registry.Register(aa.Build());
  g_registry.Register(ab.Build());
  space->program = g_registry.Find("worker-a");
  k.StartThread(k.CreateThread(space, g_registry.Find("worker-a")));
  k.StartThread(k.CreateThread(space, g_registry.Find("worker-b")));
}

}  // namespace

int main() {
  // Reference run: no checkpoint.
  std::string expected;
  {
    Kernel k(KernelConfig{});
    auto space = k.CreateSpace("task");
    space->SetAnonRange(0x10000, 1 << 20);
    BuildTask(k, space);
    k.RunUntilQuiescent(60ull * 1000 * kNsPerMs);
    expected = k.console.output();
  }
  std::printf("undisturbed run : \"%s\"\n", expected.c_str());

  // Checkpointed run: cut 3 ms in, while A computes INSIDE its critical
  // section and B is blocked in mutex_lock.
  Kernel k(KernelConfig{});
  auto space = k.CreateSpace("task");
  space->SetAnonRange(0x10000, 1 << 20);
  g_registry = ProgramRegistry();
  BuildTask(k, space);
  k.Run(k.clock.now() + 3 * kNsPerMs);
  std::printf("output at cut   : \"%s\"\n", k.console.output().c_str());

  std::printf("checkpointing   : capturing threads, memory, handle table...\n");
  MachineImage img;
  std::string err;
  if (!CaptureSpace(k, *space, &img, &err)) {
    std::printf("REFUSED: %s\n", err.c_str());
    return 1;
  }
  std::printf("                  %zu threads, %zu pages, %zu handle slots\n",
              img.threads.size(), img.TotalPages(), img.spaces[0].objects.size());
  for (size_t i = 0; i < img.threads.size(); ++i) {
    std::printf("                  thread %zu: pc=%u entry-reg=%s (%s)\n", i,
                img.threads[i].state.regs.pc, SysName(img.threads[i].state.regs.gpr[kRegA]),
                img.threads[i].program_name.c_str());
  }
  DestroySpaceThreads(k, *space);
  std::printf("destroyed       : all threads of the task are dead\n");

  std::printf("restoring       : fresh space + threads from the image\n");
  const MachineRestoreResult r = RestoreMachine(k, img, g_registry);
  if (!r.ok) {
    std::printf("FAILED to restore: %s\n", r.error.c_str());
    return 1;
  }
  if (!k.RunUntilQuiescent(60ull * 1000 * kNsPerMs)) {
    std::printf("FAILED: restored task did not finish\n");
    return 1;
  }
  std::printf("combined output : \"%s\"\n", k.console.output().c_str());
  const bool ok = k.console.output() == expected;
  std::printf("\n%s: checkpoint/restore is %s to the undisturbed run\n",
              ok ? "SUCCESS" : "FAILURE", ok ? "indistinguishable" : "DIFFERENT");
  return ok ? 0 : 1;
}
