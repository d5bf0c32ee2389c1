// Quickstart: boot a Fluke kernel, run threads, synchronize, talk over IPC.
//
// This walks through the core of the public API:
//   1. create a kernel in one of the five paper configurations,
//   2. create spaces (address spaces + handle tables) and user programs
//      (built with the UVM assembler + libfluke-style syscall stubs),
//   3. synchronize threads with kernel mutexes/condition variables,
//   4. run an IPC echo server and client,
//   5. inspect a thread's exported state while it is blocked mid-call --
//      the atomic API property the whole paper is about.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/kern/state.h"

using namespace fluke;

int main() {
  // 1. A kernel: process model, no kernel preemption (the paper's baseline).
  //    Change `cfg.model` / `cfg.preempt` to any Table 4 configuration; the
  //    API behaves identically.
  KernelConfig cfg;
  cfg.model = ExecModel::kProcess;
  cfg.preempt = PreemptMode::kNone;
  Kernel kernel(cfg);

  // 2. Two spaces with kernel-backed anonymous memory.
  auto app_space = kernel.CreateSpace("app");
  auto srv_space = kernel.CreateSpace("echo-server");
  constexpr uint32_t kAnon = 0x10000;
  app_space->SetAnonRange(kAnon, 1 << 20);
  srv_space->SetAnonRange(kAnon, 1 << 20);

  // Kernel objects: a mutex shared by the app threads, and a port the
  // server listens on (the app holds a Reference to it).
  const Handle mutex_h = kernel.Install(app_space, kernel.NewMutex());
  auto port = kernel.NewPort(/*badge=*/42);
  const Handle srv_port_h = kernel.Install(srv_space, port);
  const Handle app_ref_h = kernel.Install(app_space, kernel.NewReference(port));

  // 3. Two app threads increment a shared counter under the mutex, then the
  //    second one RPCs the echo server.
  constexpr uint32_t kCounter = kAnon;
  constexpr uint32_t kMsgBuf = kAnon + 0x100;

  auto make_worker = [&](const char* name, const char* tag, bool do_rpc) {
    Assembler a(name);
    for (int i = 0; i < 3; ++i) {
      EmitSys(a, kSysMutexLock, mutex_h);
      EmitCheckOk(a);
      a.MovImm(kRegC, kCounter);
      a.LoadW(kRegB, kRegC, 0);
      a.AddImm(kRegB, kRegB, 1);
      a.StoreW(kRegB, kRegC, 0);
      EmitSys(a, kSysMutexUnlock, mutex_h);
      EmitPuts(a, tag);
    }
    if (do_rpc) {
      // Send "7" to the echo server; expect 7 + 1000 back.
      a.MovImm(kRegB, 7);
      a.MovImm(kRegC, kMsgBuf);
      a.StoreW(kRegB, kRegC, 0);
      EmitSys(a, kSysIpcClientConnectSendOverReceive, app_ref_h, kMsgBuf, 1, kMsgBuf + 16, 1);
      EmitCheckOk(a);
      EmitPuts(a, "!");
    }
    a.Halt();
    return a.Build();
  };

  Assembler sa("echo");
  EmitSys(sa, kSysIpcWaitReceive, srv_port_h, 0, 0, kMsgBuf, 1);
  EmitCheckOk(sa);
  sa.MovImm(kRegC, kMsgBuf);
  sa.LoadW(kRegB, kRegC, 0);
  sa.AddImm(kRegB, kRegB, 1000);
  sa.StoreW(kRegB, kRegC, 4);
  EmitSys(sa, kSysIpcServerAckSend, 0, kMsgBuf + 4, 1, 0, 0);
  EmitCheckOk(sa);
  sa.Halt();
  srv_space->program = sa.Build();

  Thread* w1 = kernel.CreateThread(app_space, make_worker("w1", "a", false));
  Thread* w2 = kernel.CreateThread(app_space, make_worker("w2", "b", true));
  Thread* server = kernel.CreateThread(srv_space);
  kernel.StartThread(server);
  kernel.StartThread(w1);
  kernel.StartThread(w2);

  // 5. Run a little, then peek at a thread's exported state (prompt and
  //    correct even if it is blocked inside a multi-stage call).
  kernel.Run(kernel.clock.now() + 1 * kNsPerMs);
  ThreadState st;
  if (kernel.GetThreadState(w2, &st)) {
    std::printf("[host] w2 exported state: pc=%u entrypoint-reg=%s\n", st.regs.pc,
                SysName(st.regs.gpr[kRegA]));
  }

  if (!kernel.RunUntilQuiescent(10ull * 1000 * kNsPerMs)) {
    std::printf("[host] kernel did not quiesce!\n");
    return 1;
  }

  uint32_t counter = 0, reply = 0;
  app_space->HostRead(kCounter, &counter, 4);
  app_space->HostRead(kMsgBuf + 16, &reply, 4);
  std::printf("[host] console: \"%s\"\n", kernel.console.output().c_str());
  std::printf("[host] shared counter = %u (expect 6)\n", counter);
  std::printf("[host] echo reply     = %u (expect 1007)\n", reply);
  std::printf("[host] virtual time   = %.3f ms, %llu syscalls, %llu context switches\n",
              static_cast<double>(kernel.clock.now()) / kNsPerMs,
              static_cast<unsigned long long>(kernel.stats.syscalls),
              static_cast<unsigned long long>(kernel.stats.context_switches));
  return counter == 6 && reply == 1007 ? 0 : 1;
}
