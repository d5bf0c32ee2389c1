// Legacy process-model code inside an interrupt-model kernel (section 5.6).
//
// The paper's technique: run legacy process-model code (here: a disk
// driver) as an ordinary USER-MODE thread in the kernel's address space.
// The core kernel stays a pure interrupt-model kernel; the driver gets its
// own stack and blocking calls like any user thread; privileged operations
// are exported to it as pseudo-system calls (the kernel_call gate) that
// ordinary threads are refused.
//
// The driver serves disk requests over IPC: an application thread asks for
// a block, the driver submits the request to the (simulated) hardware with
// the privileged disk_submit pseudo-syscall, sleeps in disk_wait until the
// completion interrupt, and replies.
//
// Build & run:  ./build/examples/legacy_driver   (use the interrupt model!)

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/kern/legacy.h"

using namespace fluke;

int main() {
  KernelConfig cfg;
  cfg.model = ExecModel::kInterrupt;  // the point of the exercise
  Kernel kernel(cfg);

  // "The kernel's address space": the driver runs in user mode but its
  // space stands in for the kernel's (it is a normal Space set up by the
  // boot path; on real Fluke the translation hardware aliases the kernel).
  auto kspace = kernel.CreateSpace("kernel-address-space");
  kspace->SetAnonRange(0x10000, 1 << 20);
  auto app_space = kernel.CreateSpace("app");
  app_space->SetAnonRange(0x10000, 1 << 20);

  auto disk_port = kernel.NewPort(0xD15C);
  const Handle drv_port_h = kernel.Install(kspace, disk_port);
  const Handle app_ref_h = kernel.Install(app_space, kernel.NewReference(disk_port));

  constexpr uint32_t kReq = 0x10000;   // request: [sector, count]
  constexpr uint32_t kRep = 0x10100;   // reply:   [request id]

  // --- The legacy driver (process-model code: it blocks wherever it
  //     likes, keeping its "stack" -- which is exactly what a user-mode
  //     thread gets for free) ---
  Assembler d("disk-driver");
  const auto dloop = d.NewLabel();
  EmitSys(d, kSysIpcWaitReceive, drv_port_h, 0, 0, kReq, 2);
  EmitCheckOk(d);
  d.Bind(dloop);  // ack_send_wait_receive below returns WITH the next request
  // Privileged submit: B=sector, C=count, D=write flag.
  d.MovImm(kRegC, kReq);
  d.LoadW(kRegB, kRegC, 0);   // sector
  d.LoadW(kRegC, kRegC, 4);   // count
  d.MovImm(kRegD, 0);         // read
  d.MovImm(kRegA, kPsysDiskSubmit);
  d.Syscall();
  // Block until the completion interrupt (a perfectly ordinary long
  // syscall -- the legacy thread sleeps like any process-model code).
  EmitSys(d, kSysDiskWait);
  EmitCheckOk(d);
  // Reply with the completed request id (in B after disk_wait).
  d.MovImm(kRegC, kRep);
  d.StoreW(kRegB, kRegC, 0);
  // B names the port for the wait stage the call falls into after replying.
  EmitSys(d, kSysIpcServerAckSendWaitReceive, drv_port_h, kRep, 1, kReq, 2);
  EmitCheckOk(d);
  d.Jmp(dloop);
  kspace->program = d.Build();
  Thread* driver = kernel.CreateThread(kspace, nullptr, /*priority=*/6);
  driver->legacy = true;  // grants the pseudo-syscall gate
  kernel.StartThread(driver);

  // --- The application: read three blocks, then try the privileged call
  //     itself (must be refused) ---
  Assembler a("app");
  for (uint32_t i = 0; i < 3; ++i) {
    a.MovImm(kRegB, 100 + 50 * i);  // sector
    a.MovImm(kRegC, kReq);
    a.StoreW(kRegB, kRegC, 0);
    a.MovImm(kRegB, 8);  // sectors
    a.StoreW(kRegB, kRegC, 4);
    // The driver's ack_send_wait_receive drops the connection after each
    // reply (it moves on to the next client), so connect every time.
    EmitSys(a, kSysIpcClientConnectSendOverReceive, app_ref_h, kReq, 2, kRep, 1);
    EmitCheckOk(a);
    EmitPuts(a, "io;");
  }
  // A NON-legacy thread invoking the privileged gate gets PROTECTION.
  EmitSys(a, kPsysDiskSubmit, 0, 1, 0);
  a.MovImm(kRegC, kRep + 16);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  app_space->program = a.Build();
  Thread* app = kernel.CreateThread(app_space);
  kernel.StartThread(app);

  if (!kernel.RunUntilThreadDone(app, 10ull * 1000 * kNsPerMs)) {
    std::printf("FAILED: app did not finish\n");
    return 1;
  }
  uint32_t denied = 0;
  app_space->HostRead(kRep + 16, &denied, 4);
  std::printf("app console      : \"%s\" (three disk reads served)\n",
              kernel.console.output().c_str());
  std::printf("disk requests    : %llu submitted by the driver\n",
              static_cast<unsigned long long>(kernel.disk.submitted()));
  std::printf("privilege check  : app's disk_submit returned %s (expect PROTECTION)\n",
              FlukeErrorName(denied));
  std::printf("driver model     : process-model code, user mode, kernel address space --\n"
              "                   the core kernel remained pure interrupt-model throughout\n");
  return kernel.console.output() == "io;io;io;" && denied == kFlukeErrProtection ? 0 : 1;
}
