// Reproduces Table 3: breakdown of restart costs for the possible
// kernel-internal exceptions during a reliable IPC transfer -- the area of
// the kernel with the most internal synchronization (specifically
// ipc_client_connect_send_over_receive).
//
// Four fault classes are induced during one transfer each:
//   * client-side soft -- the client's send buffer is backed by pages
//     already present in its manager's space, so the kernel derives the PTE
//     by walking the mapping hierarchy (one level);
//   * client-side hard -- the buffer pages are absent everywhere: an
//     exception IPC goes to the client's user-mode manager;
//   * server-side soft -- like client soft, but the server space imports its
//     memory through a two-level hierarchy (deeper walk, as a real server
//     importing memory from a manager-of-managers would);
//   * server-side hard -- the server's receive buffer pages are absent.
//
// "Cost to remedy" is the virtual time from fault to resolution; "cost to
// rollback" is the work discarded at the fault and redone after it (the
// paper's Table 3 was measured on the process model without kernel
// preemption; so is this).

#include <cstdio>

#include "src/api/ulib.h"
#include "src/kern/kernel.h"
#include "src/workloads/pager.h"

namespace fluke {
namespace {

struct Scenario {
  const char* label;
  bool server_side;
  bool hard;
};

// One kernel per scenario so the per-class stats are isolated.
void RunScenario(const Scenario& sc, double* remedy_us, double* rollback_us, uint64_t* count) {
  KernelConfig cfg = PaperConfig(0);  // Process NP, as in the paper
  Kernel k(cfg);

  // Client: one-level managed space. Server: two-level (its memory imports
  // through an intermediate space).
  ManagedSetup client = BuildManagedSpace(k, 1 << 20, "cl");
  ManagedSetup server = BuildManagedSpace(k, 1 << 20, "sv-mid");
  // Splice an intermediate level into the server side: a fresh space whose
  // [0, 1M) imports the mid space's [0, 1M).
  auto server_space = k.CreateSpace("sv");
  auto mid_region = k.NewRegion(server.child_space, 0, 1 << 20, kProtReadWrite);
  k.NewMapping(server_space, 0, mid_region, 0, 1 << 20, kProtReadWrite);
  server_space->keeper = server.keeper_port;
  k.StartThread(client.manager_thread);
  k.StartThread(server.manager_thread);

  auto port = k.NewPort(3);
  const Handle sport = k.Install(server_space, port);
  const Handle cref = k.Install(client.child_space, k.NewReference(port));

  constexpr uint32_t kBuf = 0x4000;       // page-aligned transfer buffers
  constexpr uint32_t kWords = 2048;       // two pages
  constexpr uint32_t kReplyBuf = 0x1000;  // preprovided below

  // Pre-provide everything except the pages under test.
  auto provide_child_page = [&](ManagedSetup& m, uint32_t addr) {
    FrameId f = m.manager_space->FindPte(kPagerBackingBase + addr) != nullptr
                    ? m.manager_space->FindPte(kPagerBackingBase + addr)->frame
                    : m.manager_space->ProvidePage(kPagerBackingBase + addr);
    (void)f;
  };
  // Reply buffer and request page on both sides, plus the mid level's PTEs
  // so only the intended class of fault occurs.
  for (uint32_t a = 0; a < 2 * kPageSize; a += kPageSize) {
    provide_child_page(client, kReplyBuf + a);
    provide_child_page(server, kReplyBuf + a);
  }
  // Warm the non-tested side's transfer buffer all the way down to PTEs.
  if (sc.server_side) {
    for (uint32_t a = 0; a < kWords * 4; a += kPageSize) {
      FrameId f = client.child_space->ProvidePage(kBuf + a);
      (void)f;
    }
  } else {
    for (uint32_t a = 0; a < kWords * 4; a += kPageSize) {
      // Provide at the server's BOTTOM level and install PTEs in the server
      // space so the receive side never faults.
      provide_child_page(server, kBuf + a);
      SoftFaultResult r = server_space->TryResolveSoft(kBuf + a, /*want_write=*/true);
      (void)r;
    }
  }
  // The tested side: soft = pages present one level up (manager backing for
  // the client; mid/manager for the server), absent locally; hard = absent
  // everywhere (the manager provides them on demand).
  if (!sc.hard) {
    if (sc.server_side) {
      for (uint32_t a = 0; a < kWords * 4; a += kPageSize) {
        provide_child_page(server, kBuf + a);  // present two levels up
      }
    } else {
      for (uint32_t a = 0; a < kWords * 4; a += kPageSize) {
        provide_child_page(client, kBuf + a);
      }
    }
  }

  // Client: connect_send_over_receive(buf, 2 pages; reply 1 word).
  Assembler ca("t3-client");
  EmitSys(ca, kSysIpcClientConnectSendOverReceive, cref, kBuf, kWords, kReplyBuf, 1);
  EmitCheckOk(ca);
  ca.Halt();
  client.child_space->program = ca.Build();
  // Server: wait_receive into buf, then ack_send 1 word.
  Assembler sa("t3-server");
  EmitSys(sa, kSysIpcWaitReceive, sport, 0, 0, kBuf, kWords);
  EmitCheckOk(sa);
  EmitSys(sa, kSysIpcServerAckSend, 0, kReplyBuf, 1, 0, 0);
  EmitCheckOk(sa);
  sa.Halt();
  server_space->program = sa.Build();

  Thread* st = k.CreateThread(server_space);
  Thread* ct = k.CreateThread(client.child_space);
  k.StartThread(st);
  k.StartThread(ct);
  if (!k.RunUntilThreadDone(ct, 10ull * 1000 * kNsPerMs) ||
      !k.RunUntilThreadDone(st, 1000 * kNsPerMs)) {
    std::fprintf(stderr, "FATAL: scenario '%s' did not complete\n", sc.label);
    *remedy_us = *rollback_us = -1;
    *count = 0;
    return;
  }

  const int side = sc.server_side ? kFaultSideServer : kFaultSideClient;
  const int kind = sc.hard ? kFaultKindHard : kFaultKindSoft;
  const FaultClassStats& fc = k.stats.ipc_faults[side][kind];
  *count = fc.count;
  *remedy_us = fc.count == 0 ? 0 : static_cast<double>(fc.remedy_ns) / fc.count / kNsPerUs;
  *rollback_us = fc.count == 0 ? 0 : static_cast<double>(fc.rollback_ns) / fc.count / kNsPerUs;
}

int Main() {
  const Scenario scenarios[] = {
      {"Client-side soft page fault", false, false},
      {"Client-side hard page fault", false, true},
      {"Server-side soft page fault", true, false},
      {"Server-side hard page fault", true, true},
  };
  const double paper_remedy[] = {18.9, 118, 29.3, 135};
  const char* paper_rollback[] = {"none", "2.2", "2.5", "6.8"};

  std::printf("Table 3: restart costs (us) for kernel-internal exceptions during a\n"
              "reliable IPC transfer (ipc_client_connect_send_over_receive),\n"
              "process model, no kernel preemption\n\n");
  std::printf("  %-30s %10s %12s %7s %22s\n", "Actual Cause of Exception", "Remedy",
              "Rollback", "faults", "(paper remedy/rollbk)");
  for (int i = 0; i < 4; ++i) {
    double remedy = 0, rollback = 0;
    uint64_t count = 0;
    RunScenario(scenarios[i], &remedy, &rollback, &count);
    std::printf("  %-30s %10.1f %12.2f %7llu %14.1f / %-5s\n", scenarios[i].label, remedy,
                rollback, static_cast<unsigned long long>(count), paper_remedy[i],
                paper_rollback[i]);
  }
  return 0;
}

}  // namespace
}  // namespace fluke

int main() { return fluke::Main(); }
