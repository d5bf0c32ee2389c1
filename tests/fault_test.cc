// Memory-hierarchy and fault-path tests: soft faults resolved from ancestor
// spaces, hard faults served by a user-mode manager (exception IPC), and
// faults during IPC transfers attributed by side and kind (Table 3's
// mechanics).

#include "src/workloads/pager.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class FaultTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(FaultTest, HardFaultServedByManager) {
  Kernel k(GetParam());
  ManagedSetup m = BuildManagedSpace(k, /*window_bytes=*/1 << 20, "t");
  k.StartThread(m.manager_thread);

  // Child touches 3 fresh pages (write) and reads them back.
  Assembler a("child");
  for (int i = 0; i < 3; ++i) {
    const uint32_t addr = 0x1000 * (i + 1);
    a.MovImm(kRegB, 0x50 + i);
    a.MovImm(kRegC, addr);
    a.StoreB(kRegB, kRegC, 0);
  }
  for (int i = 0; i < 3; ++i) {
    const uint32_t addr = 0x1000 * (i + 1);
    a.MovImm(kRegC, addr);
    a.LoadB(kRegB, kRegC, 0);
    a.MovImm(kRegC, 0x100);  // page 0: first touch already provided it?
    (void)0;
  }
  a.Halt();
  m.child_space->program = a.Build();
  Thread* child = k.CreateThread(m.child_space);
  k.StartThread(child);

  ASSERT_TRUE(k.RunUntilThreadDone(child, 10ull * 1000 * kNsPerMs));
  EXPECT_EQ(child->run_state, ThreadRun::kDead);
  EXPECT_EQ(k.stats.hard_faults, 3u);
  EXPECT_GE(k.stats.soft_faults, 3u);  // retry-installs + manager zero-fills

  // The data must be visible in the child (via its PTEs) and in the
  // manager's backing window.
  for (int i = 0; i < 3; ++i) {
    const uint32_t addr = 0x1000 * (i + 1);
    uint8_t child_v = 0, mgr_v = 0;
    ASSERT_TRUE(m.child_space->HostRead(addr, &child_v, 1));
    ASSERT_TRUE(m.manager_space->HostRead(kPagerBackingBase + addr, &mgr_v, 1));
    EXPECT_EQ(child_v, 0x50 + i);
    EXPECT_EQ(mgr_v, 0x50 + i);  // same frame, shared through the hierarchy
  }
}

TEST_P(FaultTest, PreProvidedPagesFaultSoftOnly) {
  Kernel k(GetParam());
  ManagedSetup m = BuildManagedSpace(k, 1 << 20, "t");
  k.StartThread(m.manager_thread);
  // Pre-provide the backing page host-side: the child's fault should
  // resolve softly without involving the manager.
  ASSERT_NE(m.manager_space->ProvidePage(kPagerBackingBase + 0x3000), kInvalidFrame);

  Assembler a("child");
  a.MovImm(kRegC, 0x3000);
  a.LoadB(kRegB, kRegC, 0);
  a.Halt();
  m.child_space->program = a.Build();
  Thread* child = k.CreateThread(m.child_space);
  k.StartThread(child);
  k.Run(k.clock.now() + 100 * kNsPerMs);
  EXPECT_EQ(child->run_state, ThreadRun::kDead);
  EXPECT_EQ(k.stats.hard_faults, 0u);
  EXPECT_EQ(k.stats.soft_faults, 1u);
}

TEST_P(FaultTest, TwoLevelHierarchyResolves) {
  // grandchild -> child -> manager: a page present only at the manager
  // resolves through two mapping levels.
  Kernel k(GetParam());
  ManagedSetup m = BuildManagedSpace(k, 1 << 20, "t");
  auto grandchild = k.CreateSpace("grandchild");
  auto region2 = k.NewRegion(m.child_space, 0, 1 << 20, kProtReadWrite);
  k.NewMapping(grandchild, 0, region2, 0, 1 << 20, kProtReadWrite);

  // Provide the page at the manager level only.
  ASSERT_NE(m.manager_space->ProvidePage(kPagerBackingBase + 0x5000), kInvalidFrame);
  uint8_t v = 0x7E;
  ASSERT_TRUE(m.manager_space->HostWrite(kPagerBackingBase + 0x5000, &v, 1));

  Assembler a("gc");
  a.MovImm(kRegC, 0x5000);
  a.LoadB(kRegB, kRegC, 0);
  a.MovImm(kRegC, 0x5004);
  a.StoreB(kRegB, kRegC, 0);  // same page, already installed
  a.Halt();
  grandchild->program = a.Build();
  Thread* t = k.CreateThread(grandchild);
  k.StartThread(t);
  k.Run(k.clock.now() + 100 * kNsPerMs);
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  EXPECT_EQ(k.stats.hard_faults, 0u);
  EXPECT_GE(k.stats.soft_faults, 1u);
  uint8_t back = 0;
  ASSERT_TRUE(m.manager_space->HostRead(kPagerBackingBase + 0x5004, &back, 1));
  EXPECT_EQ(back, 0x7E);
}

TEST_P(FaultTest, ProtectionRespectedThroughHierarchy) {
  // A read-only mapping forbids writes even when the backing page exists.
  Kernel k(GetParam());
  auto parent = k.CreateSpace("parent");
  auto child = k.CreateSpace("child");
  auto region = k.NewRegion(parent, 0x8000, kPageSize, kProtReadWrite);
  k.NewMapping(child, 0x8000, region, 0, kPageSize, kProtRead);  // RO import
  ASSERT_NE(parent->ProvidePage(0x8000), kInvalidFrame);

  Assembler a("child");
  a.MovImm(kRegC, 0x8000);
  a.LoadB(kRegB, kRegC, 0);   // ok (read)
  a.StoreB(kRegB, kRegC, 0);  // write: unservable -> thread killed
  a.Halt();
  child->program = a.Build();
  Thread* t = k.CreateThread(child);
  k.StartThread(t);
  k.Run(k.clock.now() + 100 * kNsPerMs);
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  EXPECT_EQ(t->exit_code, 0xFA07u);  // killed by unhandled fault
}

TEST_P(FaultTest, MemtestMiniUnderManager) {
  // A scaled-down memtest: sequential byte walk over 64 KiB under the
  // demand manager: 16 hard faults (one per page), data all zero.
  Kernel k(GetParam());
  ManagedSetup m = BuildManagedSpace(k, 1 << 20, "t");
  k.StartThread(m.manager_thread);

  Assembler a("memtest");
  const uint32_t kLen = 64 * 1024;
  // sum = OR of all bytes; store at the first byte's page after the walk.
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.MovImm(kRegB, 0);     // addr
  a.MovImm(kRegD, 0);     // accumulator
  a.MovImm(kRegBP, kLen);
  a.Bind(loop);
  a.Bge(kRegB, kRegBP, done);
  a.LoadB(kRegC, kRegB, 0);
  a.Or(kRegD, kRegD, kRegC);
  a.AddImm(kRegB, kRegB, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.MovImm(kRegC, 0);
  a.StoreW(kRegD, kRegC, 0);  // store accumulator at address 0
  a.Halt();
  m.child_space->program = a.Build();
  Thread* child = k.CreateThread(m.child_space);
  k.StartThread(child);
  ASSERT_TRUE(k.RunUntilThreadDone(child, 20ull * 1000 * kNsPerMs));
  EXPECT_EQ(child->run_state, ThreadRun::kDead);
  EXPECT_EQ(k.stats.hard_faults, 16u);
  uint32_t acc = 0xFF;
  ASSERT_TRUE(m.child_space->HostRead(0, &acc, 4));
  EXPECT_EQ(acc, 0u);  // demand-zero memory
}

// --- Faults during IPC transfers (Table 3 mechanics) ---

struct IpcFaultWorld {
  explicit IpcFaultWorld(const KernelConfig& cfg)
      : kernel(cfg),
        client(BuildManagedSpace(kernel, 1 << 20, "cl")),
        server(BuildManagedSpace(kernel, 1 << 20, "sv")) {
    kernel.StartThread(client.manager_thread);
    kernel.StartThread(server.manager_thread);
    port = kernel.NewPort(3);
    server_port_h = kernel.Install(server.child_space, port);
    client_ref_h = kernel.Install(client.child_space, kernel.NewReference(port));
  }
  Kernel kernel;
  ManagedSetup client;
  ManagedSetup server;
  Port* port = nullptr;
  Handle server_port_h = 0;
  Handle client_ref_h = 0;
};

TEST_P(FaultTest, IpcFaultsAttributedBySide) {
  IpcFaultWorld w(GetParam());
  const uint32_t kWords = 2 * kPageSize / 4;  // two pages each side

  // Client sends from unprovided pages -> client-side hard faults on read.
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, 0x0000, kWords, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  // Server receives into unprovided pages -> server-side hard faults on
  // write.
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, 0x0000, kWords);
  EmitCheckOk(sa);
  sa.Halt();
  w.server.child_space->program = sa.Build();
  w.client.child_space->program = ca.Build();
  Thread* st = w.kernel.CreateThread(w.server.child_space);
  Thread* ct = w.kernel.CreateThread(w.client.child_space);
  w.kernel.StartThread(st);
  w.kernel.StartThread(ct);
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(ct, 30ull * 1000 * kNsPerMs));
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(st, 30ull * 1000 * kNsPerMs));

  const auto& f = w.kernel.stats.ipc_faults;
  EXPECT_EQ(f[kFaultSideClient][kFaultKindHard].count, 2u);
  EXPECT_EQ(f[kFaultSideServer][kFaultKindHard].count, 2u);
  // After each hard remedy the retried chunk faults softly (PTE install).
  EXPECT_EQ(f[kFaultSideClient][kFaultKindSoft].count, 2u);
  EXPECT_EQ(f[kFaultSideServer][kFaultKindSoft].count, 2u);
  // Remedy costs are nonzero and hard >> soft.
  EXPECT_GT(f[kFaultSideClient][kFaultKindHard].remedy_ns,
            f[kFaultSideClient][kFaultKindSoft].remedy_ns);
}

TEST_P(FaultTest, IpcTransferSurvivesFaultsWithIntegrity) {
  IpcFaultWorld w(GetParam());
  const uint32_t kBytes = 6 * kPageSize;
  const uint32_t kWords = kBytes / 4;

  // Fill the client's backing store host-side (pages present in the
  // manager, absent in the child: client-side SOFT faults during send).
  {
    std::vector<uint32_t> pat(kWords);
    for (uint32_t i = 0; i < kWords; ++i) {
      pat[i] = i ^ 0xC0FFEE;
    }
    ASSERT_TRUE(
        w.client.manager_space->HostWrite(kPagerBackingBase, pat.data(), kBytes));
  }
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, 0x0000, kWords, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, 0x0000, kWords);
  EmitCheckOk(sa);
  sa.Halt();
  w.server.child_space->program = sa.Build();
  w.client.child_space->program = ca.Build();
  Thread* st2 = w.kernel.CreateThread(w.server.child_space);
  Thread* ct2 = w.kernel.CreateThread(w.client.child_space);
  w.kernel.StartThread(st2);
  w.kernel.StartThread(ct2);
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(ct2, 60ull * 1000 * kNsPerMs));
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(st2, 60ull * 1000 * kNsPerMs));

  // Integrity end to end despite mixed soft (client) + hard (server) faults.
  std::vector<uint32_t> got(kWords);
  ASSERT_TRUE(w.server.child_space->HostRead(0, got.data(), kBytes));
  for (uint32_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(got[i], i ^ 0xC0FFEE) << "word " << i;
  }
  const auto& f = w.kernel.stats.ipc_faults;
  EXPECT_EQ(f[kFaultSideClient][kFaultKindSoft].count, 6u);
  EXPECT_EQ(f[kFaultSideServer][kFaultKindHard].count, 6u);
  // Rollback happened (work was redone) but far less than remedy cost.
  EXPECT_GT(w.kernel.stats.rollback_ns, 0u);
}

TEST_P(FaultTest, RegionSearchFindsRegion) {
  SimpleWorld w(GetParam());
  auto region = w.kernel.NewRegion(w.space, 0x200000, 0x4000, kProtReadWrite);
  Assembler a("search");
  // Search a range that covers the region.
  EmitSys(a, kSysRegionSearch, 0x1F0000, 0x20000);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  a.StoreW(kRegB, kRegC, 4);
  // And a range that misses it. Note region_search advances its B/C
  // parameter registers as it scans (multi-stage commit), so C must be
  // re-materialized for the store below.
  EmitSys(a, kSysRegionSearch, 0x300000, 0x8000);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 8);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t out[3] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, out, 12));
  EXPECT_EQ(out[0], kFlukeOk);
  EXPECT_EQ(out[1], static_cast<uint32_t>(region->id()));
  EXPECT_EQ(out[2], kFlukeErrNotFound);
}

TEST_P(FaultTest, UserModeMappingCreate) {
  // A thread builds its own region/mapping alias: writes through one range
  // appear in the other.
  SimpleWorld w(GetParam());
  Assembler a("alias");
  const uint32_t src = SimpleWorld::kAnonBase;          // anon page
  const uint32_t alias = 0x900000;                      // outside anon
  // Touch the source page so it exists.
  a.MovImm(kRegB, 0x42);
  a.MovImm(kRegC, src);
  a.StoreB(kRegB, kRegC, 0);
  // region_create(C=base, D=size, SI=prot) -> B=handle
  EmitSys(a, kSysRegionCreate, 0, src, kPageSize, kProtReadWrite);
  EmitCheckOk(a);
  a.Mov(kRegSI, kRegB);  // region handle
  // space_self -> B
  EmitSys(a, kSysSpaceSelf);
  // mapping_create(B=space, C=dst base, D=size, SI=region, DI=(off<<2)|prot)
  a.MovImm(kRegC, alias);
  a.MovImm(kRegD, kPageSize);
  a.MovImm(kRegDI, kProtReadWrite);
  a.MovImm(kRegA, kSysMappingCreate);
  a.Syscall();
  EmitCheckOk(a);
  // Read through the alias.
  a.MovImm(kRegC, alias);
  a.LoadB(kRegB, kRegC, 0);
  a.MovImm(kRegC, src);
  a.StoreB(kRegB, kRegC, 8);  // copy observed value next to the original
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint8_t v = 0;
  ASSERT_TRUE(w.space->HostRead(src + 8, &v, 1));
  EXPECT_EQ(v, 0x42);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FaultTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
