// Thread-state export tests: the atomic API's promptness and correctness
// properties (paper section 4.1-4.2), including property tests that stop,
// extract, restore and resume threads at arbitrary points and a full
// checkpoint/restore (migration) equivalence test.

#include <string>

#include "src/workloads/checkpoint.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class StateTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(StateTest, GetStateOfRunnableThreadIsPrompt) {
  SimpleWorld w(GetParam());
  Assembler a("t");
  EmitCompute(a, 1 << 24);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  // Never run: embryo->runnable state is fully defined.
  ThreadState st;
  EXPECT_TRUE(w.kernel.GetThreadState(t, &st));
  EXPECT_EQ(st.regs.pc, 0u);
}

TEST_P(StateTest, SetStateRedirectsExecution) {
  SimpleWorld w(GetParam());
  Assembler a("t");
  EmitPuts(a, "A");
  a.Halt();
  const uint32_t b_start = a.Here();
  EmitPuts(a, "B");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  st.regs.pc = b_start;
  ASSERT_TRUE(w.kernel.SetThreadState(t, st));
  w.kernel.ResumeThread(t);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "B");
}

TEST_P(StateTest, SetStateChangesPriority) {
  SimpleWorld w(GetParam());
  Assembler a("t");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  st.priority = 6;
  ASSERT_TRUE(w.kernel.SetThreadState(t, st));
  EXPECT_EQ(t->priority, 6);
  st.priority = 99;  // out of range
  EXPECT_FALSE(w.kernel.SetThreadState(t, st));
}

TEST_P(StateTest, BlockedThreadStateIsCommitted) {
  // A thread blocked in a long call exports exactly the restart point.
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler a("t");
  EmitSys(a, kSysMutexLock, m);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 10 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  EXPECT_EQ(st.regs.gpr[kRegA], static_cast<uint32_t>(kSysMutexLock));
  EXPECT_EQ(st.regs.gpr[kRegB], m);
  // Extraction must not have disturbed the thread.
  EXPECT_EQ(t->run_state, ThreadRun::kBlocked);
  // Unlock lets it finish normally.
  mutex->locked = false;
  w.kernel.WakeOne(&mutex->waiters);
  w.RunAll();
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
}

TEST_P(StateTest, DestroyRecreateBlockedThreadIsTransparent) {
  // The paper's correctness definition, literally: extract a blocked
  // thread's state, destroy it, create a new thread, set the state, resume:
  // the new thread behaves indistinguishably (re-blocks on the same mutex,
  // then completes when unlocked).
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler a("t");
  EmitSys(a, kSysMutexLock, m);
  EmitCheckOk(a);
  EmitPuts(a, "done");
  a.Halt();
  auto prog = a.Build();
  Thread* t = w.Spawn(prog);
  w.kernel.Run(w.kernel.clock.now() + 10 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);

  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  w.kernel.DestroyThread(t);
  EXPECT_TRUE(mutex->waiters.empty());  // rollback removed it from the queue

  Thread* t2 = w.kernel.CreateThread(w.space, prog);
  ASSERT_TRUE(w.kernel.SetThreadState(t2, st));
  w.kernel.ResumeThread(t2);
  w.kernel.Run(w.kernel.clock.now() + 10 * kNsPerMs);
  ASSERT_EQ(t2->run_state, ThreadRun::kBlocked);  // re-blocked on the mutex

  mutex->locked = false;
  w.kernel.WakeOne(&mutex->waiters);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "done");
}

// --- Property: stop/extract/restore/resume at arbitrary points never
// --- perturbs a single-threaded program's output.

ProgramRef RichSingleThread(Handle m, uint32_t n) {
  Assembler a("rich");
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.MovImm(kRegDI, 0);
  a.Bind(loop);
  a.MovImm(kRegSP, n);
  a.Bge(kRegDI, kRegSP, done);
  // A mix of trivial, short, long(uncontended) and memory work.
  EmitSys(a, kSysNull);
  EmitSys(a, kSysMutexLock, m);
  a.Compute(300);
  EmitSys(a, kSysMutexUnlock, m);
  // print digit i%10
  a.MovImm(kRegSP, 10);
  a.MovImm(kRegC, 0);  // poor man's mod: DI - (DI/10)*10 via shift-free loop
  a.Mov(kRegB, kRegDI);
  {
    const auto modloop = a.NewLabel();
    const auto modout = a.NewLabel();
    a.Bind(modloop);
    a.Blt(kRegB, kRegSP, modout);
    a.Sub(kRegB, kRegB, kRegSP);
    a.Jmp(modloop);
    a.Bind(modout);
  }
  a.AddImm(kRegB, kRegB, '0');
  a.MovImm(kRegA, kSysConsolePutc);
  a.Syscall();
  // store/load in anon memory
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 0x100);
  a.StoreW(kRegDI, kRegC, 0);
  a.LoadW(kRegBP, kRegC, 0);
  a.AddImm(kRegDI, kRegDI, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.Halt();
  return a.Build();
}

TEST_P(StateTest, RandomStopRestoreResumeIsTransparent) {
  const uint32_t kIters = 150;

  // Baseline: undisturbed run.
  std::string baseline;
  {
    SimpleWorld w(GetParam());
    const Handle m = w.kernel.Install(w.space, w.kernel.NewMutex());
    w.Spawn(RichSingleThread(m, kIters));
    w.RunAll();
    baseline = w.kernel.console.output();
  }
  ASSERT_EQ(baseline.size(), kIters);

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    SimpleWorld w(GetParam());
    const Handle m = w.kernel.Install(w.space, w.kernel.NewMutex());
    Thread* t = w.Spawn(RichSingleThread(m, kIters));
    Rng rng(seed);
    int disturbances = 0;
    while (t->run_state != ThreadRun::kDead && disturbances < 200) {
      // Run a random sliver of virtual time, then stop/extract/restore.
      w.kernel.Run(w.kernel.clock.now() + rng.Range(5, 40) * kNsPerUs);
      if (t->run_state == ThreadRun::kDead) {
        break;
      }
      w.kernel.StopThread(t);
      ThreadState st;
      ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
      ASSERT_TRUE(w.kernel.SetThreadState(t, st));
      w.kernel.ResumeThread(t);
      ++disturbances;
    }
    w.RunAll();
    EXPECT_EQ(w.kernel.console.output(), baseline) << "seed " << seed;
    EXPECT_GT(disturbances, 5);
  }
}

// --- Property: checkpoint at an arbitrary moment, restore into a FRESH
// --- kernel (migration), combined output is exactly the undisturbed one.

struct CkptWorkload {
  // Thread A: lock; print "1"; long compute; print "2"; unlock; print "3".
  // Thread B: lock (blocks while A holds); print "4"; unlock.
  // Deterministic total output: "1234".
  ProgramRegistry registry;
  Handle mutex_handle = 0;

  void Build(Kernel& k, Space* space) {
    auto mutex = k.NewMutex();
    mutex_handle = k.Install(space, mutex);

    Assembler aa("ckpt-a");
    EmitSys(aa, kSysMutexLock, mutex_handle);
    EmitCheckOk(aa);
    EmitPuts(aa, "1");
    EmitCompute(aa, 900000);  // ~4.5 ms critical section
    EmitPuts(aa, "2");
    EmitSys(aa, kSysMutexUnlock, mutex_handle);
    EmitPuts(aa, "3");
    aa.Halt();
    Assembler ab("ckpt-b");
    EmitCompute(ab, 100000);  // arrive second
    EmitSys(ab, kSysMutexLock, mutex_handle);
    EmitCheckOk(ab);
    EmitPuts(ab, "4");
    EmitSys(ab, kSysMutexUnlock, mutex_handle);
    ab.Halt();
    registry.Register(aa.Build());
    registry.Register(ab.Build());
    space->program = registry.Find("ckpt-a");
    Thread* ta = k.CreateThread(space, registry.Find("ckpt-a"));
    Thread* tb = k.CreateThread(space, registry.Find("ckpt-b"));
    k.StartThread(ta);
    k.StartThread(tb);
  }
};

TEST_P(StateTest, CheckpointMigrateAtArbitraryTimes) {
  for (uint64_t cut_us : {100u, 1000u, 3000u, 4700u, 6000u, 9000u}) {
    Kernel k1(GetParam());
    auto space = k1.CreateSpace("job");
    space->SetAnonRange(0x10000, 1 << 20);
    CkptWorkload wl;
    wl.Build(k1, space);

    k1.Run(k1.clock.now() + cut_us * kNsPerUs);
    const std::string before = k1.console.output();

    // Checkpoint, kill the original, migrate to a fresh kernel.
    MachineImage img;
    std::string err;
    ASSERT_TRUE(CaptureSpace(k1, *space, &img, &err)) << err;
    DestroySpaceThreads(k1, *space);
    k1.Run(k1.clock.now() + 5 * kNsPerMs);  // original kernel: nothing left
    EXPECT_EQ(k1.console.output(), before);

    Kernel k2(GetParam());
    const MachineRestoreResult r = RestoreMachine(k2, img, wl.registry);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
    const std::string after = k2.console.output();

    EXPECT_EQ(before + after, "1234") << "cut at " << cut_us << "us";
  }
}

TEST_P(StateTest, CheckpointPreservesMemoryExactly) {
  Kernel k1(GetParam());
  auto space = k1.CreateSpace("mem");
  space->SetAnonRange(0x10000, 1 << 20);
  // Program fills 3 pages with a pattern, then halts.
  Assembler a("filler");
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.MovImm(kRegB, 0x10000);
  a.MovImm(kRegBP, 0x10000 + 3 * kPageSize);
  a.Bind(loop);
  a.Bge(kRegB, kRegBP, done);
  a.StoreB(kRegB, kRegB, 0);  // store low byte of the address
  a.AddImm(kRegB, kRegB, 7);
  a.Jmp(loop);
  a.Bind(done);
  a.Halt();
  ProgramRegistry reg;
  reg.Register(a.Build());
  space->program = reg.Find("filler");
  Thread* t = k1.CreateThread(space);
  k1.StartThread(t);
  ASSERT_TRUE(k1.RunUntilQuiescent(10ull * 1000 * kNsPerMs));

  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureSpace(k1, *space, &img, &err)) << err;
  Kernel k2(GetParam());
  const MachineRestoreResult r = RestoreMachine(k2, img, reg, /*start=*/false);
  ASSERT_TRUE(r.ok) << r.error;

  for (uint32_t addr = 0x10000; addr < 0x10000 + 3 * kPageSize; addr += 7) {
    uint8_t v1 = 0, v2 = 0;
    ASSERT_TRUE(space->HostRead(addr, &v1, 1));
    ASSERT_TRUE(r.spaces[0]->HostRead(addr, &v2, 1));
    ASSERT_EQ(v1, v2) << "addr " << addr;
    ASSERT_EQ(v2, static_cast<uint8_t>(addr)) << "addr " << addr;
  }
}

TEST_P(StateTest, InterruptedIpcStateMigrates) {
  // A client blocked mid-multi-stage IPC (waiting for a server that never
  // comes) is checkpointed; the restored thread re-issues the connect from
  // its restart registers in the new kernel and completes there.
  Kernel k1(GetParam());
  auto space = k1.CreateSpace("cli");
  space->SetAnonRange(0x10000, 1 << 20);
  auto port1 = k1.NewPort(5);
  const Handle ref_h = k1.Install(space, k1.NewReference(port1));

  ProgramRegistry reg;
  Assembler ca("migrant");
  EmitSys(ca, kSysIpcClientConnectSend, ref_h, 0x10000, 1, 0, 0);
  EmitCheckOk(ca);
  EmitPuts(ca, "sent");
  ca.Halt();
  reg.Register(ca.Build());
  space->program = reg.Find("migrant");
  Thread* t = k1.CreateThread(space);
  k1.StartThread(t);
  k1.Run(k1.clock.now() + 20 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);  // queued on the port

  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureSpace(k1, *space, &img, &err)) << err;
  DestroySpaceThreads(k1, *space);

  // New kernel: same handle slot must name a Reference to a *served* port.
  Kernel k2(GetParam());
  const MachineRestoreResult r = RestoreMachine(k2, img, reg, /*start=*/false);
  ASSERT_TRUE(r.ok) << r.error;
  auto port2 = k2.NewPort(5);
  // The reference slot was restored naming a new port that nothing serves;
  // point it at the served port (the migration manager's job in real Fluke).
  auto* refobj = r.spaces[0]->LookupAs<Reference>(ref_h, ObjType::kReference);
  ASSERT_NE(refobj, nullptr);
  refobj->target = port2;

  // A server on the new kernel.
  auto sspace = k2.CreateSpace("srv");
  sspace->SetAnonRange(0x10000, 1 << 20);
  const Handle sport_h = k2.Install(sspace, port2);
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, sport_h, 0, 0, 0x10000, 1);
  EmitCheckOk(sa);
  EmitPuts(sa, "got");
  sa.Halt();
  sspace->program = sa.Build();
  k2.StartThread(k2.CreateThread(sspace));

  for (Thread* rt : r.threads) {
    k2.ResumeThread(rt);
  }
  ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  EXPECT_NE(k2.console.output().find("got"), std::string::npos);
  EXPECT_NE(k2.console.output().find("sent"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, StateTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
