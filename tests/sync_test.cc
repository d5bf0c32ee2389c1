// Mutex and condition-variable tests, including the paper's flagship
// cond_wait semantics: the thread's registers are committed to mutex_lock
// before it sleeps, so its exported state while blocked names the restart
// entrypoint (section 4.3).

#include "tests/test_util.h"

namespace fluke {
namespace {

class SyncTest : public testing::TestWithParam<KernelConfig> {};

// Installs a kernel-created mutex into the world's space; returns handle.
Handle MakeMutex(SimpleWorld& w) { return w.kernel.Install(w.space, w.kernel.NewMutex()); }
Handle MakeCond(SimpleWorld& w) { return w.kernel.Install(w.space, w.kernel.NewCond()); }

TEST_P(SyncTest, LockUnlockUncontended) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  Assembler a("lock");
  EmitSys(a, kSysMutexLock, m);
  EmitCheckOk(a);
  EmitSys(a, kSysMutexUnlock, m);
  EmitCheckOk(a);
  EmitPuts(a, "ok");
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "ok");
}

TEST_P(SyncTest, TrylockFailsWhenHeld) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  Assembler a("trylock");
  EmitSys(a, kSysMutexLock, m);
  EmitCheckOk(a);
  EmitSys(a, kSysMutexTrylock, m);
  // Expect WOULD_BLOCK.
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  EmitSys(a, kSysMutexUnlock, m);
  EmitSys(a, kSysMutexTrylock, m);  // now succeeds
  a.StoreW(kRegA, kRegC, 4);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t res[2] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, res, 8));
  EXPECT_EQ(res[0], kFlukeErrWouldBlock);
  EXPECT_EQ(res[1], kFlukeOk);
}

TEST_P(SyncTest, UnlockNotLockedIsError) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  Assembler a("badunlock");
  EmitSys(a, kSysMutexUnlock, m);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &err, 4));
  EXPECT_EQ(err, kFlukeErrBadArgument);
}

TEST_P(SyncTest, BadHandleErrors) {
  SimpleWorld w(GetParam());
  Assembler a("badh");
  EmitSys(a, kSysMutexLock, 9999);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  // Wrong type: cond ops on a mutex handle.
  const Handle m = MakeMutex(w);
  EmitSys(a, kSysCondSignal, m);
  a.StoreW(kRegA, kRegC, 4);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t errs[2] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, errs, 8));
  EXPECT_EQ(errs[0], kFlukeErrBadHandle);
  EXPECT_EQ(errs[1], kFlukeErrBadHandle);
}

// Builds a worker that increments a shared counter N times under the mutex,
// with a compute section inside the critical section to invite interleaving.
ProgramRef CounterWorker(const std::string& name, Handle m, uint32_t counter_addr, uint32_t n) {
  Assembler a(name);
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.MovImm(kRegDI, 0);  // iteration count
  a.Bind(loop);
  a.MovImm(kRegSP, n);
  a.Beq(kRegDI, kRegSP, done);
  EmitSys(a, kSysMutexLock, m);
  EmitCheckOk(a);
  a.MovImm(kRegC, counter_addr);
  a.LoadW(kRegB, kRegC, 0);  // read
  a.Compute(800);            // hold the lock across a preemptible window
  a.AddImm(kRegB, kRegB, 1);
  a.StoreW(kRegB, kRegC, 0);  // write back
  EmitSys(a, kSysMutexUnlock, m);
  EmitCheckOk(a);
  a.AddImm(kRegDI, kRegDI, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.Halt();
  return a.Build();
}

TEST_P(SyncTest, ContendedCounterIsExact) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  const uint32_t counter = SimpleWorld::kAnonBase;
  const uint32_t kIters = 4000;  // ~18 ms per worker: spans timeslices
  w.Spawn(CounterWorker("w1", m, counter, kIters));
  w.Spawn(CounterWorker("w2", m, counter, kIters));
  w.Spawn(CounterWorker("w3", m, counter, kIters));
  w.RunAll();
  uint32_t v = 0;
  ASSERT_TRUE(w.space->HostRead(counter, &v, 4));
  EXPECT_EQ(v, 3 * kIters);
  // Contention really happened: timeslice rotation forced lock handoffs.
  EXPECT_GT(w.kernel.stats.context_switches, 5u);
}

TEST_P(SyncTest, CondWaitSignalHandshake) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  const Handle c = MakeCond(w);
  const uint32_t flag = SimpleWorld::kAnonBase;

  // Waiter: lock; while (flag == 0) cond_wait; unlock; print "W".
  Assembler wa("waiter");
  {
    const auto check = wa.NewLabel();
    const auto proceed = wa.NewLabel();
    EmitSys(wa, kSysMutexLock, m);
    EmitCheckOk(wa);
    wa.Bind(check);
    wa.MovImm(kRegC, flag);
    wa.LoadW(kRegB, kRegC, 0);
    wa.MovImm(kRegSP, 0);
    wa.Bne(kRegB, kRegSP, proceed);
    EmitSys(wa, kSysCondWait, c, m);
    EmitCheckOk(wa);
    wa.Jmp(check);
    wa.Bind(proceed);
    EmitSys(wa, kSysMutexUnlock, m);
    EmitPuts(wa, "W");
    wa.Halt();
  }
  // Signaler: compute a while; lock; flag=1; signal; unlock; print "S".
  Assembler sa("signaler");
  {
    EmitCompute(sa, 400000);  // 2 ms: let the waiter block first
    EmitSys(sa, kSysMutexLock, m);
    EmitCheckOk(sa);
    sa.MovImm(kRegB, 1);
    sa.MovImm(kRegC, flag);
    sa.StoreW(kRegB, kRegC, 0);
    EmitSys(sa, kSysCondSignal, c);
    EmitCheckOk(sa);
    EmitSys(sa, kSysMutexUnlock, m);
    EmitPuts(sa, "S");
    sa.Halt();
  }
  w.Spawn(wa.Build());
  w.Spawn(sa.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "SW");
}

TEST_P(SyncTest, CondWaitCommitsRegistersToMutexLock) {
  // THE atomic-API property from section 4.3: a thread blocked in cond_wait
  // has its user registers rewritten in place to name mutex_lock, so its
  // exported state is complete and restartable.
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  const Handle c = MakeCond(w);

  Assembler wa("waiter");
  EmitSys(wa, kSysMutexLock, m);
  EmitSys(wa, kSysCondWait, c, m);
  EmitPuts(wa, "done");
  wa.Halt();
  Thread* t = w.Spawn(wa.Build());

  // Run until the waiter is blocked on the condition variable.
  w.kernel.Run(w.kernel.clock.now() + 50 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);

  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  EXPECT_EQ(st.regs.gpr[kRegA], static_cast<uint32_t>(kSysMutexLock));
  EXPECT_EQ(st.regs.gpr[kRegB], m);

  // Broadcast releases it; it must reacquire and finish.
  Assembler sa("sig");
  EmitSys(sa, kSysCondBroadcast, c);
  sa.Halt();
  w.Spawn(sa.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "done");
}

TEST_P(SyncTest, BroadcastWakesAllWaiters) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  const Handle c = MakeCond(w);
  const uint32_t flag = SimpleWorld::kAnonBase;

  auto waiter = [&](const std::string& name) {
    Assembler a(name);
    const auto check = a.NewLabel();
    const auto proceed = a.NewLabel();
    EmitSys(a, kSysMutexLock, m);
    a.Bind(check);
    a.MovImm(kRegC, flag);
    a.LoadW(kRegB, kRegC, 0);
    a.MovImm(kRegSP, 0);
    a.Bne(kRegB, kRegSP, proceed);
    EmitSys(a, kSysCondWait, c, m);
    a.Jmp(check);
    a.Bind(proceed);
    EmitSys(a, kSysMutexUnlock, m);
    EmitPuts(a, "w");
    a.Halt();
    return a.Build();
  };
  w.Spawn(waiter("w1"));
  w.Spawn(waiter("w2"));
  w.Spawn(waiter("w3"));

  Assembler sa("caster");
  EmitCompute(sa, 600000);
  EmitSys(sa, kSysMutexLock, m);
  sa.MovImm(kRegB, 1);
  sa.MovImm(kRegC, flag);
  sa.StoreW(kRegB, kRegC, 0);
  EmitSys(sa, kSysCondBroadcast, c);
  EmitSys(sa, kSysMutexUnlock, m);
  sa.Halt();
  w.Spawn(sa.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "www");
}

TEST_P(SyncTest, SpuriousWakeupViaCondDestroyIsSurvivable) {
  // Destroying a cond while threads wait sends them to the committed
  // restart point (mutex_lock) -- a legal spurious wakeup; the predicate
  // loop re-waits... on a dead cond it gets BAD_HANDLE and exits.
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  auto cond = w.kernel.NewCond();
  const Handle c = w.kernel.Install(w.space, cond);

  Assembler wa("waiter");
  EmitSys(wa, kSysMutexLock, m);
  EmitSys(wa, kSysCondWait, c, m);
  // Spuriously woken (cond destroyed): the committed restart point is
  // mutex_lock, so the thread reacquires the mutex and cond_wait "returns".
  EmitPuts(wa, "x");
  wa.Halt();
  Thread* t = w.Spawn(wa.Build());

  w.kernel.Run(w.kernel.clock.now() + 20 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  w.kernel.DestroyObject(cond);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "x");
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
}

TEST_P(SyncTest, MutexLockInterruptedReturnsError) {
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  const Handle m = w.kernel.Install(w.space, mutex);
  mutex->locked = true;  // pre-locked by "someone"

  Assembler a("locker");
  EmitSys(a, kSysMutexLock, m);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 10 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);

  w.kernel.InterruptThread(t);
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &err, 4));
  EXPECT_EQ(err, kFlukeErrInterrupted);
}

TEST_P(SyncTest, MutexStateExportAndRestore) {
  SimpleWorld w(GetParam());
  const Handle m = MakeMutex(w);
  const uint32_t buf = SimpleWorld::kAnonBase;

  Assembler a("st");
  EmitSys(a, kSysMutexLock, m);
  EmitCheckOk(a);
  EmitSys(a, kSysMutexGetState, m, buf, 4);
  EmitCheckOk(a);
  // Unlock via set_state (locked=0, owner=0).
  a.MovImm(kRegB, 0);
  a.MovImm(kRegC, buf + 16);
  a.StoreW(kRegB, kRegC, 0);
  a.StoreW(kRegB, kRegC, 4);
  a.StoreW(kRegB, kRegC, 8);
  EmitSys(a, kSysMutexSetState, m, buf + 16, 3);
  EmitCheckOk(a);
  EmitSys(a, kSysMutexTrylock, m);  // must succeed now
  a.MovImm(kRegC, buf + 32);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t state[3] = {};
  ASSERT_TRUE(w.space->HostRead(buf, state, 12));
  EXPECT_EQ(state[0], 1u);  // was locked at get_state
  uint32_t res = 0;
  ASSERT_TRUE(w.space->HostRead(buf + 32, &res, 4));
  EXPECT_EQ(res, kFlukeOk);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SyncTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
