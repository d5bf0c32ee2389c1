// Scheduler and preemption tests: priorities, timeslice rotation, kernel
// preemption per configuration, latency-probe plumbing, sleep/join/irq
// waits.

#include "src/workloads/apps.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class SchedTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(SchedTest, TimesliceRotatesEqualPriorities) {
  SimpleWorld w(GetParam());
  // Two CPU hogs at the same priority must interleave across timeslices.
  auto hog = [&](const char* name, char tag) {
    Assembler a(name);
    for (int i = 0; i < 4; ++i) {
      EmitCompute(a, 3000000);  // 15 ms per stage > 10 ms slice
      EmitSys(a, kSysConsolePutc, static_cast<uint32_t>(tag));
    }
    a.Halt();
    return a.Build();
  };
  w.Spawn(hog("h1", 'x'));
  w.Spawn(hog("h2", 'y'));
  w.RunAll();
  const std::string& out = w.kernel.console.output();
  ASSERT_EQ(out.size(), 8u);
  // Interleaving: neither thread's output is a contiguous prefix.
  EXPECT_NE(out.substr(0, 4), "xxxx");
  EXPECT_NE(out.substr(0, 4), "yyyy");
}

TEST_P(SchedTest, HigherPriorityPreemptsUserCode) {
  SimpleWorld w(GetParam());
  // A low-priority hog runs; a high-priority sleeper wakes mid-hog and must
  // print before the hog finishes.
  Assembler hog("hog");
  EmitCompute(hog, 8000000);  // 40 ms
  EmitPuts(hog, "L");
  hog.Halt();
  Assembler hi("hi");
  EmitSys(hi, kSysClockSleep, 5000);  // 5 ms
  EmitPuts(hi, "H");
  hi.Halt();
  w.Spawn(hog.Build(), 3);
  w.Spawn(hi.Build(), 6);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "HL");
}

TEST_P(SchedTest, ClockSleepDurationsRespected) {
  SimpleWorld w(GetParam());
  // Three sleepers with different durations wake in duration order.
  auto sleeper = [&](const char* name, uint32_t us, char tag) {
    Assembler a(name);
    EmitSys(a, kSysClockSleep, us);
    EmitCheckOk(a);
    EmitSys(a, kSysConsolePutc, static_cast<uint32_t>(tag));
    a.Halt();
    return a.Build();
  };
  w.Spawn(sleeper("s3", 30000, '3'));
  w.Spawn(sleeper("s1", 10000, '1'));
  w.Spawn(sleeper("s2", 20000, '2'));
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "123");
}

TEST_P(SchedTest, IrqWaitWakesOnTick) {
  SimpleWorld w(GetParam());
  Assembler a("ticker");
  for (int i = 0; i < 3; ++i) {
    EmitSys(a, kSysIrqWait, kIrqTimer);
    EmitCheckOk(a);
    EmitSys(a, kSysConsolePutc, static_cast<uint32_t>('t'));
  }
  a.Halt();
  Thread* t = w.Spawn(a.Build(), 6);
  w.RunAll(100 * kNsPerMs);
  EXPECT_EQ(w.kernel.console.output(), "ttt");
  // Three ticks = at least 3 ms of virtual time.
  EXPECT_GE(w.kernel.clock.now(), 3 * kNsPerMs);
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
}

TEST_P(SchedTest, ProbePlumbingRecordsLatencies) {
  SimpleWorld w(GetParam());
  Assembler a("probe");
  for (int i = 0; i < 5; ++i) {
    EmitSys(a, kSysIrqWait, kIrqTimer);
  }
  a.Halt();
  Thread* t = w.Spawn(a.Build(), 7);
  w.kernel.SetLatencyProbe(t, true);
  w.RunAll(100 * kNsPerMs);
  EXPECT_EQ(w.kernel.stats.probe_runs, 5u);
  // Idle system: wake-to-run latency is just dispatch cost (< 20 us).
  EXPECT_LT(w.kernel.stats.ProbeMax(), 20 * kNsPerUs);
}

TEST_P(SchedTest, KernelOpDelaysTickInNpOnly) {
  // A huge region_search runs while a timer-waiting thread wants to run.
  // NP: the waiter is delayed by the whole search. PP: also delayed (the
  // search has no preemption point). FP: the waiter preempts mid-search.
  SimpleWorld w(GetParam());
  auto region = w.kernel.NewRegion(w.space, 0xF0000000u, kPageSize, kProtRead);
  (void)region;
  Assembler s("searcher");
  EmitSys(s, kSysRegionSearch, 0x40000000, 16 * 1024 * 1024);  // ~12 ms scan
  s.Halt();
  Assembler p("probe");
  EmitSys(p, kSysIrqWait, kIrqTimer);
  p.Halt();
  Thread* searcher = w.Spawn(s.Build(), 3);
  Thread* probe = w.Spawn(p.Build(), 7);
  w.kernel.SetLatencyProbe(probe, true);
  (void)searcher;
  w.RunAll(200 * kNsPerMs);
  ASSERT_EQ(w.kernel.stats.probe_runs, 1u);
  const Time lat = w.kernel.stats.ProbeMax();
  if (GetParam().preempt == PreemptMode::kFull) {
    EXPECT_LT(lat, 50 * kNsPerUs) << "FP must preempt the search";
  } else {
    EXPECT_GT(lat, 500 * kNsPerUs) << "NP/PP must ride out the search";
  }
}

TEST_P(SchedTest, FpPreemptionRetainsAndResumesKernelOp) {
  if (GetParam().preempt != PreemptMode::kFull) {
    GTEST_SKIP() << "FP-only behaviour";
  }
  SimpleWorld w(GetParam());
  // The search must still complete correctly after being preempted many
  // times (retained frame, resumed mid-loop).
  auto region = w.kernel.NewRegion(w.space, 0x40000000u + (4 << 20), kPageSize, kProtRead);
  Assembler s("searcher");
  EmitSys(s, kSysRegionSearch, 0x40000000, 8 * 1024 * 1024);
  s.MovImm(kRegC, SimpleWorld::kAnonBase);
  s.StoreW(kRegA, kRegC, 0);
  s.StoreW(kRegB, kRegC, 4);
  s.Halt();
  Assembler p("noise");
  for (int i = 0; i < 10; ++i) {
    EmitSys(p, kSysClockSleep, 300);
  }
  p.Halt();
  w.Spawn(s.Build(), 3);
  w.Spawn(p.Build(), 7);
  w.RunAll(200 * kNsPerMs);
  uint32_t out[2] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, out, 8));
  EXPECT_EQ(out[0], kFlukeOk);
  EXPECT_EQ(out[1], static_cast<uint32_t>(region->id()));
  EXPECT_GT(w.kernel.stats.kernel_preemptions, 0u);
}

TEST_P(SchedTest, ThreadStopSelfAndResume) {
  SimpleWorld w(GetParam());
  Assembler a("stopper");
  EmitPuts(a, "1");
  EmitSys(a, kSysThreadStopSelf);
  // Resumed by the host below; the syscall completed with OK at stop time.
  EmitCheckOk(a);
  EmitPuts(a, "2");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 10 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kStopped);
  EXPECT_EQ(w.kernel.console.output(), "1");
  w.kernel.ResumeThread(t);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "12");
}

TEST_P(SchedTest, RestartStatsCountInterruptModelWakeups) {
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler a("locker");
  EmitSys(a, kSysMutexLock, m);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  mutex->locked = false;
  w.kernel.WakeOne(&mutex->waiters);
  w.RunAll();
  if (GetParam().model == ExecModel::kInterrupt) {
    // The wake re-entered mutex_lock from the registers.
    EXPECT_GE(w.kernel.stats.syscall_restarts, 1u);
  } else {
    // The retained activation resumed; no restart.
    EXPECT_EQ(w.kernel.stats.syscall_restarts, 0u);
  }
}

// The O(1) ready-bitmap scheduler and the timing wheel must not perturb the
// schedule: the dispatch-boundary opportunity stream (ScheduleDigest) and
// the semantic counters must be bit-identical across runs and across both
// interpreter engines, in every paper config. The c1m workload is the
// stress shape: hundreds of threads churning through the ready queue, the
// portset pool, and the wheel at once.
struct SchedDigestRun {
  uint64_t digest = 0;
  Time final_time = 0;
  uint64_t context_switches = 0;
  uint64_t timer_arms = 0;
  uint64_t timer_cancels = 0;
  uint64_t sched_bitmap_scans = 0;
  bool completed = true;
};

SchedDigestRun RunC1mDigest(KernelConfig cfg, bool threaded) {
  cfg.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
  // Enable the injector with no failure rates: it records the dispatch-
  // boundary stream (the schedule) without injecting anything.
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.seed = 42;
  Kernel k(cfg);
  C1mParams p;
  p.clients = 96;
  p.sweep_delay_us = 3000;
  p.park_us = 20000;
  std::vector<Thread*> threads = BuildC1mWorkload(k, p);
  k.finj.Arm();
  SchedDigestRun r;
  const Time deadline = k.clock.now() + 4000 * kNsPerMs;
  for (Thread* t : threads) {
    if (!k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      r.completed = false;
      break;
    }
  }
  r.digest = k.finj.ScheduleDigest();
  r.final_time = k.clock.now();
  r.context_switches = k.stats.context_switches;
  r.timer_arms = k.stats.timer_arms;
  r.timer_cancels = k.stats.timer_cancels;
  r.sched_bitmap_scans = k.stats.sched_bitmap_scans;
  return r;
}

TEST_P(SchedTest, C1mScheduleDigestIdenticalAcrossRunsAndEngines) {
  const SchedDigestRun a = RunC1mDigest(GetParam(), /*threaded=*/false);
  const SchedDigestRun b = RunC1mDigest(GetParam(), /*threaded=*/false);
  const SchedDigestRun c = RunC1mDigest(GetParam(), /*threaded=*/true);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.timer_arms, b.timer_arms);
  EXPECT_EQ(a.timer_cancels, b.timer_cancels);
  EXPECT_EQ(a.sched_bitmap_scans, b.sched_bitmap_scans);
  EXPECT_EQ(a.digest, c.digest);
  EXPECT_EQ(a.final_time, c.final_time);
  EXPECT_EQ(a.context_switches, c.context_switches);
  EXPECT_EQ(a.timer_arms, c.timer_arms);
  EXPECT_EQ(a.timer_cancels, c.timer_cancels);
  EXPECT_EQ(a.sched_bitmap_scans, c.sched_bitmap_scans);
  // The storm actually exercised the new machinery.
  EXPECT_GT(a.timer_arms, 96u);
  EXPECT_GT(a.sched_bitmap_scans, 0u);
}

// Same bar under MP: with 4 CPUs the dispatch-opportunity stream is the
// merged per-CPU-round order, which must be just as repeatable across runs
// and engines as the 1-CPU schedule. (The fault injector keeps the kernel on
// the instrumented epoch loop; mp_test pins the uninstrumented one's MP
// digest.)
TEST_P(SchedTest, C1mScheduleDigestIdenticalUnderMp) {
  KernelConfig cfg = GetParam();
  cfg.num_cpus = 4;
  const SchedDigestRun a = RunC1mDigest(cfg, /*threaded=*/false);
  const SchedDigestRun b = RunC1mDigest(cfg, /*threaded=*/false);
  const SchedDigestRun c = RunC1mDigest(cfg, /*threaded=*/true);
  ASSERT_TRUE(a.completed);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.digest, c.digest);
  EXPECT_EQ(a.final_time, c.final_time);
  EXPECT_EQ(a.context_switches, c.context_switches);
  EXPECT_GT(a.sched_bitmap_scans, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SchedTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
