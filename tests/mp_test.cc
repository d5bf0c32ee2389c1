// Multiprocessor configurations: the per-CPU epoch dispatcher
// (src/kern/dispatch.cc). Threads are routed to CPUs by space-affinity
// domain; each CPU runs its own virtual-time lane between epoch barriers,
// with every phase run in CPU order. The acceptance bar is determinism: the
// schedule digest, stats and final state are pinned at every CPU count, and
// every interpreter engine and every repeat must reproduce them bit for
// bit.

#include <set>
#include <string>

#include "src/kern/inspect.h"
#include "src/kern/profile.h"
#include "src/workloads/apps.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

KernelConfig MpConfig(ExecModel model, int cpus) {
  KernelConfig cfg;
  cfg.model = model;
  cfg.num_cpus = cpus;
  return cfg;
}

TEST(MpTest, ConfigValidation) {
  KernelConfig cfg;
  cfg.num_cpus = 8;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 9;  // the old interleave's cap; fine for the epoch dispatcher
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = kMaxCpus;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = kMaxCpus + 1;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be <="), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = 0;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be >= 1"), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = -3;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("num_cpus must be >= 1"), std::string::npos)
      << cfg.Validate();
  cfg.num_cpus = 4;
  cfg.mp_epoch_ns = 0;
  EXPECT_FALSE(cfg.Valid());
  EXPECT_NE(cfg.Validate().find("mp_epoch_ns"), std::string::npos) << cfg.Validate();
  cfg.mp_epoch_ns = 1;
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 1;
  cfg.mp_epoch_ns = 0;  // irrelevant at one CPU
  EXPECT_TRUE(cfg.Valid());
  cfg.num_cpus = 2;
  cfg.mp_epoch_ns = 100000;
  cfg.model = ExecModel::kInterrupt;
  cfg.preempt = PreemptMode::kFull;
  EXPECT_FALSE(cfg.Valid());  // FP still requires the process model
  EXPECT_NE(cfg.Validate().find("process model"), std::string::npos) << cfg.Validate();
}

// Space-affinity routing: spaces get round-robin home CPUs, threads follow
// their space, and cpu_id reports the home. With one space per CPU, every
// CPU runs user code and each space observes its own id.
TEST(MpTest, SpacesObserveDistinctHomeCpus) {
  for (ExecModel model : {ExecModel::kProcess, ExecModel::kInterrupt}) {
    constexpr int kCpus = 4;
    Kernel k(MpConfig(model, kCpus));
    Assembler a("sampler");
    EmitSys(a, kSysCpuId);
    a.MovImm(kRegC, 0x10000);
    a.StoreW(kRegB, kRegC, 0);
    a.Compute(20000);
    a.Halt();
    ProgramRef prog = a.Build();
    std::vector<Space*> spaces;
    for (int i = 0; i < kCpus; ++i) {
      auto sp = k.CreateSpace("s" + std::to_string(i));
      sp->SetAnonRange(0x10000, 1 << 16);
      k.StartThread(k.CreateThread(sp, prog));
      spaces.push_back(std::move(sp));
    }
    ASSERT_TRUE(k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
    std::set<uint32_t> seen;
    for (int i = 0; i < kCpus; ++i) {
      uint32_t v = ~0u;
      ASSERT_TRUE(spaces[i]->HostRead(0x10000, &v, 4));
      EXPECT_EQ(v, static_cast<uint32_t>(i)) << "space " << i;
      seen.insert(v);
    }
    EXPECT_EQ(seen.size(), static_cast<size_t>(kCpus));
  }
}

// A Mapping between two spaces folds their affinity domains into one (they
// can come to share frames): the lower home wins, the losing domain's
// spaces take a remote TLB shootdown, and its threads migrate run queues.
TEST(MpTest, MappingMergesAffinityDomainsAndMigrates) {
  Kernel k(MpConfig(ExecModel::kProcess, 2));
  auto sa = k.CreateSpace("exporter");  // home 0
  auto sb = k.CreateSpace("importer");  // home 1
  sa->SetAnonRange(0x10000, 1 << 16);
  sb->SetAnonRange(0x10000, 1 << 16);
  Assembler a("w");
  a.Compute(5000);
  a.Halt();
  Thread* t = k.CreateThread(sb, a.Build());
  k.StartThread(t);
  EXPECT_EQ(t->home_cpu, 1);
  EXPECT_EQ(k.HomeCpuOf(sb), 1);

  auto region = k.NewRegion(sa, 0x10000, 0x1000, kProtReadWrite);
  k.NewMapping(sb, 0x40000, region, 0, 0x1000, kProtRead);

  EXPECT_EQ(k.HomeCpuOf(sb), 0) << "lower home id absorbs";
  EXPECT_EQ(k.HomeCpuOf(sa), 0);
  EXPECT_EQ(t->home_cpu, 0) << "queued thread must follow its space";
  EXPECT_GE(k.stats.migrations, 1u);
  EXPECT_GE(k.stats.shootdowns_remote, 1u);
  ASSERT_TRUE(k.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
}

TEST(MpTest, IpcAndSyncCorrectOnTwoCpus) {
  SimpleWorld w(MpConfig(ExecModel::kInterrupt, 2));
  // Reuse the contended-counter pattern from sync_test: exactness matters.
  const Handle m = w.kernel.Install(w.space, w.kernel.NewMutex());
  auto worker = [&](const char* name) {
    Assembler a(name);
    const auto loop = a.NewLabel();
    const auto done = a.NewLabel();
    a.MovImm(kRegDI, 0);
    a.Bind(loop);
    a.MovImm(kRegSP, 500);
    a.Bge(kRegDI, kRegSP, done);
    EmitSys(a, kSysMutexLock, m);
    a.MovImm(kRegC, SimpleWorld::kAnonBase);
    a.LoadW(kRegB, kRegC, 0);
    a.Compute(400);
    a.AddImm(kRegB, kRegB, 1);
    a.StoreW(kRegB, kRegC, 0);
    EmitSys(a, kSysMutexUnlock, m);
    a.AddImm(kRegDI, kRegDI, 1);
    a.Jmp(loop);
    a.Bind(done);
    a.Halt();
    return a.Build();
  };
  w.Spawn(worker("w1"));
  w.Spawn(worker("w2"));
  w.RunAll();
  uint32_t v = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &v, 4));
  EXPECT_EQ(v, 1000u);
}

TEST(MpTest, CheckpointWorksUnderMp) {
  SimpleWorld w(MpConfig(ExecModel::kProcess, 4));
  Assembler a("t");
  EmitCompute(a, 500000);
  EmitPuts(a, "ok");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 1 * kNsPerMs);
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(t, &st));
  ASSERT_TRUE(w.kernel.SetThreadState(t, st));
  w.kernel.ResumeThread(t);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "ok");
}

// --- Pinned MP results -------------------------------------------------------
//
// The determinism witness: MpDigest folds every CPU's (lane, tid/event)
// dispatch history in CPU order. The c1m storm (sharded client spaces, one
// shared server pool, timer storms, the master's interrupt sweep) crosses
// CPUs constantly, so its digest and counters are pinned to constants;
// every engine and every repeat must reproduce them.

struct MpRun {
  bool completed = true;
  uint64_t mp_digest = 0;
  Time final_time = 0;
  uint64_t context_switches = 0;
  uint64_t syscalls = 0;
  uint64_t user_instructions = 0;
  uint64_t mp_epochs = 0;
  uint64_t cross_cpu_ipc = 0;
  uint64_t migrations = 0;
  uint64_t timer_arms = 0;
  uint64_t timer_cancels = 0;
  uint64_t trace_digest = 0;
  uint64_t trace_dropped = 0;
  std::string dump;
};

MpRun RunC1mMp(ExecModel model, int cpus, InterpEngine engine, bool traced = false) {
  KernelConfig cfg = MpConfig(model, cpus);
  cfg.interp_engine = engine;
  Kernel k(cfg);
  if (traced) {
    // Room for the whole run (about 4.4k events): the digest covers every
    // event, none dropped.
    k.trace.SetCapacity(size_t{1} << 13);
    k.trace.Enable();
  }
  C1mParams p;
  p.clients = 48;
  p.sweep_delay_us = 3000;
  p.park_us = 20000;
  std::vector<Thread*> threads = BuildC1mWorkload(k, p);
  MpRun r;
  const Time deadline = k.clock.now() + 4000 * kNsPerMs;
  for (Thread* t : threads) {
    if (!k.RunUntilThreadDone(t, deadline - k.clock.now())) {
      r.completed = false;
      break;
    }
  }
  r.mp_digest = k.MpDigest();
  r.final_time = k.clock.now();
  r.context_switches = k.stats.context_switches;
  r.syscalls = k.stats.syscalls;
  r.user_instructions = k.stats.user_instructions;
  r.mp_epochs = k.stats.mp_epochs;
  r.cross_cpu_ipc = k.stats.cross_cpu_ipc;
  r.migrations = k.stats.migrations;
  r.timer_arms = k.stats.timer_arms;
  r.timer_cancels = k.stats.timer_cancels;
  r.trace_digest = TraceDigest(k.trace.Snapshot());
  r.trace_dropped = k.trace.dropped();
  r.dump = DumpKernel(k);
  return r;
}

void ExpectSameRun(const MpRun& a, const MpRun& b, const char* what) {
  EXPECT_EQ(a.mp_digest, b.mp_digest) << what;
  EXPECT_EQ(a.final_time, b.final_time) << what;
  EXPECT_EQ(a.context_switches, b.context_switches) << what;
  EXPECT_EQ(a.syscalls, b.syscalls) << what;
  EXPECT_EQ(a.user_instructions, b.user_instructions) << what;
  EXPECT_EQ(a.mp_epochs, b.mp_epochs) << what;
  EXPECT_EQ(a.cross_cpu_ipc, b.cross_cpu_ipc) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.timer_arms, b.timer_arms) << what;
  EXPECT_EQ(a.timer_cancels, b.timer_cancels) << what;
  EXPECT_EQ(a.dump, b.dump) << what;
}

// The 48-client storm's pinned results per CPU count. The run's semantic
// totals do not depend on the CPU count: 825 syscalls, 3420 instructions.
// The 1-CPU row pins the other dispatch loop on the same storm (no epochs,
// and MpDigest is zero there).
struct MpPin {
  int cpus;
  uint64_t mp_digest;
  Time final_time;
  uint64_t context_switches;
  uint64_t mp_epochs;
  uint64_t cross_cpu_ipc;
};

constexpr MpPin kProcessPins[] = {
    {1, 0, 10 * kNsPerMs, 669, 0, 0},
    {2, 0x7b4a0a98e3cf727dull, 10 * kNsPerMs, 605, 101, 256},
    {4, 0x0325a35a80226a37ull, 10 * kNsPerMs, 557, 95, 384},
    {8, 0x2a2df581f316da52ull, 10 * kNsPerMs, 510, 79, 449},
};
constexpr MpPin kInterruptPins[] = {
    {1, 0, 10 * kNsPerMs, 667, 0, 0},
    {2, 0xbb0acfe9c3719589ull, 10 * kNsPerMs, 611, 102, 257},
    {4, 0x9458338f07e96629ull, 10 * kNsPerMs, 573, 98, 386},
    {8, 0x07d76848acad9c67ull, 10 * kNsPerMs, 503, 81, 444},
};

class MpBackendTest : public testing::TestWithParam<ExecModel> {};

TEST_P(MpBackendTest, MatchesPinnedResultsAcrossCpuCounts) {
  const auto& pins = GetParam() == ExecModel::kProcess ? kProcessPins : kInterruptPins;
  for (const MpPin& pin : pins) {
    const MpRun run = RunC1mMp(GetParam(), pin.cpus, InterpEngine::kJit);
    ASSERT_TRUE(run.completed) << pin.cpus << " cpus";
    EXPECT_EQ(run.mp_digest, pin.mp_digest) << pin.cpus << " cpus";
    EXPECT_EQ(run.final_time, pin.final_time) << pin.cpus << " cpus";
    EXPECT_EQ(run.context_switches, pin.context_switches) << pin.cpus << " cpus";
    EXPECT_EQ(run.mp_epochs, pin.mp_epochs) << pin.cpus << " cpus";
    EXPECT_EQ(run.cross_cpu_ipc, pin.cross_cpu_ipc) << pin.cpus << " cpus";
    EXPECT_EQ(run.syscalls, 825u) << pin.cpus << " cpus";
    EXPECT_EQ(run.user_instructions, 3420u) << pin.cpus << " cpus";
    // Same-process repeat: no state left behind by one kernel (program
    // caches, the JIT arena, allocator reuse) may leak into the next.
    const MpRun again = RunC1mMp(GetParam(), pin.cpus, InterpEngine::kJit);
    ExpectSameRun(run, again, "same-process repeat");
  }
}

// The same storm traced, at one CPU and at four. The trace stream records
// every context switch, syscall span, block and idle span, so it pins the
// dispatch body's order of effects, not only its totals.
struct TracePin {
  int cpus;
  uint64_t process;
  uint64_t interrupt;
};

constexpr TracePin kTracePins[] = {
    {1, 0xc06a7f2721287462ull, 0xa57b63769421cd08ull},
    {4, 0xb1709ee81ad77df8ull, 0xcd0853f01b8e08d7ull},
};

TEST_P(MpBackendTest, TracedRunMatchesPinnedTraceDigest) {
  for (const TracePin& pin : kTracePins) {
    const MpRun run = RunC1mMp(GetParam(), pin.cpus, InterpEngine::kJit, /*traced=*/true);
    ASSERT_TRUE(run.completed) << pin.cpus << " cpus";
    EXPECT_EQ(run.trace_dropped, 0u) << pin.cpus << " cpus";
    EXPECT_EQ(run.trace_digest, GetParam() == ExecModel::kProcess ? pin.process : pin.interrupt)
        << pin.cpus << " cpus";
  }
}

// An injected crash at an MP dispatch boundary freezes the whole machine:
// the crashing CPU puts its pick back, the other CPUs un-stage their bursts,
// and every live thread is back in a schedule slot with its state
// extractable. A crashed kernel does not run again.
TEST_P(MpBackendTest, CrashAtDispatchBoundaryFreezesEveryCpu) {
  for (const uint64_t crash_at : {3, 50, 400}) {
    KernelConfig cfg = MpConfig(GetParam(), 4);
    cfg.fault_plan.enabled = true;
    cfg.fault_plan.crash_at = crash_at;
    Kernel k(cfg);
    C1mParams p;
    p.clients = 48;
    p.sweep_delay_us = 3000;
    p.park_us = 20000;
    BuildC1mWorkload(k, p);
    k.finj.Arm();
    k.Run(k.clock.now() + 4000 * kNsPerMs);
    ASSERT_TRUE(k.crashed()) << "crash_at " << crash_at;
    for (const Cpu& c : k.cpus()) {
      EXPECT_EQ(c.current, nullptr) << "crash_at " << crash_at << " cpu " << c.id;
      EXPECT_EQ(c.burst_budget, 0u) << "crash_at " << crash_at << " cpu " << c.id;
    }
    size_t live = 0;
    for (Thread* t : k.threads()) {
      EXPECT_NE(t->run_state, ThreadRun::kRunning) << "crash_at " << crash_at;
      if (t->run_state != ThreadRun::kDead) {
        ThreadState st;
        EXPECT_TRUE(k.GetThreadState(t, &st)) << "crash_at " << crash_at;
        ++live;
      }
    }
    EXPECT_EQ(live, 57u) << "crash_at " << crash_at;  // 48 clients, 8 servers, the master
    const Time frozen = k.clock.now();
    k.Run(frozen + 10 * kNsPerMs);
    EXPECT_EQ(k.clock.now(), frozen) << "crash_at " << crash_at;
  }
}

TEST_P(MpBackendTest, EnginesBitIdenticalUnderMp) {
  const MpRun jit = RunC1mMp(GetParam(), 4, InterpEngine::kJit);
  ASSERT_TRUE(jit.completed);
  const MpRun other = RunC1mMp(GetParam(), 4, InterpEngine::kSwitch);
  ASSERT_TRUE(other.completed);
  ExpectSameRun(jit, other, InterpEngineName(InterpEngine::kSwitch));
}

// An instrumented run downgrades the JIT to the switch engine so every
// burst retires at reference granularity -- under MP exactly as at 1 CPU.
TEST(MpTest, InstrumentedRunsKeepTheJitOffAtEveryCpuCount) {
  if (!JitCompiledIn() || !JitAvailable()) {
    GTEST_SKIP() << "no JIT on this host";
  }
  for (const int cpus : {1, 4}) {
    for (const bool traced : {false, true}) {
      KernelConfig cfg = MpConfig(ExecModel::kProcess, cpus);
      cfg.interp_engine = InterpEngine::kJit;
      Kernel k(cfg);
      if (traced) {
        k.trace.SetCapacity(size_t{1} << 12);
        k.trace.Enable();
      }
      C1mParams p;
      p.clients = 48;
      p.sweep_delay_us = 3000;
      for (Thread* t : BuildC1mWorkload(k, p)) {
        ASSERT_TRUE(k.RunUntilThreadDone(t, 4000 * kNsPerMs));
      }
      EXPECT_EQ(k.stats.user_instructions, 3420u);
      if (traced) {
        EXPECT_EQ(k.stats.jit_compiles, 0u) << cpus << " cpus";
        EXPECT_EQ(k.stats.jit_block_entries, 0u) << cpus << " cpus";
      } else {
        EXPECT_GT(k.stats.jit_block_entries, 0u) << cpus << " cpus";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, MpBackendTest,
                         testing::Values(ExecModel::kProcess, ExecModel::kInterrupt),
                         [](const testing::TestParamInfo<ExecModel>& i) {
                           return i.param == ExecModel::kProcess ? "Process" : "Interrupt";
                         });

}  // namespace
}  // namespace fluke
