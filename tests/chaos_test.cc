// Chaos-kernel tests: the deterministic fault-injection subsystem and the
// atomicity audit built on it.
//
//   * Atomicity sweep -- forced extract-destroy-recreate at EVERY dispatch
//     boundary of a >=200-instruction workload must finish bit-identically
//     to the untouched golden run, across the five paper configurations and
//     both interpreter engines (the paper's "state is always extractable
//     promptly and correctly" claim, enforced).
//   * Seeded determinism -- one FaultPlan seed => one fault schedule, one
//     virtual-time history, one kernel dump, under either engine.
//   * Resource faults -- injected frame/handle/connect failures surface as
//     clean error codes and are absorbed by bounded retry; never an abort.
//   * Crash-restart -- a kernel frozen at a boundary is abandoned and its
//     last checkpoint image restored into a fresh kernel, which converges
//     to the same final state as an uninterrupted run.
//   * Panic hook -- invariant violations that used to abort are observable
//     and suppressible from tests.

#include "src/kern/faultinject.h"
#include "src/kern/inspect.h"
#include "src/workloads/audit.h"
#include "src/workloads/ckpt_image.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class ChaosTest : public testing::TestWithParam<KernelConfig> {};

// ---------------------------------------------------------------------------
// Tentpole: the atomicity sweep.
// ---------------------------------------------------------------------------

TEST_P(ChaosTest, AtomicitySweepIsBitIdenticalAtEveryBoundary) {
  for (const bool threaded : {false, true}) {
    KernelConfig cfg = GetParam();
    cfg.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
    const ProgramRef prog = BuildAuditProgram(SimpleWorld::kAnonBase);
    const AuditResult r =
        RunAtomicityAudit(cfg, prog, SimpleWorld::kAnonBase, SimpleWorld::kAnonSize);
    ASSERT_TRUE(r.ok) << (threaded ? "threaded" : "switch") << " engine: " << r.error
                      << "\n" << r.divergent_dump;
    // The ISSUE floor: the workload must expose at least 200 distinct
    // extraction points, and every single one must have been audited.
    EXPECT_GE(r.boundaries, 200u) << (threaded ? "threaded" : "switch");
    EXPECT_EQ(r.audited, r.boundaries);
  }
}

// ---------------------------------------------------------------------------
// Seeded determinism: same plan, same seed => identical schedule, stats,
// virtual time and kernel dump -- under both engines.
// ---------------------------------------------------------------------------

namespace {

struct DetRun {
  uint64_t digest = 0;
  uint64_t injected = 0;
  Time final_time = 0;
  uint64_t user_instructions = 0;
  uint64_t oom_backoffs = 0;
  uint64_t syscalls = 0;
  std::string dump;
  bool quiesced = false;
};

DetRun RunSeeded(KernelConfig cfg, bool threaded, uint64_t seed = 0xC0FFEE) {
  cfg.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.seed = seed;
  cfg.fault_plan.fail_frame_permille = 120;  // ~12% of frame allocs fail
  cfg.fault_plan.fail_handle_every = 3;
  Kernel k(cfg);
  auto space = k.CreateSpace("det");
  space->SetAnonRange(SimpleWorld::kAnonBase, SimpleWorld::kAnonSize);
  const ProgramRef prog = BuildAuditProgram(SimpleWorld::kAnonBase);
  space->program = prog;
  k.StartThread(k.CreateThread(space, prog));
  k.finj.Arm();
  DetRun r;
  r.quiesced = k.RunUntilQuiescent(60ull * 1000 * kNsPerMs);
  r.digest = k.finj.ScheduleDigest();
  r.injected = k.finj.injected();
  r.final_time = k.clock.now();
  r.user_instructions = k.stats.user_instructions;
  r.oom_backoffs = k.stats.oom_backoffs;
  r.syscalls = k.stats.syscalls;
  r.dump = DumpKernel(k);
  return r;
}

}  // namespace

TEST_P(ChaosTest, SeededPlanReplaysIdenticallyAcrossRunsAndEngines) {
  const DetRun a = RunSeeded(GetParam(), /*threaded=*/false);
  const DetRun b = RunSeeded(GetParam(), /*threaded=*/false);
  const DetRun c = RunSeeded(GetParam(), /*threaded=*/true);
  ASSERT_TRUE(a.quiesced);
  // Same engine, same seed: everything replays, including the dump.
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.dump, b.dump);
  // Across engines the semantic observables -- fault schedule, virtual
  // time, retired instructions, stats surfaced in the dump -- must agree
  // too (the engines are observation-equivalent).
  EXPECT_EQ(a.digest, c.digest);
  EXPECT_EQ(a.injected, c.injected);
  EXPECT_EQ(a.final_time, c.final_time);
  EXPECT_EQ(a.user_instructions, c.user_instructions);
  EXPECT_EQ(a.oom_backoffs, c.oom_backoffs);
  EXPECT_EQ(a.syscalls, c.syscalls);
  EXPECT_EQ(a.dump, c.dump);
}

// The same seeded-chaos bar under MP: at num_cpus=4 the fault opportunities
// are counted in the merged per-CPU-round order, so each seed must replay
// bit-identically across runs and engines -- including the full kernel dump,
// which now carries the MP digest. Swept over several seeds so the fault
// schedule actually lands at different epoch positions.
TEST_P(ChaosTest, MpSeededPlanSweepReplaysIdentically) {
  uint64_t injected_total = 0;
  for (const uint64_t seed : {uint64_t{0xC0FFEE}, uint64_t{7}, uint64_t{0xDECADE}}) {
    KernelConfig cfg = GetParam();
    cfg.num_cpus = 4;
    const DetRun a = RunSeeded(cfg, /*threaded=*/false, seed);
    const DetRun b = RunSeeded(cfg, /*threaded=*/false, seed);
    const DetRun c = RunSeeded(cfg, /*threaded=*/true, seed);
    ASSERT_TRUE(a.quiesced) << "seed " << seed;
    EXPECT_EQ(a.digest, b.digest) << "seed " << seed;
    EXPECT_EQ(a.injected, b.injected) << "seed " << seed;
    EXPECT_EQ(a.final_time, b.final_time) << "seed " << seed;
    EXPECT_EQ(a.dump, b.dump) << "seed " << seed;
    EXPECT_EQ(a.digest, c.digest) << "seed " << seed;
    EXPECT_EQ(a.injected, c.injected) << "seed " << seed;
    EXPECT_EQ(a.final_time, c.final_time) << "seed " << seed;
    EXPECT_EQ(a.user_instructions, c.user_instructions) << "seed " << seed;
    EXPECT_EQ(a.dump, c.dump) << "seed " << seed;
    injected_total += a.injected;
  }
  // Whether a given seed's plan fires depends on the (merged-order) fault
  // opportunity stream, so only the sweep as a whole must actually inject.
  EXPECT_GT(injected_total, 0u);
}

// ---------------------------------------------------------------------------
// Resource faults: clean errors + bounded retry, never an abort.
// ---------------------------------------------------------------------------

TEST_P(ChaosTest, FrameAllocFaultsAreAbsorbedByRetry) {
  KernelConfig cfg = GetParam();
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fail_frame_every = 3;  // every 3rd frame allocation fails
  SimpleWorld w(cfg);
  Assembler a("touch");
  EmitTouchRange(a, SimpleWorld::kAnonBase, 32 * kPageSize, /*write=*/true);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.MovImm(kRegB, 0x600D);
  a.StoreW(kRegB, kRegC, 5 * kPageSize);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.finj.Arm();
  w.RunAll();
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  // A third of 32 first-touch zero-fills failed and were retried with
  // backoff; the workload still completed and its memory is intact.
  EXPECT_GT(w.kernel.stats.oom_backoffs, 0u);
  EXPECT_GT(w.kernel.stats.faults_injected, 0u);
  EXPECT_EQ(w.kernel.stats.panics, 0u);
  uint32_t v = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase + 5 * kPageSize, &v, 4));
  EXPECT_EQ(v, 0x600Du);
}

TEST_P(ChaosTest, HandleAllocFaultsSurfaceAsNoMemoryAndRetrySucceeds) {
  KernelConfig cfg = GetParam();
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fail_handle_every = 4;  // every 4th object_create fails
  SimpleWorld w(cfg);

  // User-level bounded retry: create 10 mutexes, retrying any attempt that
  // comes back kFlukeErrNoMemory. Exit code = number created.
  Assembler a("mkmux");
  a.MovImm(kRegDI, 0);   // created so far
  a.MovImm(kRegSP, 10);  // target
  const auto outer = a.NewLabel();
  const auto done = a.NewLabel();
  a.Bind(outer);
  a.Bge(kRegDI, kRegSP, done);
  const auto retry = a.NewLabel();
  a.Bind(retry);
  EmitSys(a, kSysMutexCreate);
  a.MovImm(kRegBP, kFlukeErrNoMemory);
  a.Beq(kRegA, kRegBP, retry);  // transient: try again
  EmitCheckOk(a);               // any other error is fatal
  a.AddImm(kRegDI, kRegDI, 1);
  a.Jmp(outer);
  a.Bind(done);
  a.Mov(kRegB, kRegDI);
  a.Halt();

  Thread* t = w.Spawn(a.Build());
  w.kernel.finj.Arm();
  w.RunAll();
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  EXPECT_EQ(t->exit_code, 10u);
  EXPECT_GT(w.kernel.stats.faults_injected, 0u);
  EXPECT_EQ(w.kernel.stats.panics, 0u);
}

TEST_P(ChaosTest, ConnectFaultsSurfaceAsNoMemoryAndRetrySucceeds) {
  KernelConfig cfg = GetParam();
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fail_connect_every = 2;  // every 2nd connection attempt fails

  Kernel k(cfg);
  auto server_space = k.CreateSpace("server");
  auto client_space = k.CreateSpace("client");
  server_space->SetAnonRange(SimpleWorld::kAnonBase, SimpleWorld::kAnonSize);
  client_space->SetAnonRange(SimpleWorld::kAnonBase, SimpleWorld::kAnonSize);
  auto port = k.NewPort(/*badge=*/7);
  const Handle server_port_h = k.Install(server_space, port);
  const Handle client_ref_h = k.Install(client_space, k.NewReference(port));

  // Client: two messages; each connect retries on kFlukeErrNoMemory (the
  // second message's first attempt is the one the plan kills).
  Assembler ca("client");
  ca.MovImm(kRegSP, 0x11223344);
  ca.MovImm(kRegBP, SimpleWorld::kAnonBase);
  ca.StoreW(kRegSP, kRegBP, 0);
  for (int msg = 0; msg < 2; ++msg) {
    const auto retry = ca.NewLabel();
    ca.Bind(retry);
    EmitSys(ca, kSysIpcClientConnectSend, client_ref_h, SimpleWorld::kAnonBase, 4, 0, 0);
    ca.MovImm(kRegBP, kFlukeErrNoMemory);
    ca.Beq(kRegA, kRegBP, retry);
    EmitCheckOk(ca);
    EmitSys(ca, kSysIpcClientDisconnect);
  }
  ca.Halt();
  // Server: receive both messages.
  Assembler sa("server");
  for (int msg = 0; msg < 2; ++msg) {
    EmitSys(sa, kSysIpcWaitReceive, server_port_h, 0, 0, SimpleWorld::kAnonBase, 4);
    EmitCheckOk(sa);
  }
  sa.Halt();

  server_space->program = sa.Build();
  client_space->program = ca.Build();
  Thread* st = k.CreateThread(server_space, nullptr);
  Thread* ct = k.CreateThread(client_space, nullptr);
  k.StartThread(st);
  k.StartThread(ct);
  k.finj.Arm();
  ASSERT_TRUE(k.RunUntilQuiescent(120ull * 1000 * kNsPerMs));
  EXPECT_EQ(st->run_state, ThreadRun::kDead);
  EXPECT_EQ(ct->run_state, ThreadRun::kDead);
  EXPECT_GT(k.stats.faults_injected, 0u);
  EXPECT_EQ(k.stats.panics, 0u);
  uint32_t v = 0;
  ASSERT_TRUE(server_space->HostRead(SimpleWorld::kAnonBase, &v, 4));
  EXPECT_EQ(v, 0x11223344u);
}

TEST_P(ChaosTest, RestoreRetriesInjectedFrameExhaustion) {
  // Checkpoint a space under a clean kernel, then restore it into a kernel
  // whose frame allocator fails intermittently: RestoreMachine's bounded
  // retry must absorb the faults and the image must land intact.
  KernelConfig clean = GetParam();
  SimpleWorld w(clean);
  ProgramRegistry registry;
  {
    Assembler a("fill");
    a.MovImm(kRegC, SimpleWorld::kAnonBase);
    a.MovImm(kRegB, 0xAB12);
    a.StoreW(kRegB, kRegC, 0);
    a.StoreW(kRegB, kRegC, kPageSize);
    a.StoreW(kRegB, kRegC, 3 * kPageSize);
    a.Halt();
    registry.Register(a.Build());
  }
  w.Spawn(registry.Find("fill"));
  w.RunAll();
  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureSpace(w.kernel, *w.space, &img, &err)) << err;

  KernelConfig faulty = GetParam();
  faulty.fault_plan.enabled = true;
  faulty.fault_plan.fail_frame_every = 2;  // every 2nd frame alloc fails
  Kernel k2(faulty);
  k2.finj.Arm();  // armed BEFORE restore: the restore path itself is under fire
  const MachineRestoreResult r = RestoreMachine(k2, img, registry, /*start=*/false);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_GT(k2.stats.oom_backoffs, 0u);
  uint32_t v = 0;
  ASSERT_TRUE(r.spaces[0]->HostRead(SimpleWorld::kAnonBase + kPageSize, &v, 4));
  EXPECT_EQ(v, 0xAB12u);
}

// ---------------------------------------------------------------------------
// Crash-restart: freeze at a boundary, reload the checkpoint, converge.
// ---------------------------------------------------------------------------

TEST_P(ChaosTest, CrashAtBoundaryThenRestoreConverges) {
  ProgramRegistry registry;
  {
    Assembler a("job");
    a.MovImm(kRegC, SimpleWorld::kAnonBase);
    a.MovImm(kRegSP, 1);
    a.MovImm(kRegDI, 40);
    a.MovImm(kRegBP, 0);
    const auto loop = a.NewLabel();
    const auto done = a.NewLabel();
    a.Bind(loop);
    a.Bge(kRegBP, kRegDI, done);
    a.Add(kRegSP, kRegSP, kRegSP);
    a.MovImm(kRegB, 0x10001);
    a.Mul(kRegSP, kRegSP, kRegB);
    a.StoreW(kRegSP, kRegC, 0);
    a.AddImm(kRegBP, kRegBP, 1);
    a.Jmp(loop);
    a.Bind(done);
    a.Mov(kRegB, kRegSP);
    a.Halt();
    registry.Register(a.Build());
  }
  auto build_world = [&](const KernelConfig& cfg) {
    auto k = std::make_unique<Kernel>(cfg, &registry);
    auto space = k->CreateSpace("job-space");
    space->SetAnonRange(SimpleWorld::kAnonBase, SimpleWorld::kAnonSize);
    space->program = registry.Find("job");
    k->StartThread(k->CreateThread(space, space->program));
    return std::make_pair(std::move(k), space);
  };

  // Golden: uninterrupted run to completion.
  auto [gk, gspace] = build_world(GetParam());
  ASSERT_TRUE(gk->RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  const uint32_t golden_exit = gk->threads().back()->exit_code;
  uint32_t golden_word = 0;
  ASSERT_TRUE(gspace->HostRead(SimpleWorld::kAnonBase, &golden_word, 4));

  // Victim: checkpoint at t0, then crash at an injected boundary.
  auto [vk, vspace] = build_world(GetParam());
  MachineImage snapshot;
  std::string err;
  ASSERT_TRUE(CaptureSpace(*vk, *vspace, &snapshot, &err)) << err;
  const std::vector<uint8_t> image_bytes = SerializeMachine(snapshot);
  // CaptureSpace stopped the thread; resume and run into the crash.
  for (const auto& t : vk->threads()) {
    vk->ResumeThread(t);
  }
  KernelConfig crash_cfg = GetParam();
  crash_cfg.fault_plan.enabled = true;
  // Single-step so every instruction is a boundary; freeze mid-loop.
  crash_cfg.fault_plan.single_step = true;
  crash_cfg.fault_plan.crash_at = 20;
  vk->finj.Configure(crash_cfg.fault_plan, &vk->stats);
  vk->finj.Arm();
  EXPECT_FALSE(vk->RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  EXPECT_TRUE(vk->crashed());
  // A crashed kernel stays frozen: further run attempts refuse.
  EXPECT_FALSE(vk->RunUntilQuiescent(60ull * 1000 * kNsPerMs));

  // Recovery: parse the image (CRC-checked) into a fresh kernel; the job
  // re-runs from the checkpoint and converges to the golden final state.
  MachineImage img;
  ASSERT_TRUE(DeserializeImage(image_bytes, &img, &err)) << err;
  Kernel rk(GetParam(), &registry);
  const MachineRestoreResult rr = RestoreMachine(rk, img, registry);
  ASSERT_TRUE(rr.ok) << rr.error;
  ASSERT_TRUE(rk.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  EXPECT_EQ(rk.threads().back()->exit_code, golden_exit);
  uint32_t word = 0;
  ASSERT_TRUE(rr.spaces[0]->HostRead(SimpleWorld::kAnonBase, &word, 4));
  EXPECT_EQ(word, golden_word);
}

// ---------------------------------------------------------------------------
// Panic hook: former aborts are interceptable and error-returning.
// ---------------------------------------------------------------------------

TEST_P(ChaosTest, StopOfOnCpuThreadPanicsRecoverably) {
  SimpleWorld w(GetParam());
  Assembler a("spin");
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  std::string seen;
  w.kernel.SetPanicHandler([&seen](const char* what) {
    seen = what;
    return true;  // suppress the abort; caller takes its error path
  });
  // White-box: pretend the thread is on a CPU right now.
  t->run_state = ThreadRun::kRunning;
  EXPECT_EQ(w.kernel.StopThread(t), KStatus::kBadArgument);
  EXPECT_NE(seen.find("on-CPU"), std::string::npos) << seen;
  EXPECT_EQ(w.kernel.stats.panics, 1u);
  // CancelOp on a running thread takes the same recoverable path.
  seen.clear();
  w.kernel.CancelOp(t);
  EXPECT_NE(seen.find("on-CPU"), std::string::npos) << seen;
  EXPECT_EQ(w.kernel.stats.panics, 2u);
  t->run_state = ThreadRun::kRunnable;
  w.RunAll();
  // The dump surfaces the panic count on its CHAOS line.
  EXPECT_NE(DumpKernel(w.kernel).find("panics=2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Plan parsing (the fluke_run --fault-plan surface).
// ---------------------------------------------------------------------------

TEST(FaultPlanSpecTest, ParsesFullSpec) {
  FaultPlan p;
  std::string err;
  ASSERT_TRUE(ParseFaultPlan(
      "seed=7,step,extract=12,crash=0x20,frame-every=3,frame-permille=50,"
      "handle-every=4,connect-every=2",
      &p, &err))
      << err;
  EXPECT_TRUE(p.enabled);
  EXPECT_EQ(p.seed, 7u);
  EXPECT_TRUE(p.single_step);
  EXPECT_EQ(p.extract_at, 12u);
  EXPECT_EQ(p.crash_at, 0x20u);
  EXPECT_EQ(p.fail_frame_every, 3u);
  EXPECT_EQ(p.fail_frame_permille, 50u);
  EXPECT_EQ(p.fail_handle_every, 4u);
  EXPECT_EQ(p.fail_connect_every, 2u);
}

TEST(FaultPlanSpecTest, RejectsUnknownKeysAndBadArity) {
  FaultPlan p;
  std::string err;
  EXPECT_FALSE(ParseFaultPlan("seed=7,bogus=1", &p, &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);
  EXPECT_FALSE(ParseFaultPlan("extract", &p, &err));  // missing value
  EXPECT_FALSE(ParseFaultPlan("step=3", &p, &err));   // unexpected value
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ChaosTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
