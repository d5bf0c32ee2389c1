// Incremental concurrent checkpointing (PR 8).
//
// The correctness spine, in order:
//   * a concurrent capture (mark, keep running, drain) produces bytes
//     identical to a stop-the-world capture taken at the same instant on a
//     deterministic replay -- while user writes demonstrably race the drain
//     (ckpt_cow_saves > 0);
//   * restoring either image yields bit-identical machines (full dump), and
//     both replay to bit-identical completion (trace digest);
//   * checkpointing never perturbs the checkpointed run (clock, counters and
//     final machine state match the uncheckpointed run exactly);
//   * the serial pause (mark phase) is strictly shorter than a stop-the-world
//     copy at a >= 10k-page working set;
//   * delta images merged over their base reproduce the full capture;
//   * the restart log survives a crash at every injected dispatch boundary
//     while a capture is in flight: recovery restores the newest complete
//     generation and the replay converges to the reference final state;
//   * any single corrupted byte in any generation of a delta chain yields a
//     clean structured error or a correct fallback, never divergence;
//   * a finished drain hands the run back to the fast paths before Finish().
//
// Machine-level suites run across the five paper configurations under both
// interpreter engines.

#include <algorithm>
#include <string>
#include <vector>

#include "src/base/wire.h"
#include "src/kern/inspect.h"
#include "src/kern/profile.h"
#include "src/workloads/apps.h"
#include "src/workloads/checkpoint.h"
#include "src/workloads/ckpt_image.h"
#include "src/workloads/restart_log.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

constexpr Time kSlice = kNsPerMs / 4;

// CkptImageV3Test.LayoutIsPinned: sizes and CRC trailers of its full and
// delta streams, recorded with the FNV-1a build.
constexpr size_t kPinFullSize = 33400;
constexpr uint32_t kPinFullCrc = 0x039D737F;
constexpr size_t kPinDeltaSize = 8610;
constexpr uint32_t kPinDeltaCrc = 0xE7C74438;

// The five paper configurations, each under both interpreter engines.
std::vector<KernelConfig> AllConfigsBothEngines() {
  std::vector<KernelConfig> v;
  for (const KernelConfig& c : AllPaperConfigs()) {
    KernelConfig on = c;
    on.interp_engine = InterpEngine::kThreaded;
    v.push_back(on);
    KernelConfig off = c;
    off.interp_engine = InterpEngine::kSwitch;
    v.push_back(off);
  }
  return v;
}

std::string EngineConfigName(const testing::TestParamInfo<KernelConfig>& info) {
  std::string s = info.param.Label();
  for (char& c : s) {
    if (c == ' ') {
      c = '_';
    }
  }
  return s + (info.param.interp_engine == InterpEngine::kSwitch ? "_switch" : "_goto");
}

// A three-space machine: an rpc client/server pair wired through a port (live
// cross-space IPC connections at any capture instant) plus a writer that
// keeps re-dirtying a 64-page window, so a concurrent drain always races
// user stores.
struct World {
  ProgramRegistry registry;
  Kernel kernel;
  std::vector<Thread*> all;  // server, client, writer -- every one exits

  explicit World(const KernelConfig& cfg, uint32_t rounds = 400, uint32_t writer_rounds = 300,
                 uint32_t writer_pages = 64, uint32_t cold_pages = 32)
      : kernel(cfg, &registry) {
    auto cs = kernel.CreateSpace("ck-client");
    auto ss = kernel.CreateSpace("ck-server");
    auto ws = kernel.CreateSpace("ck-writer");
    cs->SetAnonRange(0x10000, 1 << 20);
    ss->SetAnonRange(0x10000, 1 << 20);
    ws->SetAnonRange(0x10000, 1 << 20);
    auto port = kernel.NewPort(7);
    const Handle sp = kernel.Install(ss, port);
    const Handle cr = kernel.Install(cs, kernel.NewReference(port));

    Assembler ca("ck-client");
    EmitSys(ca, kSysIpcClientConnect, cr);
    ca.MovImm(kRegBP, 0);
    ca.MovImm(kRegSP, rounds);
    const auto loop = ca.NewLabel();
    const auto done = ca.NewLabel();
    ca.Bind(loop);
    ca.Bge(kRegBP, kRegSP, done);
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, 0x10000, 1, 0x10100, 1);
    ca.AddImm(kRegBP, kRegBP, 1);
    ca.Jmp(loop);
    ca.Bind(done);
    ca.MovImm(kRegB, 0);
    ca.Halt();
    cs->program = ca.Build();

    Assembler sa("ck-server");
    EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 1);
    sa.MovImm(kRegBP, kFlukeOk);
    const auto sloop = sa.NewLabel();
    sa.Bind(sloop);
    EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, 0x10100, 1, 0x10000, 1);
    sa.Beq(kRegA, kRegBP, sloop);
    sa.MovImm(kRegB, 0);
    sa.Halt();
    ss->program = sa.Build();

    Assembler wa("ck-writer");
    // Cold prologue: pages written exactly once, so later deltas must be
    // able to skip them.
    wa.MovImm(kRegC, 0x80000);
    wa.MovImm(kRegD, 0);
    wa.MovImm(kRegSI, cold_pages);
    const auto cold = wa.NewLabel();
    const auto cend = wa.NewLabel();
    wa.Bind(cold);
    wa.Bge(kRegD, kRegSI, cend);
    wa.AddImm(kRegB, kRegD, 100);
    wa.StoreW(kRegB, kRegC, 0);
    wa.AddImm(kRegC, kRegC, kPageSize);
    wa.AddImm(kRegD, kRegD, 1);
    wa.Jmp(cold);
    wa.Bind(cend);
    wa.MovImm(kRegBP, 0);
    wa.MovImm(kRegSP, writer_rounds);
    const auto outer = wa.NewLabel();
    const auto oend = wa.NewLabel();
    wa.Bind(outer);
    wa.Bge(kRegBP, kRegSP, oend);
    wa.MovImm(kRegC, 0x10000);
    wa.MovImm(kRegD, 0);
    wa.MovImm(kRegSI, writer_pages);
    const auto inner = wa.NewLabel();
    const auto iend = wa.NewLabel();
    wa.Bind(inner);
    wa.Bge(kRegD, kRegSI, iend);
    wa.AddImm(kRegB, kRegBP, 3);  // round-varying value: deltas see fresh dirt
    wa.StoreW(kRegB, kRegC, 0);
    wa.AddImm(kRegC, kRegC, kPageSize);
    wa.AddImm(kRegD, kRegD, 1);
    wa.Jmp(inner);
    wa.Bind(iend);
    EmitCompute(wa, 2000);
    wa.AddImm(kRegBP, kRegBP, 1);
    wa.Jmp(outer);
    wa.Bind(oend);
    wa.MovImm(kRegB, 0);
    wa.Halt();
    ws->program = wa.Build();

    registry.Register(cs->program);
    registry.Register(ss->program);
    registry.Register(ws->program);

    all.push_back(kernel.CreateThread(ss));
    all.push_back(kernel.CreateThread(cs));
    all.push_back(kernel.CreateThread(ws));
    for (Thread* t : all) {
      kernel.StartThread(t);
    }
  }
};

bool AllDead(const std::vector<Thread*>& ts) {
  for (const Thread* t : ts) {
    if (t->run_state != ThreadRun::kDead) {
      return false;
    }
  }
  return true;
}

// Advances to an absolute virtual time in fixed host slices. Two kernels
// executing the same workload see identical dispatch sequences for the same
// target, so host-side capture instants line up exactly.
void RunTo(Kernel& k, Time target, Time slice = kSlice) {
  while (k.clock.now() < target && !k.crashed()) {
    k.Run(std::min(target, k.clock.now() + slice));
  }
}

struct CkptRun {
  uint64_t generations = 0;
  // Fault-injection dispatch-boundary count at each Begin and each commit
  // (meaningful only when the injector is armed): the crash sweep's windows.
  std::vector<uint64_t> begin_boundaries;
  std::vector<uint64_t> commit_boundaries;
};

// The fluke_run --ckpt-every loop, test-side: periodic concurrent captures
// committed (image first, log record second) into `store`. A crash mid-slice
// abandons the in-flight capture uncommitted -- exactly the restart-log
// invariant under test.
CkptRun RunCheckpointed(Kernel& k, const std::vector<Thread*>& until, CkptStore& store,
                        Time every, bool delta, Time deadline, Time slice = kSlice) {
  CkptRun out;
  ConcurrentCkpt cc;
  bool cc_delta = false;
  uint32_t prev_gen = 0;
  uint64_t prev_digest = 0;
  Time next_ckpt = k.clock.now() + every;
  auto commit = [&]() {
    MachineImage img = cc.Finish();
    img.generation = static_cast<uint32_t>(out.generations + 1);
    if (cc_delta) {
      img.base_generation = prev_gen;
      img.parent_digest = prev_digest;
    } else {
      img.base_generation = 0;
      img.parent_digest = 0;
    }
    const std::vector<uint8_t> bytes = SerializeMachine(img);
    EXPECT_TRUE(CommitGeneration(store, img.generation, bytes));
    prev_gen = img.generation;
    prev_digest = ImageDigest(bytes);
    ++out.generations;
    out.commit_boundaries.push_back(k.finj.dispatch_boundaries());
  };
  while (!AllDead(until) && !k.crashed() && k.clock.now() < deadline) {
    if (!cc.active() && k.clock.now() >= next_ckpt) {
      std::string err;
      const bool d = delta && k.stats.ckpt_generations > 0;
      if (cc.Begin(k, d, &err)) {
        cc_delta = d;
        out.begin_boundaries.push_back(k.finj.dispatch_boundaries());
      } else {
        ADD_FAILURE() << "checkpoint refused: " << err;
      }
      next_ckpt += every;
    }
    k.Run(std::min(deadline, k.clock.now() + slice));
    if (cc.active() && cc.done() && !k.crashed()) {
      commit();
    }
  }
  if (cc.active() && !k.crashed()) {
    k.CkptDrainAll();
    commit();
  }
  return out;
}

// Clock- and generation-blind digest of the machine's full state: what
// "converged to the same final state" means for runs whose schedules (and
// hence idle tails) differed.
uint64_t FinalStateDigest(Kernel& k) {
  MachineImage img;
  std::string err;
  if (!CaptureMachine(k, /*delta=*/false, &img, &err)) {
    ADD_FAILURE() << "final capture failed: " << err;
    return 0;
  }
  img.clock_ns = 0;
  img.generation = 1;
  img.base_generation = 0;
  img.parent_digest = 0;
  return ImageDigest(SerializeMachine(img));
}

class CkptMachineTest : public testing::TestWithParam<KernelConfig> {};

// The tentpole witness: mark at T, keep executing while the drain races user
// stores (cow saves prove the race happened), and the resulting image is
// byte-identical to a stop-the-world capture at T on a deterministic replay.
// Restoring either image gives bit-identical machines that replay to
// bit-identical completion.
TEST_P(CkptMachineTest, ConcurrentCaptureMatchesStopTheWorld) {
  const KernelConfig cfg = GetParam();
  const Time t0 = kNsPerMs / 2;

  World a(cfg);
  RunTo(a.kernel, t0);
  ASSERT_FALSE(a.kernel.crashed());
  ConcurrentCkpt cc;
  std::string err;
  ASSERT_TRUE(cc.Begin(a.kernel, /*delta=*/false, &err)) << err;
  for (int i = 0; cc.active() && !cc.done() && i < 10000; ++i) {
    a.kernel.Run(a.kernel.clock.now() + kSlice / 8);
  }
  ASSERT_TRUE(cc.done()) << "drain never completed";
  const MachineImage img_cc = cc.Finish();
  // User writes raced the drain; the save-on-write path preserved the
  // capture-instant bytes.
  EXPECT_GT(a.kernel.stats.ckpt_cow_saves, 0u);

  World b(cfg);
  RunTo(b.kernel, t0);
  MachineImage img_stw;
  ASSERT_TRUE(CaptureMachine(b.kernel, /*delta=*/false, &img_stw, &err)) << err;

  const std::vector<uint8_t> bytes_cc = SerializeMachine(img_cc);
  const std::vector<uint8_t> bytes_stw = SerializeMachine(img_stw);
  EXPECT_EQ(bytes_cc, bytes_stw) << "concurrent capture diverged from stop-the-world";

  // Even at this small working set the mark pause is strictly shorter than
  // the stop-the-world copy (the >=10k-page bound has its own test below).
  EXPECT_LT(a.kernel.stats.ckpt_pause_hist.Max(), b.kernel.stats.ckpt_pause_hist.Max());

  // Both images restore to bit-identical machines...
  Kernel k1(cfg);
  Kernel k2(cfg);
  const MachineRestoreResult r1 = RestoreMachine(k1, img_cc, a.registry);
  const MachineRestoreResult r2 = RestoreMachine(k2, img_stw, b.registry);
  ASSERT_TRUE(r1.ok) << r1.error;
  ASSERT_TRUE(r2.ok) << r2.error;
  EXPECT_EQ(DumpKernel(k1), DumpKernel(k2));

  // ...and replay to bit-identical completion.
  k1.trace.SetCapacity(size_t{1} << 20);
  k2.trace.SetCapacity(size_t{1} << 20);
  k1.trace.Enable();
  k2.trace.Enable();
  ASSERT_TRUE(k1.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  EXPECT_EQ(TraceDigest(k1.trace.Snapshot()), TraceDigest(k2.trace.Snapshot()));
  EXPECT_EQ(DumpKernel(k1), DumpKernel(k2));
  for (size_t i = 0; i < r1.threads.size(); ++i) {
    EXPECT_EQ(r1.threads[i]->run_state, ThreadRun::kDead) << i;
    EXPECT_EQ(r1.threads[i]->exit_code, 0u) << i;
  }
}

// Checkpointing must not perturb the checkpointed run: same clock, same
// counters, same final machine state as an uncheckpointed twin.
TEST_P(CkptMachineTest, CheckpointedRunIsUnperturbed) {
  const KernelConfig cfg = GetParam();
  const Time deadline = 60ull * 1000 * kNsPerMs;

  World plain(cfg);
  while (!AllDead(plain.all) && plain.kernel.clock.now() < deadline) {
    plain.kernel.Run(plain.kernel.clock.now() + kSlice);
  }
  ASSERT_TRUE(AllDead(plain.all));

  World ck(cfg);
  MemCkptStore store;
  const CkptRun run =
      RunCheckpointed(ck.kernel, ck.all, store, /*every=*/kNsPerMs / 2, /*delta=*/false, deadline);
  ASSERT_TRUE(AllDead(ck.all));
  EXPECT_GE(run.generations, 2u);
  EXPECT_EQ(ck.kernel.stats.ckpt_generations, run.generations);

  EXPECT_EQ(plain.kernel.clock.now(), ck.kernel.clock.now());
  EXPECT_EQ(plain.kernel.stats.syscalls, ck.kernel.stats.syscalls);
  EXPECT_EQ(plain.kernel.stats.context_switches, ck.kernel.stats.context_switches);
  EXPECT_EQ(plain.kernel.stats.user_instructions, ck.kernel.stats.user_instructions);
  EXPECT_EQ(plain.kernel.stats.soft_faults, ck.kernel.stats.soft_faults);
  EXPECT_EQ(plain.kernel.console.output(), ck.kernel.console.output());
  EXPECT_EQ(FinalStateDigest(plain.kernel), FinalStateDigest(ck.kernel));
}

// A capture whose drain is done marks no page, so it stops forcing the
// instrumented loop even though the host has not called Finish(): the rest
// of the run takes the same fast paths as an uncheckpointed twin under the
// same Run() chunking.
TEST_P(CkptMachineTest, DrainedCaptureKeepsTheFastPath) {
  const KernelConfig cfg = GetParam();
  const Time deadline = 60ull * 1000 * kNsPerMs;
  const Time t0 = kNsPerMs / 2;

  World plain(cfg);
  while (!AllDead(plain.all) && plain.kernel.clock.now() < deadline) {
    plain.kernel.Run(plain.kernel.clock.now() + kSlice);
  }
  ASSERT_TRUE(AllDead(plain.all));

  World ck(cfg);
  ConcurrentCkpt cc;
  while (!AllDead(ck.all) && ck.kernel.clock.now() < deadline) {
    if (!cc.active() && ck.kernel.clock.now() >= t0) {
      std::string err;
      ASSERT_TRUE(cc.Begin(ck.kernel, /*delta=*/false, &err)) << err;
      ck.kernel.CkptDrainAll();
      ASSERT_TRUE(cc.done());
    }
    ck.kernel.Run(ck.kernel.clock.now() + kSlice);
  }
  ASSERT_TRUE(AllDead(ck.all));
  ASSERT_TRUE(cc.active()) << "the capture began and was never finished";

  EXPECT_EQ(plain.kernel.stats.syscall_fast_entries, ck.kernel.stats.syscall_fast_entries);
  EXPECT_EQ(plain.kernel.stats.ipc_fast_handoffs, ck.kernel.stats.ipc_fast_handoffs);
  EXPECT_EQ(plain.kernel.clock.now(), ck.kernel.clock.now());
  EXPECT_EQ(plain.kernel.stats.syscalls, ck.kernel.stats.syscalls);
  EXPECT_EQ(plain.kernel.stats.context_switches, ck.kernel.stats.context_switches);
  cc.Finish();
}

// Deltas carry only re-dirtied pages, and merging base+delta reproduces the
// stop-the-world full capture at the delta's instant on a replay.
TEST_P(CkptMachineTest, DeltaChainMergesToFullImage) {
  const KernelConfig cfg = GetParam();
  // First-touch soft faults make population slow in virtual time; capture
  // after the working set has stabilized so the writer's cold pages are old
  // news by t1 and provably absent from the delta.
  const Time t1 = 2 * kNsPerMs + kNsPerMs / 2;
  const Time t2 = 3 * kNsPerMs;
  std::string err;

  World a(cfg);
  RunTo(a.kernel, t1);
  MachineImage full1;
  ASSERT_TRUE(CaptureMachine(a.kernel, /*delta=*/false, &full1, &err)) << err;
  RunTo(a.kernel, t2);
  MachineImage delta2;
  ASSERT_TRUE(CaptureMachine(a.kernel, /*delta=*/true, &delta2, &err)) << err;

  MachineImage merged;
  ASSERT_TRUE(MergeImageChain({full1, delta2}, &merged, &err)) << err;

  // Checkpoints are non-perturbing, so the twin runs straight to t2.
  World b(cfg);
  RunTo(b.kernel, t2);
  MachineImage full2;
  ASSERT_TRUE(CaptureMachine(b.kernel, /*delta=*/false, &full2, &err)) << err;

  EXPECT_GT(delta2.TotalPages(), 0u);
  EXPECT_LT(delta2.TotalPages(), full2.TotalPages())
      << "a delta should skip pages nobody re-dirtied";

  merged.generation = full2.generation;  // metadata differs by design
  EXPECT_EQ(SerializeMachine(merged), SerializeMachine(full2));
}

// Crash at every injected dispatch boundary while a capture is in flight:
// recovery restores the newest complete generation and the replay converges
// to the uncheckpointed reference's final state. The sweep covers the first
// (full) and second (delta) captures' active windows, strided only if a
// window outgrows 16 boundaries (the windows are slice-quantized).
TEST_P(CkptMachineTest, CrashAtEveryBoundaryDuringCheckpointConverges) {
  const KernelConfig cfg = GetParam();
  const uint32_t kRounds = 120;
  const uint32_t kWriterRounds = 120;
  const Time kEvery = kNsPerMs / 5;
  const Time kSweepSlice = kNsPerMs / 16;
  const Time deadline = 60ull * 1000 * kNsPerMs;

  // Reference: the same workload, uncheckpointed, run to completion.
  World ref(cfg, kRounds, kWriterRounds);
  ASSERT_TRUE(ref.kernel.RunUntilQuiescent(deadline));
  const uint64_t want_digest = FinalStateDigest(ref.kernel);

  // Probe run: armed no-op plan counts boundaries; record each capture's
  // [Begin, commit] window.
  KernelConfig armed = cfg;
  armed.fault_plan.enabled = true;
  World probe(armed, kRounds, kWriterRounds);
  probe.kernel.finj.Arm();
  MemCkptStore probe_store;
  const CkptRun pr = RunCheckpointed(probe.kernel, probe.all, probe_store, kEvery,
                                     /*delta=*/true, deadline, kSweepSlice);
  ASSERT_TRUE(AllDead(probe.all));
  ASSERT_GE(pr.generations, 2u);
  ASSERT_EQ(pr.begin_boundaries.size(), pr.commit_boundaries.size());

  for (size_t w = 0; w < 2; ++w) {
    const uint64_t lo = pr.begin_boundaries[w];
    const uint64_t hi = pr.commit_boundaries[w];
    ASSERT_LE(lo, hi);
    const uint64_t stride = std::max<uint64_t>(1, (hi - lo + 1) / 16);
    for (uint64_t b = lo; b <= hi; b += stride) {
      KernelConfig crash_cfg = cfg;
      crash_cfg.fault_plan.enabled = true;
      crash_cfg.fault_plan.crash_at = b;
      World c(crash_cfg, kRounds, kWriterRounds);
      c.kernel.finj.Arm();
      MemCkptStore store;
      RunCheckpointed(c.kernel, c.all, store, kEvery, /*delta=*/true, deadline, kSweepSlice);
      ASSERT_TRUE(c.kernel.crashed()) << "boundary " << b << " never reached";

      MachineImage img;
      uint64_t gen = 0;
      std::string err;
      if (!RecoverLatest(store, &img, &gen, &err)) {
        // Only legitimate when the crash predates the first commit.
        EXPECT_EQ(w, 0u) << err;
        EXPECT_NE(err.find("restart log"), std::string::npos) << err;
        continue;
      }
      Kernel k2(cfg);
      const MachineRestoreResult r = RestoreMachine(k2, img, c.registry);
      ASSERT_TRUE(r.ok) << "boundary " << b << " gen " << gen << ": " << r.error;
      ASSERT_TRUE(k2.RunUntilQuiescent(deadline)) << "boundary " << b;
      for (Thread* t : r.threads) {
        EXPECT_EQ(t->run_state, ThreadRun::kDead);
        EXPECT_EQ(t->exit_code, 0u);
      }
      EXPECT_EQ(FinalStateDigest(k2), want_digest)
          << "boundary " << b << " restored gen " << gen << " diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CkptMachineTest, testing::ValuesIn(AllConfigsBothEngines()),
                         EngineConfigName);

// The pause bound at scale: at a >= 10k-page working set, the mark pause is
// strictly shorter than the stop-the-world copy pause for the same capture.
TEST(CkptPauseTest, MarkPauseBeatsStopTheWorldAtTenThousandPages) {
  constexpr uint32_t kPages = 10000;
  auto populate = [](Kernel& k) {
    auto s = k.CreateSpace("big");
    s->SetAnonRange(0x10000, 64u << 20);
    for (uint32_t i = 0; i < kPages; ++i) {
      const uint32_t v = i * 2654435761u;
      ASSERT_TRUE(s->HostWrite(0x10000 + i * kPageSize, &v, 4));
    }
  };
  std::string err;

  KernelConfig cfg;
  Kernel a(cfg);
  populate(a);
  ConcurrentCkpt cc;
  ASSERT_TRUE(cc.Begin(a, /*delta=*/false, &err)) << err;
  a.CkptDrainAll();
  ASSERT_TRUE(cc.done());
  const MachineImage img = cc.Finish();
  ASSERT_GE(img.TotalPages(), static_cast<size_t>(kPages));
  EXPECT_GE(a.stats.ckpt_mark_pages, kPages);

  Kernel b(cfg);
  populate(b);
  MachineImage stw;
  ASSERT_TRUE(CaptureMachine(b, /*delta=*/false, &stw, &err)) << err;

  ASSERT_FALSE(a.stats.ckpt_pause_hist.empty());
  ASSERT_FALSE(b.stats.ckpt_pause_hist.empty());
  EXPECT_LT(a.stats.ckpt_pause_hist.Max(), b.stats.ckpt_pause_hist.Max());
}

// --- Restart log: structured errors and recovery fallback ---

class CkptRestartLogTest : public testing::Test {
 protected:
  // Commits gen 1 (full), 2 and 3 (deltas) from one evolving world.
  void CommitThreeGenerations() {
    world = std::make_unique<World>(KernelConfig{});
    std::string err;
    MachineImage img;
    uint64_t parent = 0;
    for (uint32_t gen = 1; gen <= 3; ++gen) {
      RunTo(world->kernel, gen * (kNsPerMs / 4));
      ASSERT_TRUE(CaptureMachine(world->kernel, /*delta=*/gen > 1, &img, &err)) << err;
      img.generation = gen;
      img.base_generation = gen > 1 ? gen - 1 : 0;
      img.parent_digest = gen > 1 ? parent : 0;
      const std::vector<uint8_t> bytes = SerializeMachine(img);
      ASSERT_TRUE(CommitGeneration(store, gen, bytes));
      parent = ImageDigest(bytes);
    }
  }

  std::unique_ptr<World> world;
  MemCkptStore store;
};

TEST_F(CkptRestartLogTest, TruncatedChainIsAStructuredError) {
  CommitThreeGenerations();
  store.blobs().erase(CkptImageName(1));  // the base vanishes

  MachineImage out;
  std::string err;
  const std::vector<RestartRecord> log = ReadRestartLog(store);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_FALSE(LoadGeneration(store, log, 2, &out, &err));
  EXPECT_NE(err.find("truncated delta chain"), std::string::npos) << err;

  // Every chain needs the base, so recovery reports the newest failure.
  uint64_t gen = 0;
  EXPECT_FALSE(RecoverLatest(store, &out, &gen, &err));
  EXPECT_NE(err.find("truncated delta chain"), std::string::npos) << err;
}

TEST_F(CkptRestartLogTest, GenerationGapFallsBackToLastValid) {
  CommitThreeGenerations();
  // Splice generation 2's record out of the log: gen 3 now chains to an
  // unlogged generation.
  auto& log_blob = store.blobs()[kRestartLogName];
  ASSERT_EQ(log_blob.size(), 3 * kRestartRecordBytes);
  log_blob.erase(log_blob.begin() + kRestartRecordBytes,
                 log_blob.begin() + 2 * kRestartRecordBytes);

  MachineImage out;
  std::string err;
  const std::vector<RestartRecord> log = ReadRestartLog(store);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_FALSE(LoadGeneration(store, log, 1, &out, &err));
  EXPECT_NE(err.find("generation gap"), std::string::npos) << err;

  // RecoverLatest falls back across the gap to the full generation 1.
  uint64_t gen = 0;
  ASSERT_TRUE(RecoverLatest(store, &out, &gen, &err)) << err;
  EXPECT_EQ(gen, 1u);
  EXPECT_EQ(out.base_generation, 0u);
}

TEST_F(CkptRestartLogTest, TornLogTailEndsTheScanCleanly) {
  CommitThreeGenerations();
  auto& log_blob = store.blobs()[kRestartLogName];
  log_blob.resize(2 * kRestartRecordBytes + 11);  // torn third record

  const std::vector<RestartRecord> log = ReadRestartLog(store);
  ASSERT_EQ(log.size(), 2u);
  MachineImage out;
  uint64_t gen = 0;
  std::string err;
  ASSERT_TRUE(RecoverLatest(store, &out, &gen, &err)) << err;
  EXPECT_EQ(gen, 2u);
}

// Flip every byte of every stored generation (and of the log itself): the
// outcome is a clean structured error or a correct fallback to an intact
// generation -- never divergence, never a crash. "Correct" is literal: a
// successful recovery must reproduce one of the pristine merge results
// byte for byte.
TEST_F(CkptRestartLogTest, FlipEveryByteOfEveryGenerationNeverDiverges) {
  // A miniature world and two generations keep the byte count (and hence
  // the flip-loop runtime) reasonable.
  world = std::make_unique<World>(KernelConfig{}, /*rounds=*/60, /*writer_rounds=*/60,
                                  /*writer_pages=*/4, /*cold_pages=*/2);
  std::string err;
  MachineImage img;
  uint64_t parent = 0;
  for (uint32_t gen = 1; gen <= 2; ++gen) {
    RunTo(world->kernel, gen * (kNsPerMs / 4));
    ASSERT_TRUE(CaptureMachine(world->kernel, /*delta=*/gen > 1, &img, &err)) << err;
    img.generation = gen;
    img.base_generation = gen > 1 ? gen - 1 : 0;
    img.parent_digest = gen > 1 ? parent : 0;
    const std::vector<uint8_t> bytes = SerializeMachine(img);
    ASSERT_TRUE(CommitGeneration(store, gen, bytes));
    parent = ImageDigest(bytes);
  }

  // Pristine recovery results for both generations, for the equality check.
  const std::vector<RestartRecord> log = ReadRestartLog(store);
  ASSERT_EQ(log.size(), 2u);
  MachineImage g1, g2;
  ASSERT_TRUE(LoadGeneration(store, log, 0, &g1, &err)) << err;
  ASSERT_TRUE(LoadGeneration(store, log, 1, &g2, &err)) << err;
  const std::vector<uint8_t> want1 = SerializeMachine(g1);
  const std::vector<uint8_t> want2 = SerializeMachine(g2);

  const std::string names[] = {CkptImageName(1), CkptImageName(2), kRestartLogName};
  for (const std::string& name : names) {
    std::vector<uint8_t>& blob = store.blobs()[name];
    for (size_t i = 0; i < blob.size(); ++i) {
      blob[i] ^= 0x5A;
      MachineImage out;
      uint64_t gen = 0;
      std::string e;
      if (RecoverLatest(store, &out, &gen, &e)) {
        const std::vector<uint8_t> got = SerializeMachine(out);
        EXPECT_TRUE((gen == 1 && got == want1) || (gen == 2 && got == want2))
            << name << " byte " << i << ": recovered gen " << gen << " diverged";
      } else {
        EXPECT_FALSE(e.empty()) << name << " byte " << i;
      }
      blob[i] ^= 0x5A;
    }
  }
}

// A store written when ImageDigest was byte-serial FNV-1a: the images are
// byte-identical v3 streams, but the log names them by their FNV-1a
// digests, so recovery refuses every generation with the structured digest
// error instead of loading it.
TEST_F(CkptRestartLogTest, FnvDigestStoreFailsRecoveryWithDigestMismatch) {
  auto fnv1a = [](const std::vector<uint8_t>& bytes) {
    uint64_t h = 14695981039346656037ull;
    for (uint8_t b : bytes) {
      h = (h ^ b) * 1099511628211ull;
    }
    return h;
  };
  world = std::make_unique<World>(KernelConfig{}, /*rounds=*/60, /*writer_rounds=*/60,
                                  /*writer_pages=*/4, /*cold_pages=*/2);
  std::string err;
  MachineImage img;
  uint64_t digest = 0;  // the previous generation's until this one is hashed
  for (uint32_t gen = 1; gen <= 2; ++gen) {
    RunTo(world->kernel, gen * (kNsPerMs / 4));
    ASSERT_TRUE(CaptureMachine(world->kernel, /*delta=*/gen > 1, &img, &err)) << err;
    img.generation = gen;
    img.base_generation = gen > 1 ? gen - 1 : 0;
    img.parent_digest = gen > 1 ? digest : 0;
    const std::vector<uint8_t> bytes = SerializeMachine(img);
    digest = fnv1a(bytes);
    ASSERT_TRUE(store.Put(CkptImageName(gen), bytes));
    ASSERT_TRUE(store.Append(kRestartLogName, wire::Encode([&](auto& w) {
      w.U64(gen);
      w.U64(digest);
      w.U64(bytes.size());
      w.Crc32Since(0);
    })));
  }

  const std::vector<RestartRecord> log = ReadRestartLog(store);
  ASSERT_EQ(log.size(), 2u);
  MachineImage out;
  for (size_t i = 0; i < log.size(); ++i) {
    EXPECT_FALSE(LoadGeneration(store, log, i, &out, &err));
    EXPECT_EQ(err, "image digest mismatch for generation " + std::to_string(i + 1));
  }
  uint64_t gen = 0;
  EXPECT_FALSE(RecoverLatest(store, &out, &gen, &err));
  EXPECT_NE(err.find("image digest mismatch"), std::string::npos) << err;
}

// --- Stream robustness and the pinned layout ---

TEST(CkptImageV3Test, FlipEveryByteIsRejected) {
  World w(KernelConfig{}, /*rounds=*/60, /*writer_rounds=*/60, /*writer_pages=*/4,
          /*cold_pages=*/2);
  RunTo(w.kernel, kNsPerMs / 2);
  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureMachine(w.kernel, /*delta=*/false, &img, &err)) << err;
  const std::vector<uint8_t> good = SerializeMachine(img);
  for (size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x5A;
    MachineImage out;
    std::string e;
    EXPECT_FALSE(DeserializeImage(bad, &out, &e)) << "byte " << i;
  }
}

TEST(CkptImageV3Test, RoundTripsThroughTheWire) {
  World w((KernelConfig()));
  RunTo(w.kernel, kNsPerMs / 2);
  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureMachine(w.kernel, /*delta=*/false, &img, &err)) << err;
  const std::vector<uint8_t> wire = SerializeMachine(img);
  MachineImage back;
  ASSERT_TRUE(DeserializeImage(wire, &back, &err)) << err;
  EXPECT_EQ(SerializeMachine(back), wire);

  Kernel k2(KernelConfig{});
  const MachineRestoreResult r = RestoreMachine(k2, back, w.registry);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(k2.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  for (Thread* t : r.threads) {
    EXPECT_EQ(t->exit_code, 0u);
  }
}

// The v3 layout does not depend on the image digest: a deterministic
// machine's full and delta streams keep the size and whole-stream CRC
// trailer recorded when ImageDigest was FNV-1a. The delta's parent_digest is
// a fixed value, so nothing here hashes.
TEST(CkptImageV3Test, LayoutIsPinned) {
  World w(KernelConfig{}, /*rounds=*/60, /*writer_rounds=*/60, /*writer_pages=*/4,
          /*cold_pages=*/2);
  RunTo(w.kernel, kNsPerMs / 4);
  MachineImage img;
  std::string err;
  ASSERT_TRUE(CaptureMachine(w.kernel, /*delta=*/false, &img, &err)) << err;
  const std::vector<uint8_t> full = SerializeMachine(img);
  RunTo(w.kernel, kNsPerMs / 2);
  ASSERT_TRUE(CaptureMachine(w.kernel, /*delta=*/true, &img, &err)) << err;
  img.generation = 2;
  img.base_generation = 1;
  img.parent_digest = 0x0123456789ABCDEFull;
  const std::vector<uint8_t> delta = SerializeMachine(img);

  EXPECT_EQ(full.size(), kPinFullSize);
  EXPECT_EQ(wire::LoadLe32(full.data() + full.size() - 4), kPinFullCrc);
  EXPECT_EQ(delta.size(), kPinDeltaSize);
  EXPECT_EQ(wire::LoadLe32(delta.data() + delta.size() - 4), kPinDeltaCrc);
}

// --- Structured refusals ---

TEST(CkptRefusalTest, RefusesOutsideTheCheckpointableSubset) {
  std::string err;
  ConcurrentCkpt cc;

  KernelConfig mp;
  mp.num_cpus = 2;
  Kernel kmp(mp);
  EXPECT_FALSE(cc.Begin(kmp, /*delta=*/false, &err));
  EXPECT_NE(err.find("num_cpus"), std::string::npos) << err;

  KernelConfig cfg;
  Kernel k(cfg);
  EXPECT_FALSE(cc.Begin(k, /*delta=*/true, &err));
  EXPECT_NE(err.find("without a prior full"), std::string::npos) << err;

  MachineImage delta;
  delta.generation = 2;
  delta.base_generation = 1;
  ProgramRegistry registry;
  const MachineRestoreResult r = RestoreMachine(k, delta, registry);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("unmerged delta"), std::string::npos) << r.error;
}

// A task checkpoint captures one space, so a thread connected to a thread in
// another space is refused -- before anything is stopped.
TEST(CkptRefusalTest, TaskWithAPeerInAnotherSpaceIsRefused) {
  World w((KernelConfig()));
  RunTo(w.kernel, kNsPerMs / 2);
  Thread* client = w.all[1];
  ASSERT_NE(client->ipc_peer, nullptr);
  ASSERT_NE(client->ipc_peer->space, client->space);
  std::vector<ThreadRun> before;
  for (const Thread* t : client->space->threads) {
    before.push_back(t->run_state);
  }
  MachineImage img;
  std::string err;
  EXPECT_FALSE(CaptureSpace(w.kernel, *client->space, &img, &err));
  EXPECT_EQ(err, "ipc peer is not a captured thread");
  EXPECT_TRUE(img.spaces.empty());
  std::vector<ThreadRun> after;
  for (const Thread* t : client->space->threads) {
    EXPECT_NE(t->run_state, ThreadRun::kStopped);
    after.push_back(t->run_state);
  }
  EXPECT_EQ(before, after);
}

// Space names are not unique (the space-create syscall names every space
// "user-space"), and a delta's spaces pair with their parent's by name. Two
// spaces named "dup" hold different words; after only the first is
// rewritten, a delta used to merge the first space's memory into the
// second. The delta capture is refused instead, and a chain that would
// have to pair duplicate names does not merge.
TEST(CkptRefusalTest, DeltaOfSpacesSharingANameIsRefused) {
  Kernel k((KernelConfig()));
  auto first = k.CreateSpace("dup");
  auto second = k.CreateSpace("dup");
  first->SetAnonRange(0x10000, 1 << 16);
  second->SetAnonRange(0x10000, 1 << 16);
  const uint32_t a = 0xaaaa0001, b = 0xbbbb0002, a2 = 0xaaaa0003;
  ASSERT_TRUE(first->HostWrite(0x10000, &a, 4));
  ASSERT_TRUE(second->HostWrite(0x10000, &b, 4));

  std::string err;
  MachineImage full;
  ASSERT_TRUE(CaptureMachine(k, /*delta=*/false, &full, &err)) << err;
  ASSERT_TRUE(first->HostWrite(0x10000, &a2, 4));
  MachineImage delta;
  EXPECT_FALSE(CaptureMachine(k, /*delta=*/true, &delta, &err));
  EXPECT_EQ(err, "delta checkpoint of live spaces that share the name \"dup\"");

  MachineImage next = full;
  next.generation = 2;
  next.base_generation = 1;
  MachineImage merged;
  EXPECT_FALSE(MergeImageChain({full, next}, &merged, &err));
  EXPECT_EQ(err, "duplicate space name \"dup\" in a delta chain");
}

// c1m at 2000 clients, whose spill-slot range is not a whole number of
// pages: the workload rounds its client spaces' anonymous range up to one,
// so a mid-run capture decodes (the decoder still rejects unaligned ranges)
// and the restored machine replays to the end state of the run it was
// captured from.
TEST(CkptC1mTest, UnalignedClientCountRestoresAndReplays) {
  const KernelConfig cfg;
  C1mParams p;
  p.clients = 2000;
  const Time budget = kNsPerMs * (2000 + 2ull * p.clients);
  ProgramRegistry registry;
  Kernel k(cfg, &registry);
  const std::vector<Thread*> threads = BuildC1mWorkload(k, p);
  for (const auto& t : k.threads()) {
    registry.Register(t->program);
  }

  // 30 ms in, the clients are mid-way through their RPC/sleep rounds.
  RunTo(k, 30 * kNsPerMs);
  ConcurrentCkpt cc;
  std::string err;
  ASSERT_TRUE(cc.Begin(k, /*delta=*/false, &err)) << err;
  for (int i = 0; !cc.done() && i < 10000; ++i) {
    k.Run(k.clock.now() + kSlice);
  }
  ASSERT_TRUE(cc.done()) << "drain never completed";
  MachineImage img = cc.Finish();
  img.generation = 1;
  MachineImage decoded;
  ASSERT_TRUE(DeserializeImage(SerializeMachine(img), &decoded, &err)) << err;

  // The captured run goes on uninterrupted to its end...
  const Time deadline = k.clock.now() + budget;
  for (Thread* t : threads) {
    ASSERT_TRUE(k.RunUntilThreadDone(t, deadline - k.clock.now()));
  }

  // ...and the restored machine's clients and master finish there too.
  Kernel k2(cfg);
  const MachineRestoreResult r = RestoreMachine(k2, decoded, registry);
  ASSERT_TRUE(r.ok) << r.error;
  size_t finishers = 0;
  const Time deadline2 = k2.clock.now() + budget;
  for (Thread* t : r.threads) {
    if (t->program->name() == "c1m-server") {
      continue;  // the pool never exits
    }
    ++finishers;
    ASSERT_TRUE(k2.RunUntilThreadDone(t, deadline2 - k2.clock.now()));
    EXPECT_EQ(t->exit_code, 0u);
  }
  EXPECT_GT(finishers, 1000u);
  EXPECT_EQ(FinalStateDigest(k2), FinalStateDigest(k));
}

// --- Observability surfaces ---

TEST(CkptStatsTest, CountersAndPauseHistogramAreExported) {
  World w((KernelConfig()));
  MemCkptStore store;
  const CkptRun run = RunCheckpointed(w.kernel, w.all, store, kNsPerMs / 2, /*delta=*/true,
                                      60ull * 1000 * kNsPerMs);
  ASSERT_TRUE(AllDead(w.all));
  ASSERT_GE(run.generations, 2u);
  EXPECT_GT(w.kernel.stats.ckpt_pages_full, 0u);
  EXPECT_GT(w.kernel.stats.ckpt_pages_delta, 0u);
  EXPECT_GT(w.kernel.stats.ckpt_mark_pages, 0u);

  const std::string json = StatsJson(w.kernel);
  EXPECT_NE(json.find("\"ckpt_generations\""), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_pages_full\""), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_pages_delta\""), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_cow_saves\""), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_mark_pages\""), std::string::npos);
  EXPECT_NE(json.find("\"ckpt_pause_hist\""), std::string::npos);

  EXPECT_NE(DumpKernel(w.kernel).find("CKPT generations="), std::string::npos);
  Kernel quiet((KernelConfig()));
  EXPECT_EQ(DumpKernel(quiet).find("CKPT "), std::string::npos);
}

}  // namespace
}  // namespace fluke
