// Fast-path equivalence: cfg.fast_path is a pure host-side optimization.
//
// Every frameless twin (SyscallDef::fast: the trivial calls, uncontended
// mutex lock/unlock, clock_sleep, thread_interrupt, pure connect,
// accept-then-receive wait_receive, the two disconnects and the
// direct-handoff send, FP included) must produce bit-identical *virtual*
// results to the coroutine route it stands in for: same virtual clock, same
// registers and restart points, same memory, and the same value for every
// semantic statistics counter (Table 3/5/7 inputs). Only the host-side
// observability counters -- syscall_fast_entries, ipc_fast_handoffs, tlb_*,
// interp_*, ipc_page_lends -- may differ, and none of them appear in the
// comparison below.
//
// Coverage: five paper configurations x both interpreter engines x the
// workloads below (trivial-syscall mix, RPC ping-pong, the atomicity-audit
// program, the c1m shape with its interrupt sweep -- also at 4 CPUs --, the
// flukeperf shape with its latency probe, and the decline and cancel
// cases), traced runs whose trace streams and histograms must match too,
// plus an armed-FaultPlan leg proving instrumentation forces the slow path
// (fast counters stay zero) while still converging identically.

#include <string>

#include "src/kern/inspect.h"
#include "src/workloads/apps.h"
#include "src/workloads/audit.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class FastPathEquivalenceTest : public testing::TestWithParam<KernelConfig> {};

// Every counter the fast path is NOT allowed to change, flattened to a
// string so one comparison covers the lot. The host-side-only counters are
// deliberately absent (see stats.h for the contract).
std::string SemanticStats(const KernelStats& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "switches=%llu syscalls=%llu restarts=%llu preempt=%llu "
      "soft=%llu hard=%llu user=%llu scanned=%llu sysfaults=%llu "
      "instr=%llu inj=%llu extr=%llu audits=%llu oom=%llu panics=%llu "
      "rollback=%llu rsoft=%llu rhard=%llu "
      "frames=%llu fbytes=%llu flive=%llu fpeak=%llu bpeak=%llu "
      "probes=%llu misses=%llu "
      "ipcf=%llu/%llu/%llu/%llu",
      (unsigned long long)s.context_switches, (unsigned long long)s.syscalls,
      (unsigned long long)s.syscall_restarts, (unsigned long long)s.kernel_preemptions,
      (unsigned long long)s.soft_faults, (unsigned long long)s.hard_faults,
      (unsigned long long)s.user_faults, (unsigned long long)s.region_pages_scanned,
      (unsigned long long)s.syscall_faults, (unsigned long long)s.user_instructions,
      (unsigned long long)s.faults_injected, (unsigned long long)s.extractions_forced,
      (unsigned long long)s.restart_audits, (unsigned long long)s.oom_backoffs,
      (unsigned long long)s.panics, (unsigned long long)s.rollback_ns,
      (unsigned long long)s.remedy_soft_ns, (unsigned long long)s.remedy_hard_ns,
      (unsigned long long)s.frames_allocated, (unsigned long long)s.frame_bytes_allocated,
      (unsigned long long)s.frame_bytes_live, (unsigned long long)s.frame_bytes_live_peak,
      (unsigned long long)s.blocked_frame_bytes_peak, (unsigned long long)s.probe_runs,
      (unsigned long long)s.probe_misses,
      (unsigned long long)s.ipc_faults[0][0].count, (unsigned long long)s.ipc_faults[0][1].count,
      (unsigned long long)s.ipc_faults[1][0].count, (unsigned long long)s.ipc_faults[1][1].count);
  return buf;
}

std::string HistString(const LogHistogram& h) {
  std::string out = std::to_string(h.count) + "/" + std::to_string(h.sum) + "/" +
                    std::to_string(h.max) + ":";
  for (const uint64_t b : h.buckets) {
    out += std::to_string(b) + ",";
  }
  return out;
}

// Arms what the run's config asks for once the host-side setup is done,
// and, for a traced run, digests every trace event except the
// kIpcFastHandoff instants, which mark the fast route on purpose.
class Tap final : public TraceSink {
 public:
  Tap(Kernel& k, bool traced) : k_(k) {
    if (k.cfg.fault_plan.enabled) {
      k.finj.Arm();
    }
    if (traced) {
      k.trace.SetSink(this);
      k.trace.Enable();
    }
  }
  ~Tap() override { k_.trace.SetSink(nullptr); }
  Tap(const Tap&) = delete;
  Tap& operator=(const Tap&) = delete;

  void OnEvent(const TraceEvent& e) override {
    if (e.kind == TraceKind::kIpcFastHandoff) {
      return;
    }
    for (const uint64_t v : {e.when, e.span_id, e.thread_id, static_cast<uint64_t>(e.kind),
                             static_cast<uint64_t>(e.phase), static_cast<uint64_t>(e.a),
                             static_cast<uint64_t>(e.b)}) {
      digest_ = (digest_ ^ v) * 1099511628211ull;
    }
    ++events_;
  }

  // The trace digest and the histograms the trace feeds, for a traced run.
  std::string Summary() const {
    if (events_ == 0) {
      return "";
    }
    std::string out =
        "trace=" + std::to_string(events_) + "/" + std::to_string(digest_) + "\nblock=" +
        HistString(k_.stats.block_hist) + "\n";
    for (uint32_t sys = 0; sys < kSysCount; ++sys) {
      if (!k_.stats.sys_time_hist[sys].empty()) {
        out += std::to_string(sys) + "=" + HistString(k_.stats.sys_time_hist[sys]) + "\n";
      }
    }
    return out;
  }

 private:
  Kernel& k_;
  uint64_t digest_ = 14695981039346656037ull;
  uint64_t events_ = 0;
};

struct Snapshot {
  Time final_time = 0;
  std::string state;  // DumpKernel + SemanticStats + workload-specific bits
  uint64_t fast_entries = 0;
  uint64_t ipc_handoffs = 0;
  uint64_t schedule_digest = 0;
};

Snapshot Snap(Kernel& k, const Tap& tap, const std::string& extra) {
  Snapshot s;
  s.final_time = k.clock.now();
  s.state = DumpKernel(k) + SemanticStats(k.stats) + "\n" + extra + "\n" + tap.Summary();
  s.fast_entries = k.stats.syscall_fast_entries;
  s.ipc_handoffs = k.stats.ipc_fast_handoffs;
  s.schedule_digest = k.finj.ScheduleDigest();
  return s;
}

// ---------------------------------------------------------------------------
// Workload builders. Each takes a fully-formed config (fast_path / engine /
// fault_plan already set) and whether to trace, and returns a snapshot of
// the end state.
// ---------------------------------------------------------------------------

using WorkloadFn = Snapshot (*)(KernelConfig, bool traced);

// Emits `body` `n` times, counting in BP against SP (no syscall touches
// either).
template <typename Body>
void EmitLoop(Assembler& a, uint32_t n, Body body) {
  a.MovImm(kRegBP, 0);
  a.MovImm(kRegSP, n);
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.Bind(loop);
  a.Bge(kRegBP, kRegSP, done);
  body();
  a.AddImm(kRegBP, kRegBP, 1);
  a.Jmp(loop);
  a.Bind(done);
}

// Trivial-syscall mix: 200 rounds of the four cheapest calls, then halt.
// Drives FastTrivial in every configuration.
Snapshot RunTrivialMix(KernelConfig cfg, bool traced) {
  SimpleWorld w(cfg);
  Assembler a("trivmix");
  EmitLoop(a, 200, [&] {
    EmitSys(a, kSysNull);
    EmitSys(a, kSysClockGet);
    EmitSys(a, kSysThreadSelf);
    EmitSys(a, kSysPageSize);
  });
  a.Mov(kRegB, kRegA);  // exit code = last page_size result
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  Tap tap(w.kernel, traced);
  w.RunAll();
  return Snap(w.kernel, tap, "exit=" + std::to_string(t->exit_code));
}

// RPC ping-pong (the BM_RpcRoundTrip workload): client and server bounce a
// one-word message through send-over-receive forever; we stop at a fixed
// virtual deadline. Drives FastIpcSend (direct handoff) on both sides in
// every configuration, and the accept-then-receive wait_receive twin once.
Snapshot RunRpcPingPong(KernelConfig cfg, bool traced) {
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 1 << 20);
  ss->SetAnonRange(0x10000, 1 << 20);
  auto port = k.NewPort(1);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));

  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnect, cr);
  const auto loop = ca.NewLabel();
  ca.Bind(loop);
  EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, 0x10000, 1, 0x10100, 1);
  ca.Jmp(loop);
  cs->program = ca.Build();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 1);
  const auto sloop = sa.NewLabel();
  sa.Bind(sloop);
  EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, 0x10100, 1, 0x10000, 1);
  sa.Jmp(sloop);
  ss->program = sa.Build();
  k.StartThread(k.CreateThread(ss));
  k.StartThread(k.CreateThread(cs));
  Tap tap(k, traced);
  k.Run(k.clock.now() + 5 * kNsPerMs);

  uint32_t cw = 0, sw = 0;
  cs->HostRead(0x10000, &cw, 4);
  ss->HostRead(0x10000, &sw, 4);
  return Snap(k, tap, "cmsg=" + std::to_string(cw) + " smsg=" + std::to_string(sw));
}

// The atomicity-audit program run as a plain workload: touches faults,
// memory, IPC and thread machinery in one deterministic program.
Snapshot RunAuditProgram(KernelConfig cfg, bool traced) {
  SimpleWorld w(cfg);
  Thread* t = w.Spawn(BuildAuditProgram(SimpleWorld::kAnonBase));
  Tap tap(w.kernel, traced);
  w.RunAll();
  return Snap(w.kernel, tap, "exit=" + std::to_string(t->exit_code));
}

// The c1m shape at 200 clients: connect (queued or paired), one RPC,
// disconnect and sleep per round, then park; the master's interrupt sweep
// lands on parked sleepers (auto delay) or mid-storm on clients blocked in
// connect and receive (early sweep). Every twin but the mutex pair runs.
Snapshot RunC1mShape(KernelConfig cfg, bool traced, uint32_t sweep_delay_us) {
  Kernel k(cfg);
  C1mParams p;
  p.clients = 200;
  p.sweep_delay_us = sweep_delay_us;
  const std::vector<Thread*> done = BuildC1mWorkload(k, p);
  Tap tap(k, traced);
  bool completed = true;
  for (Thread* t : done) {
    completed = completed && k.RunUntilThreadDone(t, 2000 * kNsPerMs);
  }
  EXPECT_TRUE(completed);
  return Snap(k, tap, "mp=" + std::to_string(k.MpDigest()));
}
Snapshot RunC1mAutoSweep(KernelConfig cfg, bool traced) { return RunC1mShape(cfg, traced, 0); }
Snapshot RunC1mEarlySweep(KernelConfig cfg, bool traced) { return RunC1mShape(cfg, traced, 400); }

// flukeperf at small counts with the Table 6 latency probe: null calls,
// uncontended mutex pairs, RPCs, bulk sends and region searches, while the
// probe's irq_wait wakes every tick. RunFlukeperf owns its kernel, so the
// snapshot is its statistics and end time.
Snapshot RunFlukeperfShape(KernelConfig cfg, bool traced) {
  EXPECT_FALSE(traced) << "RunFlukeperf runs untraced";
  FlukeperfParams p;
  p.null_syscalls = 100;
  p.mutex_pairs = 300;
  p.rpc_rounds = 300;
  p.bulk_1mb_sends = 1;
  p.bulk_big_sends = 1;
  p.big_send_bytes = 64 * 1024;
  p.small_searches = 10;
  p.big_searches = 1;
  p.latency_probe = true;
  const AppResult r = RunFlukeperf(cfg, p);
  EXPECT_TRUE(r.completed);
  Snapshot s;
  s.final_time = r.elapsed_ns;
  s.state = SemanticStats(r.stats) + "\nprobe=" + HistString(r.stats.probe_hist);
  s.fast_entries = r.stats.syscall_fast_entries;
  s.ipc_handoffs = r.stats.ipc_fast_handoffs;
  return s;
}

// Decline: a contended mutex. The holder sleeps with the mutex held, so the
// contender's lock blocks (WakeOne must resume its frame) and the holder's
// unlock finds a waiter; the uncontended calls around them stay fast.
Snapshot RunContendedMutex(KernelConfig cfg, bool traced) {
  SimpleWorld w(cfg);
  const Handle m = w.kernel.Install(w.space, w.kernel.NewMutex());
  Assembler ha("holder");
  EmitLoop(ha, 20, [&] {
    EmitSys(ha, kSysMutexLock, m);
    EmitSys(ha, kSysClockSleep, 20);
    EmitSys(ha, kSysMutexUnlock, m);
    ha.Compute(200);
  });
  ha.Halt();
  Assembler ca("contender");
  EmitLoop(ca, 20, [&] {
    EmitSys(ca, kSysMutexLock, m);
    ca.Compute(100);
    EmitSys(ca, kSysMutexUnlock, m);
    EmitSys(ca, kSysClockSleep, 7);
  });
  ca.Halt();
  w.Spawn(ha.Build());
  w.Spawn(ca.Build());
  Tap tap(w.kernel, traced);
  w.RunAll();
  return Snap(w.kernel, tap, "");
}

// Decline: kernel messages to a server blocked in wait_receive with no
// client queued. The wait-phase block stays on the coroutine route, because
// DeliverKernelMsg wakes it through WakeServer (FinishWake refuses a
// frameless block, so a wrong twin would abort here).
Snapshot RunKmsgToWaitingServer(KernelConfig cfg, bool traced) {
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 1 << 16);
  ss->SetAnonRange(0x10000, 1 << 16);
  auto port = k.NewPort(7);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));
  Assembler sa("server");
  EmitLoop(sa, 10, [&] { EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 8); });
  sa.Halt();
  Assembler ca("sender");
  EmitLoop(ca, 10, [&] {
    EmitSys(ca, kSysClockSleep, 30);
    EmitSys(ca, kSysIpcClientOnewaySend, cr, 0x10000, 2, 0, 0);
  });
  ca.Halt();
  k.StartThread(k.CreateThread(ss, sa.Build()));
  k.StartThread(k.CreateThread(cs, ca.Build()));
  Tap tap(k, traced);
  EXPECT_TRUE(k.RunUntilQuiescent(1000 * kNsPerMs));
  return Snap(k, tap, "");
}

// Cancel: a client blocked framelessly in the receive stage of its
// send-over-receive (the server accepted it, took the request and sleeps
// instead of replying) and a sleeper, both cancelled mid-wait -- by a
// master's thread_interrupt, or by the host's SetThreadState then
// ResumeThread. Under FP the client's cancel must charge the fp_unlock of
// the engine frame it stands for; the sleeper's must not.
Snapshot RunCancelFramelessBlocks(KernelConfig cfg, bool traced, bool host_set_state) {
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 1 << 16);
  ss->SetAnonRange(0x10000, 1 << 16);
  auto port = k.NewPort(3);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));

  // Both sides touch their buffers first: the handoff needs them mapped.
  auto touch_buffers = [](Assembler& a) {
    a.MovImm(kRegC, 0x10000);
    a.StoreW(kRegC, kRegC, 0);
    a.StoreW(kRegC, kRegC, 0x100);
  };
  Assembler ca("client");
  touch_buffers(ca);
  EmitSys(ca, kSysIpcClientConnect, cr);
  EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, 0x10000, 1, 0x10100, 1);
  // Then keep the CPU busy past the server's reply, so no idle stretch
  // absorbs a wrong charge at the cancel: it shows in the end time.
  ca.MovImm(kRegC, 0x10000);
  ca.StoreW(kRegA, kRegC, 0x200);
  EmitCompute(ca, 1000000);
  ca.Halt();
  Assembler za("sleeper");
  EmitSys(za, kSysClockSleep, 1500);
  za.MovImm(kRegC, 0x10000);
  za.StoreW(kRegA, kRegC, 0x300);
  EmitCompute(za, 1000000);
  za.Halt();
  Assembler sa("server");
  touch_buffers(sa);
  EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 1);
  EmitSys(sa, kSysClockSleep, 2000);
  EmitSys(sa, kSysIpcServerAckSend, 0, 0x10100, 1, 0, 0);
  sa.Halt();
  // Queued first, so the server's wait_receive accepts it.
  Thread* client = k.CreateThread(cs, ca.Build());
  Thread* sleeper = k.CreateThread(cs, za.Build());
  k.StartThread(client);
  k.StartThread(k.CreateThread(ss, sa.Build()));
  k.StartThread(sleeper);
  if (!host_set_state) {
    Assembler ma("master");
    EmitSys(ma, kSysClockSleep, 500);
    EmitSys(ma, kSysThreadInterrupt, k.Install(cs, client));
    EmitSys(ma, kSysThreadInterrupt, k.Install(cs, sleeper));
    ma.Halt();
    k.StartThread(k.CreateThread(cs, ma.Build(), /*priority=*/6));
  }
  Tap tap(k, traced);
  k.Run(k.clock.now() + 400 * kNsPerUs);
  const bool frameless = k.cfg.fast_path && k.cfg.model == ExecModel::kProcess;
  for (Thread* t : {client, sleeper}) {
    EXPECT_EQ(t->run_state, ThreadRun::kBlocked);
    EXPECT_EQ(t->frameless_block, frameless);
  }
  if (host_set_state) {
    for (Thread* t : {client, sleeper}) {
      ThreadState st;
      EXPECT_TRUE(k.GetThreadState(t, &st));
      EXPECT_TRUE(k.SetThreadState(t, st));
      k.ResumeThread(t);
    }
  }
  EXPECT_TRUE(k.RunUntilQuiescent(1000 * kNsPerMs));
  uint32_t client_status = 0, sleeper_status = 0;
  cs->HostRead(0x10200, &client_status, 4);
  cs->HostRead(0x10300, &sleeper_status, 4);
  return Snap(k, tap, "client=" + std::to_string(client_status) +
                          " sleeper=" + std::to_string(sleeper_status));
}
Snapshot RunInterruptFramelessBlocks(KernelConfig cfg, bool traced) {
  return RunCancelFramelessBlocks(cfg, traced, false);
}
Snapshot RunSetStateFramelessBlocks(KernelConfig cfg, bool traced) {
  return RunCancelFramelessBlocks(cfg, traced, true);
}

// ---------------------------------------------------------------------------
// The equivalence sweep.
// ---------------------------------------------------------------------------

void ExpectEquivalent(const KernelConfig& base, WorkloadFn run, const char* what,
                      bool expect_entries, bool expect_handoffs, bool traced = false) {
  for (const bool threaded : {false, true}) {
    KernelConfig off = base;
    off.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
    off.fast_path = false;
    KernelConfig on = off;
    on.fast_path = true;

    const Snapshot slow = run(off, traced);
    const Snapshot fast = run(on, traced);
    const std::string tag =
        std::string(what) + " [" + base.Label() + (threaded ? " threaded]" : " switch]");

    // Bit-identical virtual results (and, traced, the same trace stream and
    // histograms apart from the kIpcFastHandoff instants).
    EXPECT_EQ(slow.final_time, fast.final_time) << tag;
    EXPECT_EQ(slow.state, fast.state) << tag;

    // The slow run never consults a fast handler; the fast run must have
    // actually exercised one (otherwise this test proves nothing).
    EXPECT_EQ(slow.fast_entries, 0u) << tag;
    EXPECT_EQ(slow.ipc_handoffs, 0u) << tag;
    if (expect_entries) {
      EXPECT_GT(fast.fast_entries, 0u) << tag;
    }
    if (expect_handoffs) {
      EXPECT_GT(fast.ipc_handoffs, 0u) << tag;
    }
  }
}

TEST_P(FastPathEquivalenceTest, TrivialSyscallsBitIdentical) {
  ExpectEquivalent(GetParam(), RunTrivialMix, "trivial-mix",
                   /*expect_entries=*/true, /*expect_handoffs=*/false);
}

TEST_P(FastPathEquivalenceTest, RpcDirectHandoffBitIdentical) {
  // The handoff runs in every configuration: under FP the one-word message
  // is a single chunk, so no Work() preemption point is skipped, and the
  // engine's KLockGuard is a real one.
  ExpectEquivalent(GetParam(), RunRpcPingPong, "rpc-ping-pong", true, true);
}

TEST_P(FastPathEquivalenceTest, AuditProgramBitIdentical) {
  ExpectEquivalent(GetParam(), RunAuditProgram, "audit-program",
                   /*expect_entries=*/true, /*expect_handoffs=*/false);
}

TEST_P(FastPathEquivalenceTest, C1mShapeBitIdentical) {
  ExpectEquivalent(GetParam(), RunC1mAutoSweep, "c1m", true, true);
  ExpectEquivalent(GetParam(), RunC1mEarlySweep, "c1m-early-sweep", true, true);
}

TEST_P(FastPathEquivalenceTest, C1mShapeAt4CpusBitIdentical) {
  // The snapshot carries MpDigest, the epoch dispatcher's schedule witness.
  KernelConfig cfg = GetParam();
  cfg.num_cpus = 4;
  ExpectEquivalent(cfg, RunC1mAutoSweep, "c1m-4cpu", true, true);
}

TEST_P(FastPathEquivalenceTest, FlukeperfShapeBitIdentical) {
  ExpectEquivalent(GetParam(), RunFlukeperfShape, "flukeperf", true, true);
}

TEST_P(FastPathEquivalenceTest, ContendedMutexDeclinesBitIdentical) {
  ExpectEquivalent(GetParam(), RunContendedMutex, "contended-mutex", true, false);
}

TEST_P(FastPathEquivalenceTest, KernelMessageToWaitingServerBitIdentical) {
  ExpectEquivalent(GetParam(), RunKmsgToWaitingServer, "kmsg-to-waiting-server", true, false);
}

TEST_P(FastPathEquivalenceTest, InterruptOfFramelessBlocksBitIdentical) {
  ExpectEquivalent(GetParam(), RunInterruptFramelessBlocks, "interrupt-frameless", true, true);
}

TEST_P(FastPathEquivalenceTest, SetThreadStateOnFramelessBlocksBitIdentical) {
  ExpectEquivalent(GetParam(), RunSetStateFramelessBlocks, "set-state-frameless", true, true);
}

// Traced runs keep the fast path (trace-only instrumentation), so the trace
// stream itself must not tell the routes apart: a fast call's span closes
// before the syscall-exit charge, as HandleOpOutcome closes it, and every
// chunk/flow/block event matches. Only the kIpcFastHandoff instants, which
// mark the fast route on purpose, are left out.
TEST_P(FastPathEquivalenceTest, TracedRunsMatchExceptHandoffInstants) {
  for (const WorkloadFn run : {RunTrivialMix, RunRpcPingPong, RunC1mEarlySweep}) {
    ExpectEquivalent(GetParam(), run, "traced", true, false, /*traced=*/true);
  }
}

// Armed instrumentation forces the slow path: with a FaultPlan enabled the
// fast handlers must never be consulted (fast counters stay zero), and the
// run with fast_path=true is identical -- including the fault-injection
// schedule digest -- to the run with fast_path=false.
TEST_P(FastPathEquivalenceTest, ArmedFaultPlanForcesSlowPathAndConverges) {
  for (const bool threaded : {false, true}) {
    for (const WorkloadFn run : {RunTrivialMix, RunRpcPingPong}) {
      KernelConfig off = GetParam();
      off.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
      off.fault_plan.enabled = true;
      off.fault_plan.seed = 0xFA57;
      off.fast_path = false;
      KernelConfig on = off;
      on.fast_path = true;

      const Snapshot slow = run(off, false);
      const Snapshot fast = run(on, false);
      const std::string tag =
          std::string("armed [") + GetParam().Label() + (threaded ? " threaded]" : " switch]");
      EXPECT_EQ(fast.fast_entries, 0u) << tag;
      EXPECT_EQ(fast.ipc_handoffs, 0u) << tag;
      EXPECT_EQ(slow.final_time, fast.final_time) << tag;
      EXPECT_EQ(slow.state, fast.state) << tag;
      EXPECT_EQ(slow.schedule_digest, fast.schedule_digest) << tag;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, FastPathEquivalenceTest,
                         testing::ValuesIn(AllPaperConfigs()), ConfigName);

// A frameless block ends only by completion or cancel: a wake would re-enter
// the syscall from the registers and charge syscall_entry twice. FinishWake
// refuses it with a recoverable panic and rolls the operation back instead.
TEST(FastPathGuardTest, FinishWakeRefusesAFramelessBlock) {
  SimpleWorld w(KernelConfig{});  // Process NP
  Assembler a("sleeper");
  EmitSys(a, kSysClockSleep, 1000);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 100 * kNsPerUs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  ASSERT_TRUE(t->frameless_block);

  std::string what;
  w.kernel.SetPanicHandler([&what](const char* msg) {
    what = msg;
    return true;
  });
  FinishWake(&w.kernel, t);
  EXPECT_EQ(what, "frameless block resumed");
  EXPECT_FALSE(t->frameless_block);
  EXPECT_EQ(t->kstack_bytes, 0u);
  EXPECT_EQ(t->timer_entry, nullptr);  // rolled back: its timeout is gone
  EXPECT_EQ(t->run_state, ThreadRun::kRunnable);
  w.RunAll();  // the sleep restarts from the registers and completes
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
}

}  // namespace
}  // namespace fluke
