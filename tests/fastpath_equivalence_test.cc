// Fast-path equivalence: cfg.fast_path is a pure host-side optimization.
//
// The direct-handoff IPC send and the FastTrivial syscall completion must
// produce bit-identical *virtual* results to the coroutine slow path: same
// virtual clock, same registers and restart points, same memory, and the
// same value for every semantic statistics counter (Table 3/5/7 inputs).
// Only the host-side observability counters -- syscall_fast_entries,
// ipc_fast_handoffs, tlb_*, interp_*, ipc_page_lends -- may differ, and
// none of them appear in the comparison below.
//
// Coverage: five paper configurations x both interpreter engines x three
// workloads (trivial-syscall mix, RPC ping-pong, the atomicity-audit
// program), plus an armed-FaultPlan leg proving instrumentation forces the
// slow path (fast counters stay zero) while still converging identically.

#include <string>

#include "src/kern/inspect.h"
#include "src/workloads/audit.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class FastPathEquivalenceTest : public testing::TestWithParam<KernelConfig> {};

// Every counter the fast path is NOT allowed to change, flattened to a
// string so one comparison covers the lot. The host-side-only counters are
// deliberately absent (see stats.h for the contract).
std::string SemanticStats(const Kernel& k) {
  const KernelStats& s = k.stats;
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

struct Snapshot {
  Time final_time = 0;
  std::string state;  // DumpKernel + SemanticStats + workload-specific bits
  uint64_t fast_entries = 0;
  uint64_t ipc_handoffs = 0;
  uint64_t schedule_digest = 0;
};

Snapshot Snap(Kernel& k, const std::string& extra) {
  Snapshot s;
  s.final_time = k.clock.now();
  s.state = DumpKernel(k) + SemanticStats(k) + "\n" + extra;
  s.fast_entries = k.stats.syscall_fast_entries;
  s.ipc_handoffs = k.stats.ipc_fast_handoffs;
  s.schedule_digest = k.finj.ScheduleDigest();
  return s;
}

// ---------------------------------------------------------------------------
// Workload builders. Each takes a fully-formed config (fast_path / engine /
// fault_plan already set) and returns a snapshot of the end state.
// ---------------------------------------------------------------------------

// Trivial-syscall mix: 200 rounds of the four cheapest calls, then halt.
// Drives FastTrivial in every configuration.
Snapshot RunTrivialMix(KernelConfig cfg) {
  SimpleWorld w(cfg);
  Assembler a("trivmix");
  a.MovImm(kRegDI, 0);
  a.MovImm(kRegBP, 200);
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.Bind(loop);
  a.Bge(kRegDI, kRegBP, done);
  EmitSys(a, kSysNull);
  EmitSys(a, kSysClockGet);
  EmitSys(a, kSysThreadSelf);
  EmitSys(a, kSysPageSize);
  a.AddImm(kRegDI, kRegDI, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.Mov(kRegB, kRegA);  // exit code = last page_size result
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  if (cfg.fault_plan.enabled) {
    w.kernel.finj.Arm();
  }
  w.RunAll();
  return Snap(w.kernel, "exit=" + std::to_string(t->exit_code));
}

// RPC ping-pong (the BM_RpcRoundTrip workload): client and server bounce a
// one-word message through send-over-receive forever; we stop at a fixed
// virtual deadline. Drives FastIpcSend (direct handoff) on both sides in
// the non-fully-preemptive configurations.
Snapshot RunRpcPingPong(KernelConfig cfg) {
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
  if (cfg.fault_plan.enabled) {
    k.finj.Arm();
  }
  k.Run(k.clock.now() + 5 * kNsPerMs);

  uint32_t cw = 0, sw = 0;
  cs->HostRead(0x10000, &cw, 4);
  ss->HostRead(0x10000, &sw, 4);
  return Snap(k, "cmsg=" + std::to_string(cw) + " smsg=" + std::to_string(sw));
}

// The atomicity-audit program run as a plain workload: touches faults,
// memory, IPC and thread machinery in one deterministic program.
Snapshot RunAuditProgram(KernelConfig cfg) {
  SimpleWorld w(cfg);
  Thread* t = w.Spawn(BuildAuditProgram(SimpleWorld::kAnonBase));
  if (cfg.fault_plan.enabled) {
    w.kernel.finj.Arm();
  }
  w.RunAll();
  return Snap(w.kernel, "exit=" + std::to_string(t->exit_code));
}

// ---------------------------------------------------------------------------
// The equivalence sweep.
// ---------------------------------------------------------------------------

using WorkloadFn = Snapshot (*)(KernelConfig);

void ExpectEquivalent(const KernelConfig& base, WorkloadFn run, const char* what,
                      bool expect_entries, bool expect_handoffs) {
  for (const bool threaded : {false, true}) {
    KernelConfig off = base;
    off.interp_engine = threaded ? InterpEngine::kThreaded : InterpEngine::kSwitch;
    off.fast_path = false;
    KernelConfig on = off;
    on.fast_path = true;

    const Snapshot slow = run(off);
    const Snapshot fast = run(on);
    const std::string tag =
        std::string(what) + " [" + base.Label() + (threaded ? " threaded]" : " switch]");

    // Bit-identical virtual results.
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
  // Direct handoff is gated off under full preemption (a fast transfer
  // would skip the preemption points the slow path honours), and this
  // workload makes no trivial syscalls, so under FP the fast counters stay
  // zero; FP still runs the sweep to prove fast_path=true changes nothing.
  const bool handoffs = GetParam().preempt != PreemptMode::kFull;
  ExpectEquivalent(GetParam(), RunRpcPingPong, "rpc-ping-pong", handoffs, handoffs);
}

TEST_P(FastPathEquivalenceTest, AuditProgramBitIdentical) {
  ExpectEquivalent(GetParam(), RunAuditProgram, "audit-program",
                   /*expect_entries=*/true, /*expect_handoffs=*/false);
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

      const Snapshot slow = run(off);
      const Snapshot fast = run(on);
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

}  // namespace
}  // namespace fluke
