// Kernel trace-buffer tests: event capture, ring-buffer wrap, the
// model-distinguishing restart events (a blocked op re-entered in the
// interrupt model traces as sys-restart; a resumed one in the process
// model does not re-enter at all), span pairing, IPC flow linkage, the
// trace-derived profile/digest, and the zero-observation guarantee of a
// disarmed run.

#include <map>
#include <set>

#include "src/kern/legacy.h"
#include "src/kern/profile.h"
#include "src/kern/trace_export.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

TEST(TraceBuffer, DisabledRecordsNothing) {
  TraceBuffer tb(8);
  tb.Record(1, TraceKind::kWake, 42);
  EXPECT_EQ(tb.size(), 0u);
  EXPECT_EQ(tb.total_recorded(), 0u);
}

TEST(TraceBuffer, CapacityRoundsUpToPowerOfTwo) {
  TraceBuffer tb(5);
  EXPECT_EQ(tb.capacity(), 8u);
  tb.SetCapacity(1);
  EXPECT_EQ(tb.capacity(), 2u);
  tb.SetCapacity(64);
  EXPECT_EQ(tb.capacity(), 64u);
}

TEST(TraceBuffer, DroppedCountsRingOverwrites) {
  TraceBuffer tb(4);
  tb.Enable();
  for (uint32_t i = 0; i < 4; ++i) {
    tb.Record(i, TraceKind::kWake, i);
  }
  EXPECT_EQ(tb.dropped(), 0u);
  for (uint32_t i = 4; i < 10; ++i) {
    tb.Record(i, TraceKind::kWake, i);
  }
  EXPECT_EQ(tb.total_recorded(), 10u);
  EXPECT_EQ(tb.dropped(), 6u);
}

TEST(TraceBuffer, SpanIdsAreMonotonicAndZeroWhenDisabled) {
  TraceBuffer tb(16);
  EXPECT_EQ(tb.BeginSpan(1, TraceKind::kSyscallEnter, 1), 0u);
  tb.EndSpan(2, TraceKind::kSyscallExit, 0, 1);  // id 0: ignored
  EXPECT_EQ(tb.size(), 0u);
  tb.Enable();
  const uint64_t s1 = tb.BeginSpan(3, TraceKind::kSyscallEnter, 1);
  const uint64_t s2 = tb.BeginSpan(4, TraceKind::kBlock, 2);
  EXPECT_LT(0u, s1);
  EXPECT_LT(s1, s2);
  tb.EndSpan(5, TraceKind::kWake, s2, 2);
  const auto v = tb.Snapshot();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0].phase, TracePhase::kBegin);
  EXPECT_EQ(v[2].phase, TracePhase::kEnd);
  EXPECT_EQ(v[2].span_id, s2);
}

TEST(TraceBuffer, FlowEmitsPairedOutAndIn) {
  TraceBuffer tb(16);
  tb.Enable();
  const uint64_t id = tb.Flow(9, /*from_tid=*/3, /*to_tid=*/7, 42);
  ASSERT_NE(id, 0u);
  const auto v = tb.Snapshot();
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].phase, TracePhase::kFlowOut);
  EXPECT_EQ(v[0].thread_id, 3u);
  EXPECT_EQ(v[1].phase, TracePhase::kFlowIn);
  EXPECT_EQ(v[1].thread_id, 7u);
  EXPECT_EQ(v[0].span_id, id);
  EXPECT_EQ(v[1].span_id, id);
  EXPECT_EQ(v[0].when, v[1].when);
}

TEST(LogHistogram, ExactMomentsAndBucketPercentiles) {
  LogHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.Percentile(0.5), 0u);
  h.Add(0);
  h.Add(1);
  h.Add(100);
  h.Add(1000);
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 1101u);
  EXPECT_EQ(h.Avg(), 275u);
  EXPECT_EQ(h.Max(), 1000u);
  // Percentiles resolve to the bucket's upper bound, clamped by the exact
  // max: p50 lands in the v==1 bucket, p95/p100 in the 1000 bucket.
  EXPECT_EQ(h.Percentile(0.50), 1u);
  EXPECT_EQ(h.Percentile(0.95), 1000u);
  EXPECT_EQ(h.Percentile(1.0), 1000u);
}

TEST(TraceBuffer, RingWrapKeepsNewest) {
  TraceBuffer tb(4);
  tb.Enable();
  for (uint32_t i = 0; i < 10; ++i) {
    tb.Record(i, TraceKind::kWake, i);
  }
  EXPECT_EQ(tb.total_recorded(), 10u);
  auto v = tb.Snapshot();
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.front().when, 6u);  // oldest surviving
  EXPECT_EQ(v.back().when, 9u);   // newest
}

TEST(TraceBuffer, DumpIsReadable) {
  TraceBuffer tb;
  tb.Enable();
  tb.Record(5000, TraceKind::kSyscallEnter, 7, kSysMutexLock);
  const std::string d = tb.Dump();
  EXPECT_NE(d.find("sys-enter"), std::string::npos);
  EXPECT_NE(d.find("sys_MutexLock"), std::string::npos);
  EXPECT_NE(d.find("t7"), std::string::npos);
}

class TraceKernelTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(TraceKernelTest, SyscallLifecycleTraced) {
  SimpleWorld w(GetParam());
  w.kernel.trace.Enable();
  Assembler a("t");
  EmitSys(a, kSysNull);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  int enters = 0, exits = 0, thread_exits = 0;
  for (const auto& e : w.kernel.trace.Snapshot()) {
    if (e.kind == TraceKind::kSyscallEnter && e.a == kSysNull) {
      ++enters;
    }
    if (e.kind == TraceKind::kSyscallExit && e.a == kSysNull) {
      ++exits;
      EXPECT_EQ(e.b, kFlukeOk);
    }
    if (e.kind == TraceKind::kThreadExit) {
      ++thread_exits;
    }
  }
  EXPECT_EQ(enters, 1);
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(thread_exits, 1);
}

// An invalid entrypoint completes at entry and leaves through the same
// syscall-exit tail as every completed call: its span closes before the
// exit charge, and the exit costs what null's does, the interrupt model's
// extra included. With the same user code after each call (EmitSys's movi
// before the next syscall), the gap from one span's end to the next span's
// begin is exactly that exit plus one ALU cycle.
TEST_P(TraceKernelTest, InvalidEntrypointExitsLikeNull) {
  constexpr uint32_t kInvalid = kSysCount;  // no such call; not a pseudo-syscall
  static_assert(kInvalid < kPsysBase);
  SimpleWorld w(GetParam());
  w.kernel.trace.Enable();
  Assembler a("t");
  EmitSys(a, kSysNull);
  EmitSys(a, kInvalid);
  EmitSys(a, kSysNull);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  std::vector<Time> begins, ends;
  std::vector<uint32_t> results;
  for (const auto& e : w.kernel.trace.Snapshot()) {
    if (e.kind == TraceKind::kSyscallEnter && e.phase == TracePhase::kBegin) {
      begins.push_back(e.when);
    } else if (e.kind == TraceKind::kSyscallExit && e.phase == TracePhase::kEnd) {
      ends.push_back(e.when);
      results.push_back(e.b);
    }
  }
  ASSERT_EQ(begins.size(), 3u);
  ASSERT_EQ(ends.size(), 3u);
  EXPECT_EQ(results[0], kFlukeOk);
  EXPECT_EQ(results[1], kFlukeErrBadArgument);
  const CostModel& c = w.kernel.costs;
  const uint64_t exit =
      c.syscall_exit +
      (GetParam().model == ExecModel::kInterrupt ? c.interrupt_exit_extra : 0);
  EXPECT_EQ(begins[1] - ends[0], Cycles(exit + kCostAlu)) << "after null";
  EXPECT_EQ(begins[2] - ends[1], Cycles(exit + kCostAlu)) << "after the invalid call";
}

TEST_P(TraceKernelTest, RestartEventsDistinguishTheModels) {
  SimpleWorld w(GetParam());
  w.kernel.trace.Enable();
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler a("t");
  EmitSys(a, kSysMutexLock, m);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  mutex->locked = false;
  w.kernel.WakeOne(&mutex->waiters);
  w.RunAll();

  int blocks = 0, wakes = 0, restarts = 0;
  for (const auto& e : w.kernel.trace.Snapshot()) {
    if (e.kind == TraceKind::kBlock && e.a == kSysMutexLock) {
      ++blocks;
    }
    if (e.kind == TraceKind::kWake && e.thread_id == t->id()) {
      ++wakes;
    }
    if (e.kind == TraceKind::kSyscallRestart) {
      ++restarts;
    }
  }
  EXPECT_EQ(blocks, 1);
  EXPECT_EQ(wakes, 1);
  // THE execution-model signature: the interrupt model re-enters the
  // syscall from the registers; the process model resumes the retained
  // frame and never re-enters.
  if (GetParam().model == ExecModel::kInterrupt) {
    EXPECT_EQ(restarts, 1);
  } else {
    EXPECT_EQ(restarts, 0);
  }
}

TEST_P(TraceKernelTest, FaultsTraced) {
  SimpleWorld w(GetParam());
  w.kernel.trace.Enable();
  Assembler a("t");
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 0x5000);
  a.LoadB(kRegB, kRegC, 0);  // soft (anon zero-fill)
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  bool saw = false;
  for (const auto& e : w.kernel.trace.Snapshot()) {
    if (e.kind == TraceKind::kSoftFault && e.a == SimpleWorld::kAnonBase + 0x5000) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, TraceKernelTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

// ---------------------------------------------------------------------------
// Span / flow / digest semantics over a real IPC workload.
// ---------------------------------------------------------------------------

// A bounded RPC ping-pong: the client bounces `rounds` one-word messages off
// an echo server and halts; the server exits when the hung-up client fails
// its next ack. Quiesces on its own, so every span closes.
std::unique_ptr<Kernel> RunRpc(KernelConfig cfg, bool traced, uint32_t rounds = 100) {
  auto k = std::make_unique<Kernel>(cfg);
  if (traced) {
    k->trace.SetCapacity(size_t{1} << 18);
    k->trace.Enable();
  }
  auto cs = k->CreateSpace("cl");
  auto ss = k->CreateSpace("sv");
  cs->SetAnonRange(0x10000, 1 << 20);
  ss->SetAnonRange(0x10000, 1 << 20);
  auto port = k->NewPort(1);
  const Handle sp = k->Install(ss, port);
  const Handle cr = k->Install(cs, k->NewReference(port));

  Assembler ca("client");
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

  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, 0x10000, 1);
  sa.MovImm(kRegBP, kFlukeOk);
  const auto sloop = sa.NewLabel();
  sa.Bind(sloop);
  EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, 0x10100, 1, 0x10000, 1);
  sa.Beq(kRegA, kRegBP, sloop);
  sa.MovImm(kRegB, 0);
  sa.Halt();
  ss->program = sa.Build();

  k->StartThread(k->CreateThread(ss));
  k->StartThread(k->CreateThread(cs));
  k->Run(k->clock.now() + 20 * kNsPerMs);
  return k;
}

TEST_P(TraceKernelTest, EverySpanBeginHasAMatchingEnd) {
  auto k = RunRpc(GetParam(), /*traced=*/true);
  ASSERT_EQ(k->trace.dropped(), 0u);
  std::set<uint64_t> open;
  for (const auto& e : k->trace.Snapshot()) {
    if (e.phase == TracePhase::kBegin) {
      EXPECT_TRUE(open.insert(e.span_id).second) << "span id reused";
    } else if (e.phase == TracePhase::kEnd) {
      EXPECT_EQ(open.erase(e.span_id), 1u) << "end without begin, span " << e.span_id;
    }
  }
  EXPECT_TRUE(open.empty()) << open.size() << " spans left open after quiescence";
}

TEST_P(TraceKernelTest, IpcFlowsLinkSenderToReceiver) {
  auto k = RunRpc(GetParam(), /*traced=*/true);
  std::map<uint64_t, const TraceEvent*> outs;
  int linked = 0;
  for (const auto& e : k->trace.Snapshot()) {
    if (e.kind != TraceKind::kIpcFlow) {
      continue;
    }
    if (e.phase == TracePhase::kFlowOut) {
      outs[e.span_id] = &e;
    } else if (e.phase == TracePhase::kFlowIn) {
      const auto it = outs.find(e.span_id);
      ASSERT_NE(it, outs.end()) << "flow-in without flow-out";
      EXPECT_NE(it->second->thread_id, e.thread_id) << "flow must cross threads";
      EXPECT_EQ(it->second->when, e.when);
      ++linked;
    }
  }
  // Every round trip wakes the peer at least once in each direction.
  EXPECT_GE(linked, 100);
}

TEST_P(TraceKernelTest, SyscallAndBlockHistogramsFillWhileTracing) {
  auto k = RunRpc(GetParam(), /*traced=*/true);
  EXPECT_GE(k->stats.sys_time_hist[kSysIpcClientSendOverReceive].count, 100u);
  EXPECT_GE(k->stats.sys_time_hist[kSysIpcServerAckSendOverReceive].count, 100u);
  EXPECT_FALSE(k->stats.block_hist.empty());
  EXPECT_GT(k->stats.block_hist.Percentile(0.95), 0u);
}

// The zero-observation guarantee: with tracing off (and no fault plan), the
// run records nothing and the trace-derived histograms never mutate.
TEST_P(TraceKernelTest, DisarmedRunRecordsAndMutatesNothing) {
  auto k = RunRpc(GetParam(), /*traced=*/false);
  EXPECT_EQ(k->trace.total_recorded(), 0u);
  EXPECT_EQ(k->trace.dropped(), 0u);
  EXPECT_TRUE(k->stats.block_hist.empty());
  for (uint32_t sys = 0; sys < kSysCount; ++sys) {
    EXPECT_TRUE(k->stats.sys_time_hist[sys].empty()) << SysName(sys);
  }
}

// THE cross-engine determinism contract: tracing forces the slow path, so
// the full event stream -- every field of every event -- must be
// bit-identical between the jit and switch interpreter engines.
TEST_P(TraceKernelTest, CrossEngineTraceDigestsIdentical) {
  KernelConfig sw = GetParam();
  sw.interp_engine = InterpEngine::kSwitch;
  KernelConfig th = GetParam();
  th.interp_engine = InterpEngine::kJit;
  auto a = RunRpc(sw, /*traced=*/true);
  auto b = RunRpc(th, /*traced=*/true);
  ASSERT_EQ(a->trace.dropped(), 0u);
  const auto ea = a->trace.Snapshot();
  const auto eb = b->trace.Snapshot();
  EXPECT_EQ(ea.size(), eb.size());
  EXPECT_EQ(TraceDigest(ea), TraceDigest(eb));
  EXPECT_EQ(a->clock.now(), b->clock.now());
}

// The same contract under MP: with 4 CPUs the trace is emitted in the merged
// per-CPU-round order (tracing selects the instrumented epoch loop), and the
// full event stream must be bit-identical across repeated runs and across
// both interpreter engines.
TEST_P(TraceKernelTest, MpTraceDigestsIdenticalAcrossRunsAndEngines) {
  KernelConfig sw = GetParam();
  sw.num_cpus = 4;
  sw.interp_engine = InterpEngine::kSwitch;
  KernelConfig th = sw;
  th.interp_engine = InterpEngine::kJit;
  auto a = RunRpc(sw, /*traced=*/true);
  auto b = RunRpc(sw, /*traced=*/true);
  auto c = RunRpc(th, /*traced=*/true);
  ASSERT_EQ(a->trace.dropped(), 0u);
  const auto ea = a->trace.Snapshot();
  EXPECT_FALSE(ea.empty());
  EXPECT_EQ(TraceDigest(ea), TraceDigest(b->trace.Snapshot()));
  EXPECT_EQ(TraceDigest(ea), TraceDigest(c->trace.Snapshot()));
  EXPECT_EQ(a->clock.now(), b->clock.now());
  EXPECT_EQ(a->clock.now(), c->clock.now());
  EXPECT_GT(a->stats.mp_epochs, 0u);
}

// The profiler partitions the run's virtual time exactly: per-class cpu_ns
// sums to the total with nothing lost or double-counted.
TEST_P(TraceKernelTest, ProfilePartitionsVirtualTimeExactly) {
  auto k = RunRpc(GetParam(), /*traced=*/true);
  const auto events = k->trace.Snapshot();
  const ProfileReport rep = BuildProfile(events, k->clock.now(), k->trace.dropped());
  EXPECT_EQ(rep.total_ns, k->clock.now());
  EXPECT_EQ(rep.accounted_ns, rep.total_ns);
  // The workload's syscalls show up as completed spans.
  uint64_t rpc_count = 0;
  for (const auto& r : rep.rows) {
    if (r.key == "sys:sys_IpcClientSendOverReceive") {
      rpc_count = r.count;
    }
  }
  EXPECT_GE(rpc_count, 100u);
  const std::string table = RenderProfile(rep);
  EXPECT_NE(table.find("sys:sys_IpcClientSendOverReceive"), std::string::npos);
  EXPECT_NE(table.find("total"), std::string::npos);
}

TEST_P(TraceKernelTest, ChromeExportIsBalanced) {
  auto k = RunRpc(GetParam(), /*traced=*/true);
  const std::string json = ExportChromeTrace(*k);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"B\""), count("\"ph\":\"E\""));
  EXPECT_EQ(count("\"ph\":\"s\""), count("\"ph\":\"f\""));
  EXPECT_GT(count("\"ph\":\"B\""), 0u);
  EXPECT_GT(count("\"ph\":\"s\""), 0u);
}

}  // namespace
}  // namespace fluke
