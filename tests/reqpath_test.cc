// Request critical-path analytics tests (src/kern/reqpath.h).
//
//   * Exactness -- every reconstructed request's segments (service,
//     serve-peer, remedy, queue, xcpu-hop) sum to precisely its t1-t0, on
//     synthetic streams and on real traced RPC/c1m runs.
//   * Determinism -- the rendered tail report is byte-identical across all
//     three interpreter engines and across repeated 4-CPU runs, for every
//     paper configuration (the report is a pure function of the event
//     stream).
//   * Attribution -- a blocked client's window lands in serve-peer when the
//     waking server was executing syscalls, in queue when nothing
//     attributable ran, and in xcpu-hop when the wake crossed CPUs.

#include <memory>
#include <string>

#include "src/kern/reqpath.h"
#include "src/uvm/engine.h"
#include "src/workloads/apps.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

// The bounded RPC ping-pong from trace_test: client bounces `rounds`
// one-word messages off an echo server; both halt, so the run quiesces and
// every span closes.
std::unique_ptr<Kernel> RunRpc(KernelConfig cfg, uint32_t rounds = 50) {
  auto k = std::make_unique<Kernel>(cfg);
  k->trace.SetCapacity(size_t{1} << 18);
  k->trace.Enable();
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
  k->Run(k->clock.now() + 100 * kNsPerMs);
  return k;
}

void ExpectExactPartition(const ReqReport& rep) {
  uint64_t total = 0, parts = 0;
  for (const RequestPath& r : rep.requests) {
    EXPECT_EQ(r.service_ns + r.serve_peer_ns + r.remedy_ns + r.queue_ns + r.hop_ns, r.total_ns)
        << "request span " << r.span_id << " does not partition exactly";
    EXPECT_EQ(r.total_ns, static_cast<uint64_t>(r.t1 - r.t0));
    total += r.total_ns;
    parts += r.service_ns + r.serve_peer_ns + r.remedy_ns + r.queue_ns + r.hop_ns;
  }
  EXPECT_EQ(rep.service_ns + rep.serve_peer_ns + rep.remedy_ns + rep.queue_ns + rep.hop_ns,
            rep.total_ns);
  EXPECT_EQ(total, rep.total_ns);
  EXPECT_EQ(parts, rep.total_ns);
}

// ---------------------------------------------------------------------------
// Synthetic streams: attribution rules, one at a time.
// ---------------------------------------------------------------------------

// One request on tid 1 [100, 400]: blocked [150, 350], woken by tid 2 whose
// sys span covers [200, 300] of the window. Expect serve-peer 100, queue
// 100 (the uncovered window), service 100 (the unblocked remainder).
TEST(ReqPathSynthetic, PeerServiceAndQueueSplitTheWindow) {
  TraceBuffer tb(64);
  tb.Enable();
  const uint64_t req = tb.BeginSpan(100, TraceKind::kSyscallEnter, 1, kSysIpcClientSendOverReceive);
  const uint64_t blk = tb.BeginSpan(150, TraceKind::kBlock, 1, kSysIpcClientSendOverReceive);
  const uint64_t srv = tb.BeginSpan(200, TraceKind::kSyscallEnter, 2, kSysIpcServerAckSend);
  tb.EndSpan(300, TraceKind::kSyscallExit, srv, 2, kSysIpcServerAckSend, kFlukeOk);
  tb.Flow(350, /*from_tid=*/2, /*to_tid=*/1, /*a=*/0);
  tb.EndSpan(350, TraceKind::kWake, blk, 1, 0, 0);
  tb.EndSpan(400, TraceKind::kSyscallExit, req, 1, kSysIpcClientSendOverReceive, kFlukeOk);

  const ReqReport rep = BuildReqReport(tb.Snapshot(), 400);
  ASSERT_EQ(rep.requests.size(), 1u);
  const RequestPath& r = rep.requests[0];
  EXPECT_EQ(r.total_ns, 300u);
  EXPECT_EQ(r.serve_peer_ns, 100u);
  EXPECT_EQ(r.queue_ns, 100u);
  EXPECT_EQ(r.service_ns, 100u);
  EXPECT_EQ(r.remedy_ns, 0u);
  EXPECT_EQ(r.hop_ns, 0u);
  EXPECT_EQ(r.blocks, 1u);
  ExpectExactPartition(rep);
}

// The same shape with the flow flagged cross-CPU: the residual becomes an
// xcpu hop instead of queue time.
TEST(ReqPathSynthetic, CrossCpuWakeTurnsResidualIntoHop) {
  TraceBuffer tb(64);
  tb.Enable();
  const uint64_t req = tb.BeginSpan(100, TraceKind::kSyscallEnter, 1, kSysIpcClientSendOverReceive);
  const uint64_t blk = tb.BeginSpan(150, TraceKind::kBlock, 1, kSysIpcClientSendOverReceive);
  tb.Flow(350, 2, 1, /*a=*/1);  // cross-CPU
  tb.EndSpan(350, TraceKind::kWake, blk, 1, 0, 0);
  tb.EndSpan(400, TraceKind::kSyscallExit, req, 1, kSysIpcClientSendOverReceive, kFlukeOk);

  const ReqReport rep = BuildReqReport(tb.Snapshot(), 400);
  ASSERT_EQ(rep.requests.size(), 1u);
  EXPECT_EQ(rep.requests[0].hop_ns, 200u);
  EXPECT_EQ(rep.requests[0].queue_ns, 0u);
  EXPECT_EQ(rep.requests[0].hops, 1u);
  ExpectExactPartition(rep);
}

// A window ended by a timer (no flow event at the wake instant) is pure
// queue time; peer work elsewhere is not attributed.
TEST(ReqPathSynthetic, FlowlessWakeIsUnattributedQueueTime) {
  TraceBuffer tb(64);
  tb.Enable();
  const uint64_t req = tb.BeginSpan(100, TraceKind::kSyscallEnter, 1, kSysIpcClientSendOverReceive);
  const uint64_t blk = tb.BeginSpan(120, TraceKind::kBlock, 1, kSysIpcClientSendOverReceive);
  tb.EndSpan(370, TraceKind::kWake, blk, 1, 0, 0);
  tb.EndSpan(400, TraceKind::kSyscallExit, req, 1, kSysIpcClientSendOverReceive, kFlukeOk);

  const ReqReport rep = BuildReqReport(tb.Snapshot(), 400);
  ASSERT_EQ(rep.requests.size(), 1u);
  EXPECT_EQ(rep.requests[0].queue_ns, 250u);
  EXPECT_EQ(rep.requests[0].service_ns, 50u);
  ExpectExactPartition(rep);
}

// Remedy spans: a client-side fault remedy inside the unblocked part moves
// self time from service to remedy; a peer remedy inside its serving span
// moves peer time from serve-peer to remedy.
TEST(ReqPathSynthetic, RemedySpansAreCarvedOutOnBothSides) {
  TraceBuffer tb(64);
  tb.Enable();
  const uint64_t req = tb.BeginSpan(100, TraceKind::kSyscallEnter, 1, kSysIpcClientSendOverReceive);
  const uint64_t rem = tb.BeginSpan(110, TraceKind::kFaultRemedy, 1, 0);
  tb.EndSpan(140, TraceKind::kFaultRemedy, rem, 1, 0);  // 30ns self remedy
  const uint64_t blk = tb.BeginSpan(150, TraceKind::kBlock, 1, kSysIpcClientSendOverReceive);
  const uint64_t srv = tb.BeginSpan(150, TraceKind::kSyscallEnter, 2, kSysIpcServerAckSend);
  const uint64_t prem = tb.BeginSpan(200, TraceKind::kFaultRemedy, 2, 0);
  tb.EndSpan(240, TraceKind::kFaultRemedy, prem, 2, 0);  // 40ns peer remedy
  tb.EndSpan(350, TraceKind::kSyscallExit, srv, 2, kSysIpcServerAckSend, kFlukeOk);
  tb.Flow(350, 2, 1, 0);
  tb.EndSpan(350, TraceKind::kWake, blk, 1, 0, 0);
  tb.EndSpan(400, TraceKind::kSyscallExit, req, 1, kSysIpcClientSendOverReceive, kFlukeOk);

  const ReqReport rep = BuildReqReport(tb.Snapshot(), 400);
  ASSERT_EQ(rep.requests.size(), 1u);
  const RequestPath& r = rep.requests[0];
  EXPECT_EQ(r.remedy_ns, 70u);                 // 30 self + 40 peer
  EXPECT_EQ(r.serve_peer_ns, 160u);            // 200 served minus 40 remedied
  EXPECT_EQ(r.service_ns, 70u);                // 100 self minus 30 remedied
  ExpectExactPartition(rep);
}

// A cancelled epoch (end result 0xFFFFFFFF) is not a completed request; a
// begin lost to the ring drops the request rather than fabricating one.
TEST(ReqPathSynthetic, CancelledAndTruncatedSpansAreSkipped) {
  TraceBuffer tb(64);
  tb.Enable();
  const uint64_t req = tb.BeginSpan(100, TraceKind::kSyscallEnter, 1, kSysIpcClientSendOverReceive);
  tb.EndSpan(200, TraceKind::kSyscallExit, req, 1, kSysIpcClientSendOverReceive, 0xFFFFFFFFu);
  // An end whose begin was lost to the ring: skipped, not fabricated.
  tb.EndSpan(300, TraceKind::kSyscallExit, 999, 1, kSysIpcClientSendOverReceive, kFlukeOk);

  const ReqReport rep = BuildReqReport(tb.Snapshot(), 400);
  EXPECT_TRUE(rep.requests.empty());
  const std::string text = RenderReqReport(rep);
  EXPECT_NE(text.find("no completed requests"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Real traced runs: exactness + determinism across engines and backends.
// ---------------------------------------------------------------------------

class ReqPathKernelTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(ReqPathKernelTest, RpcRequestsPartitionExactly) {
  auto k = RunRpc(GetParam());
  ASSERT_EQ(k->trace.dropped(), 0u);
  const ReqReport rep =
      BuildReqReport(k->trace.Snapshot(), k->clock.now(), k->trace.dropped());
  EXPECT_EQ(rep.requests.size(), 50u);  // one per round
  ExpectExactPartition(rep);
  // An RPC client's latency is dominated by attributable time: every
  // request blocked at least once and saw nonzero peer service.
  for (const RequestPath& r : rep.requests) {
    EXPECT_GE(r.blocks, 1u);
    EXPECT_GT(r.serve_peer_ns, 0u);
  }
}

TEST_P(ReqPathKernelTest, TailReportIsByteIdenticalAcrossEngines) {
  std::string baseline;
  for (const InterpEngine engine : {InterpEngine::kSwitch, InterpEngine::kJit}) {
    KernelConfig cfg = GetParam();
    cfg.interp_engine = engine;
    auto k = RunRpc(cfg);
    const std::string report = RenderReqReport(
        BuildReqReport(k->trace.Snapshot(), k->clock.now(), k->trace.dropped()));
    if (baseline.empty()) {
      baseline = report;
      EXPECT_NE(baseline.find("sums exactly"), std::string::npos);
    } else {
      EXPECT_EQ(report, baseline) << "engine " << InterpEngineName(engine) << " diverged";
    }
  }
}

TEST_P(ReqPathKernelTest, TailReportIsByteIdenticalAcrossMpBackendsAt4Cpus) {
  // A same-process repeat must reproduce the report byte for byte.
  std::string baseline;
  for (int run = 0; run < 2; ++run) {
    KernelConfig cfg = GetParam();
    cfg.num_cpus = 4;
    if (!cfg.Valid()) {
      GTEST_SKIP() << "config invalid at 4 CPUs: " << cfg.Validate();
    }
    auto k = RunRpc(cfg);
    const ReqReport rep =
        BuildReqReport(k->trace.Snapshot(), k->clock.now(), k->trace.dropped());
    ExpectExactPartition(rep);
    // Client and server spaces home on different CPUs at 4 CPUs, so the
    // wakes are cross-CPU and the residual is attributed to hops.
    EXPECT_GT(rep.hop_ns, 0u);
    const std::string report = RenderReqReport(rep);
    if (baseline.empty()) {
      baseline = report;
    } else {
      EXPECT_EQ(report, baseline) << "repeated 4-CPU run diverged";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperConfigs, ReqPathKernelTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

// The c1m workload's connect/send-over-receive requests decompose too, and
// the master's interrupt sweep leaves no partially-attributed request.
TEST(ReqPathC1m, ThreadScalingWorkloadDecomposes) {
  KernelConfig cfg;
  Kernel k(cfg);
  k.trace.SetCapacity(size_t{1} << 18);
  k.trace.Enable();
  C1mParams cp;
  cp.clients = 50;
  // The pool servers loop forever; run until the clients and master are
  // done (the RunC1m idiom), not until quiescence.
  const std::vector<Thread*> watch = BuildC1mWorkload(k, cp);
  const Time deadline = k.clock.now() + kNsPerMs * (2000 + 2ull * cp.clients);
  for (Thread* t : watch) {
    ASSERT_TRUE(k.RunUntilThreadDone(t, deadline - k.clock.now()));
  }
  const ReqReport rep = BuildReqReport(k.trace.Snapshot(), k.clock.now(), k.trace.dropped());
  EXPECT_GT(rep.requests.size(), 50u);  // multiple rounds per client
  ExpectExactPartition(rep);
  EXPECT_GT(rep.serve_peer_ns, 0u);
}

}  // namespace
}  // namespace fluke
