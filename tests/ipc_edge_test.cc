// IPC and syscall edge cases: zero-length messages, truncated oneway
// datagrams, alert_wait, the *_send_wait_receive server-loop entrypoints,
// destruction of a party mid-transfer, and misuse errors.

#include "tests/test_util.h"

namespace fluke {
namespace {

constexpr uint32_t kAnon = 0x10000;

struct Duo {
  explicit Duo(const KernelConfig& cfg, uint32_t badge = 4) : kernel(cfg) {
    server_space = kernel.CreateSpace("sv");
    client_space = kernel.CreateSpace("cl");
    server_space->SetAnonRange(kAnon, 1 << 20);
    client_space->SetAnonRange(kAnon, 1 << 20);
    port = kernel.NewPort(badge);
    sport = kernel.Install(server_space, port);
    cref = kernel.Install(client_space, kernel.NewReference(port));
  }
  Thread* Server(ProgramRef p) {
    server_space->program = std::move(p);
    Thread* t = kernel.CreateThread(server_space);
    kernel.StartThread(t);
    return t;
  }
  Thread* Client(ProgramRef p) {
    client_space->program = std::move(p);
    Thread* t = kernel.CreateThread(client_space);
    kernel.StartThread(t);
    return t;
  }
  Kernel kernel;
  Space* server_space = nullptr;
  Space* client_space = nullptr;
  Port* port = nullptr;
  Handle sport = 0, cref = 0;
};

class IpcEdgeTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(IpcEdgeTest, ZeroWordSendCompletesReceiverAtBoundary) {
  // A 0-word send is a pure message boundary: the server's receive
  // completes with its buffer untouched.
  Duo w(GetParam());
  Assembler ca("c");
  EmitSys(ca, kSysIpcClientConnectSend, w.cref, kAnon, 0, 0, 0);
  EmitCheckOk(ca);
  EmitPuts(ca, "C");
  ca.Halt();
  Assembler sa("s");
  EmitSys(sa, kSysIpcWaitReceive, w.sport, 0, 0, kAnon, 8);
  EmitCheckOk(sa);
  // DI must still be 8 (nothing received).
  sa.MovImm(kRegC, kAnon + 0x100);
  sa.StoreW(kRegDI, kRegC, 0);
  sa.Halt();
  w.Server(sa.Build());
  w.Client(ca.Build());
  ASSERT_TRUE(w.kernel.RunUntilQuiescent(10ull * 1000 * kNsPerMs));
  uint32_t di = 99;
  ASSERT_TRUE(w.server_space->HostRead(kAnon + 0x100, &di, 4));
  EXPECT_EQ(di, 8u);
  EXPECT_EQ(w.kernel.console.output(), "C");
}

TEST_P(IpcEdgeTest, OnewayDatagramTruncatesToBufferAndCap) {
  // Oneway messages carry at most 8 words; a smaller receive buffer takes
  // what fits.
  Duo w(GetParam());
  Assembler ca("c");
  for (int i = 0; i < 12; ++i) {
    ca.MovImm(kRegB, 100 + i);
    ca.MovImm(kRegC, kAnon + 4 * i);
    ca.StoreW(kRegB, kRegC, 0);
  }
  EmitSys(ca, kSysIpcClientOnewaySend, w.cref, kAnon, 12, 0, 0);  // capped at 8
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("s");
  EmitSys(sa, kSysIpcServerOnewayReceive, w.sport, 0, 0, kAnon, 3);  // take 3
  EmitCheckOk(sa);
  sa.Halt();
  w.Server(sa.Build());
  w.Client(ca.Build());
  ASSERT_TRUE(w.kernel.RunUntilQuiescent(10ull * 1000 * kNsPerMs));
  uint32_t got[4] = {};
  ASSERT_TRUE(w.server_space->HostRead(kAnon, got, 16));
  EXPECT_EQ(got[0], 100u);
  EXPECT_EQ(got[1], 101u);
  EXPECT_EQ(got[2], 102u);
  EXPECT_EQ(got[3], 0u);  // beyond the 3-word buffer: untouched
}

TEST_P(IpcEdgeTest, AlertWaitConsumesAlert) {
  Duo w(GetParam());
  Assembler ca("c");
  EmitSys(ca, kSysIpcClientConnectSend, w.cref, kAnon, 1, 0, 0);
  EmitCheckOk(ca);
  EmitCompute(ca, 200000);
  EmitSys(ca, kSysIpcClientAlert);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("s");
  EmitSys(sa, kSysIpcWaitReceive, w.sport, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  EmitSys(sa, kSysIpcServerAlertWait);  // blocks until the client alerts
  EmitCheckOk(sa);
  EmitPuts(sa, "alerted");
  sa.Halt();
  w.Server(sa.Build());
  w.Client(ca.Build());
  ASSERT_TRUE(w.kernel.RunUntilQuiescent(10ull * 1000 * kNsPerMs));
  EXPECT_EQ(w.kernel.console.output(), "alerted");
}

TEST_P(IpcEdgeTest, ServerSendWaitReceiveLoopsAcrossClients) {
  // The classic single-call server loop: reply, drop the connection, accept
  // the next client.
  Duo w(GetParam());
  Assembler sa("s");
  EmitSys(sa, kSysIpcWaitReceive, w.sport, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  const auto loop = sa.NewLabel();
  sa.Bind(loop);
  // reply = request + 1
  sa.MovImm(kRegC, kAnon);
  sa.LoadW(kRegB, kRegC, 0);
  sa.AddImm(kRegB, kRegB, 1);
  sa.StoreW(kRegB, kRegC, 4);
  EmitSys(sa, kSysIpcServerSendWaitReceive, w.sport, kAnon + 4, 1, kAnon, 1);
  EmitCheckOk(sa);
  sa.Jmp(loop);
  w.Server(sa.Build());

  // Two sequential clients (same space, distinct threads).
  auto client = [&](uint32_t val, uint32_t out_off) {
    Assembler ca("c" + std::to_string(val));
    ca.MovImm(kRegB, val);
    ca.MovImm(kRegC, kAnon + out_off);
    ca.StoreW(kRegB, kRegC, 0);
    EmitSys(ca, kSysIpcClientConnectSendOverReceive, w.cref, kAnon + out_off, 1,
            kAnon + out_off + 16, 1);
    EmitCheckOk(ca);
    ca.Halt();
    return ca.Build();
  };
  Thread* c1 = w.Client(client(40, 0x100));
  Thread* c2 = w.Client(client(70, 0x200));
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(c1, 10ull * 1000 * kNsPerMs));
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(c2, 10ull * 1000 * kNsPerMs));
  uint32_t r1 = 0, r2 = 0;
  ASSERT_TRUE(w.client_space->HostRead(kAnon + 0x110, &r1, 4));
  ASSERT_TRUE(w.client_space->HostRead(kAnon + 0x210, &r2, 4));
  EXPECT_EQ(r1, 41u);
  EXPECT_EQ(r2, 71u);
}

TEST_P(IpcEdgeTest, DestroyClientMidTransferFailsServerCleanly) {
  Duo w(GetParam());
  Assembler ca("c");
  EmitSys(ca, kSysIpcClientConnectSend, w.cref, kAnon, 4096, 0, 0);  // big-ish
  ca.Halt();
  Assembler sa("s");
  EmitSys(sa, kSysIpcWaitReceive, w.sport, 0, 0, kAnon, 8);  // partial take
  EmitCheckOk(sa);
  EmitCompute(sa, 400000);  // park with the client mid-message
  EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kAnon, 4088);
  sa.MovImm(kRegC, kAnon + 0x8000);
  sa.StoreW(kRegA, kRegC, 0);
  sa.Halt();
  Thread* server = w.Server(sa.Build());
  Thread* client = w.Client(ca.Build());
  w.kernel.Run(w.kernel.clock.now() + 500 * kNsPerUs);
  ASSERT_EQ(client->run_state, ThreadRun::kBlocked);
  w.kernel.DestroyThread(client);
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(server, 10ull * 1000 * kNsPerMs));
  uint32_t err = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon + 0x8000, &err, 4));
  // DISCONNECTED if the server was blocked in the receive when the client
  // died; NOT_CONNECTED if it learned at its next receive. Either way the
  // error arrives at a clean stage boundary.
  EXPECT_TRUE(err == kFlukeErrDisconnected || err == kFlukeErrNotConnected) << err;
}

TEST_P(IpcEdgeTest, DoubleConnectIsAnError) {
  Duo w(GetParam());
  Assembler sa("s");
  EmitSys(sa, kSysIpcWaitReceive, w.sport, 0, 0, kAnon, 1);
  sa.Halt();
  Assembler ca("c");
  EmitSys(ca, kSysIpcClientConnect, w.cref);
  EmitCheckOk(ca);
  EmitSys(ca, kSysIpcClientConnect, w.cref);
  ca.MovImm(kRegC, kAnon + 64);
  ca.StoreW(kRegA, kRegC, 0);
  ca.Halt();
  w.Server(sa.Build());
  Thread* c = w.Client(ca.Build());
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(c, 10ull * 1000 * kNsPerMs));
  uint32_t err = 0;
  ASSERT_TRUE(w.client_space->HostRead(kAnon + 64, &err, 4));
  EXPECT_EQ(err, kFlukeErrAlreadyConnected);
}

TEST_P(IpcEdgeTest, SignalWithNoWaitersIsANoOp) {
  SimpleWorld w(GetParam());
  const Handle c = w.kernel.Install(w.space, w.kernel.NewCond());
  Assembler a("t");
  EmitSys(a, kSysCondSignal, c);
  EmitCheckOk(a);
  EmitSys(a, kSysCondBroadcast, c);
  EmitCheckOk(a);
  EmitPuts(a, "ok");
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "ok");
}

TEST_P(IpcEdgeTest, CondWaitWithUnlockedMutexErrors) {
  SimpleWorld w(GetParam());
  const Handle c = w.kernel.Install(w.space, w.kernel.NewCond());
  const Handle m = w.kernel.Install(w.space, w.kernel.NewMutex());
  Assembler a("t");
  EmitSys(a, kSysCondWait, c, m);  // mutex not held
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &err, 4));
  EXPECT_EQ(err, kFlukeErrBadArgument);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, IpcEdgeTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
