// IPC engine tests: connect/accept, data transfer with register
// advancement, multi-stage restarts, RPC round trips, partial receives,
// oneway datagrams, alerts, disconnects. All parameterized over the five
// kernel configurations -- IPC semantics must be model-invariant.

#include <numeric>

#include "tests/test_util.h"

namespace fluke {
namespace {

constexpr uint32_t kAnon = 0x10000;
constexpr uint32_t kAnonSize = 8 * 1024 * 1024;

// Two spaces wired for IPC: the server owns a port; the client holds a
// Reference to it.
struct IpcWorld {
  explicit IpcWorld(const KernelConfig& cfg, uint32_t badge = 7) : kernel(cfg) {
    server_space = kernel.CreateSpace("server");
    client_space = kernel.CreateSpace("client");
    server_space->SetAnonRange(kAnon, kAnonSize);
    client_space->SetAnonRange(kAnon, kAnonSize);
    port = kernel.NewPort(badge);
    server_port_h = kernel.Install(server_space, port);
    client_ref_h = kernel.Install(client_space, kernel.NewReference(port));
  }

  Thread* SpawnServer(ProgramRef p, int prio = 4) {
    server_space->program = std::move(p);
    Thread* t = kernel.CreateThread(server_space, nullptr, prio);
    kernel.StartThread(t);
    return t;
  }
  Thread* SpawnClient(ProgramRef p, int prio = 4) {
    client_space->program = std::move(p);
    Thread* t = kernel.CreateThread(client_space, nullptr, prio);
    kernel.StartThread(t);
    return t;
  }

  void RunAll(Time max_time = 120ull * 1000 * kNsPerMs) {
    ASSERT_TRUE(kernel.RunUntilQuiescent(max_time)) << "kernel did not quiesce";
  }

  Kernel kernel;
  Space* server_space = nullptr;
  Space* client_space = nullptr;
  Port* port = nullptr;
  Handle server_port_h = 0;
  Handle client_ref_h = 0;
};

class IpcTest : public testing::TestWithParam<KernelConfig> {};

// --- Basic transfer: client connect_send, server wait_receive ---

TEST_P(IpcTest, ConnectSendDeliversData) {
  IpcWorld w(GetParam());
  const uint32_t kWords = 64;

  // Client: fill a buffer with i*3+1, connect_send it.
  Assembler ca("client");
  {
    const auto loop = ca.NewLabel();
    const auto out = ca.NewLabel();
    ca.MovImm(kRegB, 0);  // i
    ca.Bind(loop);
    ca.MovImm(kRegSP, kWords);
    ca.Bge(kRegB, kRegSP, out);
    ca.MovImm(kRegC, 3);
    ca.Mul(kRegD, kRegB, kRegC);
    ca.AddImm(kRegD, kRegD, 1);  // value
    ca.MovImm(kRegC, 2);
    ca.Shl(kRegSI, kRegB, kRegC);  // i*4
    ca.MovImm(kRegC, kAnon);
    ca.Add(kRegSI, kRegSI, kRegC);
    ca.StoreW(kRegD, kRegSI, 0);
    ca.AddImm(kRegB, kRegB, 1);
    ca.Jmp(loop);
    ca.Bind(out);
    EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, kWords, 0, 0);
    EmitCheckOk(ca);
    EmitPuts(ca, "C");
    ca.Halt();
  }
  // Server: wait_receive into its own buffer, then print badge presence.
  Assembler sa("server");
  {
    EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, kWords);
    EmitCheckOk(sa);
    EmitPuts(sa, "S");
    sa.Halt();
  }
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();

  EXPECT_NE(w.kernel.console.output().find('C'), std::string::npos);
  EXPECT_NE(w.kernel.console.output().find('S'), std::string::npos);
  for (uint32_t i = 0; i < kWords; ++i) {
    uint32_t v = 0;
    ASSERT_TRUE(w.server_space->HostRead(kAnon + 4 * i, &v, 4));
    EXPECT_EQ(v, 3 * i + 1) << "word " << i;
  }
}

TEST_P(IpcTest, ServerFirstThenClient) {
  // Order independence: whichever side arrives first blocks; the other
  // drives the transfer.
  IpcWorld w(GetParam());
  Assembler ca("client");
  EmitCompute(ca, 800000);  // client arrives late
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 4, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 4);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
}

TEST_P(IpcTest, ClientFirstThenServer) {
  IpcWorld w(GetParam());
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 4, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitCompute(sa, 800000);  // server arrives late
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 4);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
}

TEST_P(IpcTest, BadgeDeliveredToServer) {
  IpcWorld w(GetParam(), /*badge=*/0x77);
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 1, 0, 0);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 1);
  // B now holds the badge; store it.
  sa.MovImm(kRegC, kAnon + 256);
  sa.StoreW(kRegB, kRegC, 0);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t badge = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon + 256, &badge, 4));
  EXPECT_EQ(badge, 0x77u);
}

// --- RPC: connect_send_over_receive + ack_send ---

TEST_P(IpcTest, RpcRoundTripsEchoData) {
  IpcWorld w(GetParam());
  const uint32_t kRounds = 50;
  const uint32_t req = kAnon, rep = kAnon + 0x1000;

  // Client: for i in 0..rounds: buf=i; send_over_receive(1 word each way);
  // check reply == i+100.
  Assembler ca("client");
  {
    const auto loop = ca.NewLabel();
    const auto out = ca.NewLabel();
    const auto fail = ca.NewLabel();
    ca.MovImm(kRegBP, 0);  // i
    // First round uses connect_send_over_receive; later rounds plain.
    EmitSys(ca, kSysIpcClientConnect, w.client_ref_h);
    EmitCheckOk(ca);
    ca.Bind(loop);
    ca.MovImm(kRegSP, kRounds);
    ca.Bge(kRegBP, kRegSP, out);
    ca.MovImm(kRegC, req);
    ca.StoreW(kRegBP, kRegC, 0);  // request payload = i
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, req, 1, rep, 1);
    {
      const auto ok = ca.NewLabel();
      ca.MovImm(kRegSP, kFlukeOk);
      ca.Beq(kRegA, kRegSP, ok);
      ca.Jmp(fail);
      ca.Bind(ok);
    }
    ca.MovImm(kRegC, rep);
    ca.LoadW(kRegB, kRegC, 0);
    ca.AddImm(kRegSP, kRegBP, 100);
    ca.Bne(kRegB, kRegSP, fail);
    ca.AddImm(kRegBP, kRegBP, 1);
    ca.Jmp(loop);
    ca.Bind(fail);
    EmitPuts(ca, "F");
    ca.Halt();
    ca.Bind(out);
    EmitPuts(ca, "ok");
    ca.Halt();
  }
  // Server: wait_receive once; then loop: load req, +100, ack_send reply,
  // then server_receive next request.
  Assembler sa("server");
  {
    const auto loop = sa.NewLabel();
    EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, req, 1);
    sa.Bind(loop);
    sa.MovImm(kRegC, req);
    sa.LoadW(kRegB, kRegC, 0);
    sa.AddImm(kRegB, kRegB, 100);
    sa.MovImm(kRegC, rep);
    sa.StoreW(kRegB, kRegC, 0);
    // Reply (1 word), then receive the next request.
    EmitSys(sa, kSysIpcServerAckSendOverReceive, 0, rep, 1, req, 1);
    {
      // Exit when the client disconnects (DISCONNECTED error).
      const auto cont = sa.NewLabel();
      sa.MovImm(kRegSP, kFlukeOk);
      sa.Beq(kRegA, kRegSP, cont);
      sa.Halt();
      sa.Bind(cont);
    }
    sa.Jmp(loop);
  }
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "ok");
  // 2 context switches per round trip, roughly.
  EXPECT_GT(w.kernel.stats.context_switches, kRounds);
}

// --- Large transfers (multi-chunk, register advancement) ---

TEST_P(IpcTest, LargeTransferIntegrity) {
  IpcWorld w(GetParam());
  const uint32_t kBytes = 512 * 1024;
  const uint32_t kWords = kBytes / 4;

  // Host fills the client buffer with a pattern.
  {
    std::vector<uint32_t> pat(kWords);
    for (uint32_t i = 0; i < kWords; ++i) {
      pat[i] = i * 2654435761u + 17;
    }
    ASSERT_TRUE(w.client_space->HostWrite(kAnon, pat.data(), kBytes));
  }
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, kWords, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, kWords);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();

  std::vector<uint32_t> got(kWords);
  ASSERT_TRUE(w.server_space->HostRead(kAnon, got.data(), kBytes));
  for (uint32_t i = 0; i < kWords; ++i) {
    ASSERT_EQ(got[i], i * 2654435761u + 17) << "word " << i;
  }
}

TEST_P(IpcTest, PartialReceiveThenContinue) {
  // Sender sends 16 words; receiver drains in two 8-word receives. The
  // sender's C/D registers advance across the receiver's calls.
  IpcWorld w(GetParam());
  Assembler ca("client");
  {
    for (uint32_t i = 0; i < 16; ++i) {
      ca.MovImm(kRegB, 1000 + i);
      ca.MovImm(kRegC, kAnon + 4 * i);
      ca.StoreW(kRegB, kRegC, 0);
    }
    EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 16, 0, 0);
    EmitCheckOk(ca);
    EmitPuts(ca, "C");
    ca.Halt();
  }
  Assembler sa("server");
  {
    EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 8);
    EmitCheckOk(sa);
    EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kAnon + 32, 8);
    EmitCheckOk(sa);
    EmitPuts(sa, "S");
    sa.Halt();
  }
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  EXPECT_NE(w.kernel.console.output().find('S'), std::string::npos);
  EXPECT_NE(w.kernel.console.output().find('C'), std::string::npos);
  for (uint32_t i = 0; i < 16; ++i) {
    uint32_t v = 0;
    ASSERT_TRUE(w.server_space->HostRead(kAnon + 4 * i, &v, 4));
    EXPECT_EQ(v, 1000 + i) << "word " << i;
  }
}

// --- Exported state of a blocked sender: the registers ARE the progress ---

TEST_P(IpcTest, BlockedSenderRegistersAdvance) {
  IpcWorld w(GetParam());
  // Client sends 12 words; server takes only 4 and stops (stays connected).
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 12, 0, 0);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 4);
  EmitCheckOk(sa);
  EmitCompute(sa, 1u << 30);  // park forever (well past the test horizon)
  sa.Halt();
  w.SpawnServer(sa.Build());
  Thread* client = w.SpawnClient(ca.Build());
  w.kernel.Run(w.kernel.clock.now() + 100 * kNsPerMs);

  ASSERT_EQ(client->run_state, ThreadRun::kBlocked);
  ThreadState st;
  ASSERT_TRUE(w.kernel.GetThreadState(client, &st));
  // The entrypoint register was rewritten from connect_send to send at the
  // connect commit; the buffer registers advanced past the 4 words taken.
  EXPECT_EQ(st.regs.gpr[kRegA], static_cast<uint32_t>(kSysIpcClientSend));
  EXPECT_EQ(st.regs.gpr[kRegC], kAnon + 16);
  EXPECT_EQ(st.regs.gpr[kRegD], 8u);
  EXPECT_EQ(st.regs.pr0, 1u);  // connected marker pseudo-register
}

// --- Oneway datagrams ---

TEST_P(IpcTest, OnewaySendReceive) {
  IpcWorld w(GetParam());
  Assembler ca("client");
  ca.MovImm(kRegB, 0xABCD);
  ca.MovImm(kRegC, kAnon);
  ca.StoreW(kRegB, kRegC, 0);
  EmitSys(ca, kSysIpcClientOnewaySend, w.client_ref_h, kAnon, 1, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcServerOnewayReceive, w.server_port_h, 0, 0, kAnon, 8);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t v = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon, &v, 4));
  EXPECT_EQ(v, 0xABCDu);
}

TEST_P(IpcTest, ConnectOnewaySendIsDatagram) {
  IpcWorld w(GetParam());
  Assembler ca("client");
  ca.MovImm(kRegB, 42);
  ca.MovImm(kRegC, kAnon);
  ca.StoreW(kRegB, kRegC, 0);
  EmitSys(ca, kSysIpcClientConnectOnewaySend, w.client_ref_h, kAnon, 1, 0, 0);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcServerOnewayReceive, w.server_port_h, 0, 0, kAnon, 8);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  Thread* client = w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t v = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon, &v, 4));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(client->ipc_peer, nullptr);  // no connection left behind
}

// --- Disconnect semantics ---

TEST_P(IpcTest, DisconnectFailsBlockedPeer) {
  IpcWorld w(GetParam());
  // Client connects and waits for a reply that never comes; server accepts
  // then disconnects.
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSendOverReceive, w.client_ref_h, kAnon, 1, kAnon + 64, 4);
  ca.MovImm(kRegC, kAnon + 128);
  ca.StoreW(kRegA, kRegC, 0);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  EmitSys(sa, kSysIpcServerDisconnect);
  EmitCheckOk(sa);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.client_space->HostRead(kAnon + 128, &err, 4));
  EXPECT_EQ(err, kFlukeErrDisconnected);
}

TEST_P(IpcTest, SendWithoutConnectionFails) {
  IpcWorld w(GetParam());
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientSend, 0, kAnon, 1, 0, 0);
  ca.MovImm(kRegC, kAnon + 64);
  ca.StoreW(kRegA, kRegC, 0);
  ca.Halt();
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.client_space->HostRead(kAnon + 64, &err, 4));
  EXPECT_EQ(err, kFlukeErrNotConnected);
}

TEST_P(IpcTest, ConnectBadHandleFails) {
  IpcWorld w(GetParam());
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnect, 999);
  ca.MovImm(kRegC, kAnon);
  ca.StoreW(kRegA, kRegC, 0);
  ca.Halt();
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.client_space->HostRead(kAnon, &err, 4));
  EXPECT_EQ(err, kFlukeErrBadHandle);
}

// --- Alerts ---

TEST_P(IpcTest, AlertBreaksBlockedReceive) {
  IpcWorld w(GetParam());
  // Server accepts, then blocks in receive; client alerts instead of
  // sending more: server's receive completes with INTERRUPTED.
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 1, 0, 0);
  EmitCheckOk(ca);
  EmitCompute(ca, 400000);
  EmitSys(ca, kSysIpcClientAlert);
  EmitCheckOk(ca);
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, w.server_port_h, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  EmitSys(sa, kSysIpcServerReceive, 0, 0, 0, kAnon + 64, 8);
  sa.MovImm(kRegC, kAnon + 128);
  sa.StoreW(kRegA, kRegC, 0);
  sa.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(ca.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon + 128, &err, 4));
  EXPECT_EQ(err, kFlukeErrInterrupted);
}

// --- Portsets ---

TEST_P(IpcTest, PortsetReceivesFromMemberPorts) {
  IpcWorld w(GetParam(), /*badge=*/1);
  auto port2 = w.kernel.NewPort(/*badge=*/2);
  const Handle ps_h = w.kernel.Install(w.server_space, w.kernel.NewPortset());
  const Handle p2_h = w.kernel.Install(w.server_space, port2);
  const Handle ref2_h = w.kernel.Install(w.client_space, w.kernel.NewReference(port2));

  // Server: add both ports to the set, then receive twice recording badges.
  Assembler sa("server");
  EmitSys(sa, kSysPortsetAdd, ps_h, w.server_port_h);
  EmitCheckOk(sa);
  EmitSys(sa, kSysPortsetAdd, ps_h, p2_h);
  EmitCheckOk(sa);
  EmitSys(sa, kSysIpcWaitReceive, ps_h, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  sa.MovImm(kRegC, kAnon + 64);
  sa.StoreW(kRegB, kRegC, 0);  // badge of first
  EmitSys(sa, kSysIpcServerDisconnect);
  EmitSys(sa, kSysIpcWaitReceive, ps_h, 0, 0, kAnon, 1);
  EmitCheckOk(sa);
  sa.MovImm(kRegC, kAnon + 64);
  sa.StoreW(kRegB, kRegC, 4);  // badge of second
  sa.Halt();

  // Clients on the two ports, staggered.
  Assembler c1("c1");
  EmitSys(c1, kSysIpcClientConnectSend, w.client_ref_h, kAnon, 1, 0, 0);
  c1.Halt();
  Assembler c2("c2");
  EmitCompute(c2, 2000000);  // 10 ms later
  EmitSys(c2, kSysIpcClientConnectSend, ref2_h, kAnon, 1, 0, 0);
  c2.Halt();
  w.SpawnServer(sa.Build());
  w.SpawnClient(c1.Build());
  w.kernel.StartThread(w.kernel.CreateThread(w.client_space, c2.Build(), 4));
  w.RunAll();

  uint32_t badges[2] = {};
  ASSERT_TRUE(w.server_space->HostRead(kAnon + 64, badges, 8));
  EXPECT_EQ(badges[0], 1u);
  EXPECT_EQ(badges[1], 2u);
}

TEST_P(IpcTest, PortsetWaitReportsReadyBadge) {
  IpcWorld w(GetParam(), /*badge=*/9);
  Assembler sa("server");
  EmitSys(sa, kSysPortsetWait, w.server_port_h);
  EmitCheckOk(sa);
  sa.MovImm(kRegC, kAnon);
  sa.StoreW(kRegB, kRegC, 0);
  sa.Halt();
  Assembler ca("client");
  EmitCompute(ca, 400000);
  EmitSys(ca, kSysIpcClientConnect, w.client_ref_h);
  ca.Halt();
  w.SpawnServer(sa.Build());
  Thread* client = w.SpawnClient(ca.Build());
  w.kernel.Run(w.kernel.clock.now() + 200 * kNsPerMs);
  uint32_t badge = 0;
  ASSERT_TRUE(w.server_space->HostRead(kAnon, &badge, 4));
  EXPECT_EQ(badge, 9u);
  // The client is still queued (nobody accepted); clean up.
  EXPECT_EQ(client->run_state, ThreadRun::kBlocked);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, IpcTest, testing::ValuesIn(AllPaperConfigs()), ConfigName);

}  // namespace
}  // namespace fluke
