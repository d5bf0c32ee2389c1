// Property tests on the IPC engine's restartability invariant: no matter
// how a transfer is interrupted -- demand-paging faults on either side,
// host-driven stop/extract/restore/resume of either party at random
// moments, in any execution model -- the data arrives exactly once, intact,
// and both parties complete. This is the discipline of section 4.2
// ("cleanly divisible into user-visible atomic stages") made executable.

#include <vector>

#include "src/workloads/pager.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class IpcPropertyTest : public testing::TestWithParam<KernelConfig> {};

struct TransferWorld {
  TransferWorld(const KernelConfig& cfg, uint32_t words)
      : kernel(cfg),
        client(BuildManagedSpace(kernel, 4 << 20, "cl")),
        server(BuildManagedSpace(kernel, 4 << 20, "sv")),
        words(words) {
    kernel.StartThread(client.manager_thread);
    kernel.StartThread(server.manager_thread);
    port = kernel.NewPort(9);
    sport = kernel.Install(server.child_space, port);
    cref = kernel.Install(client.child_space, kernel.NewReference(port));

    // Pattern in the client's backing store (present at the manager level:
    // the client child faults SOFTLY per page; the server side faults HARD).
    std::vector<uint32_t> pat(words);
    for (uint32_t i = 0; i < words; ++i) {
      pat[i] = i * 0x9E3779B9u + 0x1234567;
    }
    EXPECT_TRUE(client.manager_space->HostWrite(kPagerBackingBase, pat.data(), 4 * words));

    Assembler ca("client");
    EmitSys(ca, kSysIpcClientConnectSendOverReceive, cref, 0, words, 0x200000, 1);
    EmitCheckOk(ca);
    EmitPuts(ca, "C");
    ca.Halt();
    Assembler sa("server");
    EmitSys(sa, kSysIpcWaitReceive, sport, 0, 0, 0, words);
    EmitCheckOk(sa);
    // Reply one word: the received word count (== words).
    sa.MovImm(kRegB, words);
    sa.MovImm(kRegC, 0x200000);
    sa.StoreB(kRegB, kRegC, 0);  // touch first (the page may be absent)
    sa.StoreW(kRegB, kRegC, 0);
    EmitSys(sa, kSysIpcServerAckSend, 0, 0x200000, 1, 0, 0);
    EmitCheckOk(sa);
    EmitPuts(sa, "S");
    sa.Halt();
    client.child_space->program = ca.Build();
    server.child_space->program = sa.Build();
    ct = kernel.CreateThread(client.child_space);
    st = kernel.CreateThread(server.child_space);
    kernel.StartThread(st);
    kernel.StartThread(ct);
  }

  bool Verify() {
    if (kernel.console.output().find('C') == std::string::npos ||
        kernel.console.output().find('S') == std::string::npos) {
      ADD_FAILURE() << "parties did not both complete: '" << kernel.console.output() << "'";
      return false;
    }
    std::vector<uint32_t> got(words);
    if (!server.child_space->HostRead(0, got.data(), 4 * words)) {
      ADD_FAILURE() << "server data unreadable";
      return false;
    }
    for (uint32_t i = 0; i < words; ++i) {
      if (got[i] != i * 0x9E3779B9u + 0x1234567) {
        ADD_FAILURE() << "word " << i << " corrupt: " << got[i];
        return false;
      }
    }
    return true;
  }

  Kernel kernel;
  ManagedSetup client;
  ManagedSetup server;
  uint32_t words;
  Port* port = nullptr;
  Handle sport = 0, cref = 0;
  Thread* ct = nullptr;
  Thread* st = nullptr;
};

TEST_P(IpcPropertyTest, TransferIntactUnderDemandPagingAlone) {
  TransferWorld w(GetParam(), /*words=*/6 * kPageSize / 4);
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(w.ct, 60ull * 1000 * kNsPerMs));
  ASSERT_TRUE(w.kernel.RunUntilThreadDone(w.st, 10ull * 1000 * kNsPerMs));
  w.Verify();
  EXPECT_GT(w.kernel.stats.rollback_ns, 0u);  // faults really interrupted it
}

TEST_P(IpcPropertyTest, TransferIntactUnderRandomDisturbance) {
  // Randomly stop/extract/restore/resume EITHER party while the transfer
  // (with both-side faults) is in flight -- across three seeds.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    TransferWorld w(GetParam(), /*words=*/6 * kPageSize / 4);
    Rng rng(seed * 1299721);
    int disturbances = 0;
    const Time deadline = 120ull * 1000 * kNsPerMs;
    while (w.ct->run_state != ThreadRun::kDead && w.kernel.clock.now() < deadline) {
      w.kernel.Run(w.kernel.clock.now() + rng.Range(10, 120) * kNsPerUs);
      Thread* victim = rng.Chance(1, 2) ? w.ct : w.st;
      if (victim->run_state == ThreadRun::kDead) {
        continue;
      }
      // Never disturb a thread that is awaiting a fault remedy: its manager
      // round trip would be orphaned (the real checkpointer quiesces
      // exception traffic first, for the same reason).
      if (victim->block_kind == BlockKind::kFaultWait) {
        continue;
      }
      w.kernel.StopThread(victim);
      ThreadState st;
      ASSERT_TRUE(w.kernel.GetThreadState(victim, &st));
      ASSERT_TRUE(w.kernel.SetThreadState(victim, st));
      w.kernel.ResumeThread(victim);
      ++disturbances;
    }
    ASSERT_TRUE(w.kernel.RunUntilThreadDone(w.ct, 60ull * 1000 * kNsPerMs))
        << "seed " << seed;
    ASSERT_TRUE(w.kernel.RunUntilThreadDone(w.st, 10ull * 1000 * kNsPerMs));
    EXPECT_TRUE(w.Verify()) << "seed " << seed;
    EXPECT_GT(disturbances, 3) << "seed " << seed;
  }
}

TEST_P(IpcPropertyTest, InterruptedSenderReportsCleanStageBoundary) {
  // thread_interrupt on a blocked sender must surface INTERRUPTED with the
  // registers at a chunk boundary: the words already sent stay sent; the
  // remaining count plus the sent count equal the total. A dedicated pair
  // is used: the server takes a PARTIAL receive and parks, guaranteeing the
  // client blocks mid-message.
  const uint32_t kWords = 1024;
  Kernel k(GetParam());
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  cs->SetAnonRange(0x10000, 1 << 20);
  ss->SetAnonRange(0x10000, 1 << 20);
  auto port = k.NewPort(1);
  const Handle sport = k.Install(ss, port);
  const Handle cref = k.Install(cs, k.NewReference(port));

  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnectSend, cref, 0x10000, kWords, 0, 0);
  ca.MovImm(kRegC, 0x10000);
  ca.StoreW(kRegA, kRegC, 0);  // record how the send completed
  ca.Halt();
  Assembler sa("server");
  EmitSys(sa, kSysIpcWaitReceive, sport, 0, 0, 0x20000, 16);  // partial take
  EmitCheckOk(sa);
  EmitCompute(sa, 1u << 30);  // park forever
  sa.Halt();
  cs->program = ca.Build();
  ss->program = sa.Build();
  Thread* st = k.CreateThread(ss);
  Thread* ct = k.CreateThread(cs);
  k.StartThread(st);
  k.StartThread(ct);
  k.Run(k.clock.now() + 50 * kNsPerMs);

  ASSERT_EQ(ct->run_state, ThreadRun::kBlocked);
  ASSERT_EQ(ct->regs.gpr[kRegA], static_cast<uint32_t>(kSysIpcClientSend));
  const uint32_t remaining = ct->regs.gpr[kRegD];
  EXPECT_EQ(remaining, kWords - 16);
  EXPECT_EQ(ct->regs.gpr[kRegC], 0x10000u + (kWords - remaining) * 4);

  k.InterruptThread(ct);
  ASSERT_TRUE(k.RunUntilThreadDone(ct, 10ull * 1000 * kNsPerMs));
  uint32_t err = 0;
  ASSERT_TRUE(cs->HostRead(0x10000, &err, 4));
  // The word at 0x10000 was part of the send buffer; the client overwrote
  // it with the result code after the call returned INTERRUPTED.
  EXPECT_EQ(err, kFlukeErrInterrupted);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, IpcPropertyTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
