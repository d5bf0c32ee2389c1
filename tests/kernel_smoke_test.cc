// Kernel smoke tests: boot, trivial/short syscalls, console output, thread
// lifecycle. Parameterized over all five paper configurations -- the atomic
// API must behave identically regardless of execution model and preemption
// mode.

#include <malloc.h>

#include <cstdint>

#include "src/workloads/apps.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class SmokeTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(SmokeTest, HelloConsole) {
  SimpleWorld w(GetParam());
  Assembler a("hello");
  EmitPuts(a, "hello fluke\n");
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "hello fluke\n");
}

TEST_P(SmokeTest, TrivialSyscalls) {
  SimpleWorld w(GetParam());
  Assembler a("trivial");
  // page_size -> store at anon base.
  EmitSys(a, kSysPageSize);
  EmitCheckOk(a);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegC, 0);
  // api_version -> +4.
  EmitSys(a, kSysApiVersion);
  a.StoreW(kRegB, kRegC, 4);
  // thread_self / space_self nonzero -> +8/+12.
  EmitSys(a, kSysThreadSelf);
  a.StoreW(kRegB, kRegC, 8);
  EmitSys(a, kSysSpaceSelf);
  a.StoreW(kRegB, kRegC, 12);
  // cpu_id -> +16.
  EmitSys(a, kSysCpuId);
  a.StoreW(kRegB, kRegC, 16);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();

  uint32_t words[5] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, words, sizeof(words)));
  EXPECT_EQ(words[0], kPageSize);
  EXPECT_EQ(words[1], 19990222u);
  EXPECT_NE(words[2], 0u);
  EXPECT_NE(words[3], 0u);
  EXPECT_EQ(words[4], 0u);
}

TEST_P(SmokeTest, ClockGetAdvances) {
  SimpleWorld w(GetParam());
  Assembler a("clock");
  EmitSys(a, kSysClockGet);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegC, 0);
  EmitCompute(a, 1000 * 1000);  // 5 ms of compute
  EmitSys(a, kSysClockGet);
  a.StoreW(kRegB, kRegC, 4);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t us[2] = {};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, us, sizeof(us)));
  EXPECT_GE(us[1] - us[0], 4000u);  // at least ~4 ms later
}

TEST_P(SmokeTest, InvalidSyscallReturnsError) {
  SimpleWorld w(GetParam());
  Assembler a("bad-sys");
  EmitSys(a, kSysCount + 17);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegA, kRegC, 0);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, &err, 4));
  // Non-legacy threads get PROTECTION for pseudo-syscalls and BAD_ARGUMENT
  // for unknown numbers; kSysCount+17 is in the pseudo range.
  EXPECT_TRUE(err == kFlukeErrBadArgument || err == kFlukeErrProtection);
}

TEST_P(SmokeTest, HaltExitsWithCode) {
  SimpleWorld w(GetParam());
  Assembler a("exit");
  a.MovImm(kRegB, 123);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.RunAll();
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  EXPECT_EQ(t->exit_code, 123u);
}

TEST_P(SmokeTest, TwoThreadsBothRun) {
  SimpleWorld w(GetParam());
  Assembler a1("t1");
  EmitPuts(a1, "A");
  a1.Halt();
  Assembler a2("t2");
  EmitPuts(a2, "B");
  a2.Halt();
  w.Spawn(a1.Build());
  w.Spawn(a2.Build());
  w.RunAll();
  const std::string& out = w.kernel.console.output();
  EXPECT_EQ(out.size(), 2u);
  EXPECT_NE(out.find('A'), std::string::npos);
  EXPECT_NE(out.find('B'), std::string::npos);
}

TEST_P(SmokeTest, PriorityOrderRespected) {
  SimpleWorld w(GetParam());
  Assembler lo("lo");
  EmitPuts(lo, "L");
  lo.Halt();
  Assembler hi("hi");
  EmitPuts(hi, "H");
  hi.Halt();
  w.Spawn(lo.Build(), /*priority=*/2);
  w.Spawn(hi.Build(), /*priority=*/6);
  w.RunAll();
  EXPECT_EQ(w.kernel.console.output(), "HL");
}

TEST_P(SmokeTest, AnonymousMemoryZeroFilled) {
  SimpleWorld w(GetParam());
  Assembler a("anon");
  // Read a fresh page: must be zero. Write then read back.
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 0x2000);
  a.LoadW(kRegB, kRegC, 0);
  a.MovImm(kRegD, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegD, 0);  // store the (zero) value
  a.MovImm(kRegB, 0x5A5A5A5A);
  a.StoreW(kRegB, kRegC, 4);
  a.LoadW(kRegSI, kRegC, 4);
  a.StoreW(kRegSI, kRegD, 4);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  uint32_t vals[2] = {1, 1};
  ASSERT_TRUE(w.space->HostRead(SimpleWorld::kAnonBase, vals, 8));
  EXPECT_EQ(vals[0], 0u);
  EXPECT_EQ(vals[1], 0x5A5A5A5Au);
  EXPECT_GT(w.kernel.stats.soft_faults, 0u);
}

TEST_P(SmokeTest, UnmappedAccessKillsThreadWithoutKeeper) {
  SimpleWorld w(GetParam());
  Assembler a("wild");
  a.MovImm(kRegC, 0xF0000000u);  // far outside the anon range
  a.LoadB(kRegB, kRegC, 0);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.RunAll();
  EXPECT_EQ(t->run_state, ThreadRun::kDead);
  EXPECT_EQ(t->exit_code, 0xFA07u);
}

TEST_P(SmokeTest, StatsCountSyscalls) {
  SimpleWorld w(GetParam());
  Assembler a("count");
  for (int i = 0; i < 10; ++i) {
    EmitSys(a, kSysNull);
  }
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  EXPECT_GE(w.kernel.stats.syscalls, 10u);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, SmokeTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

// A destroyed kernel gives back all the heap it took: the Kernel owns every
// object and the storage it lives in, so teardown frees everything. The
// first kernel warms up whatever the process keeps across kernels (allocator
// arenas, static tables); the second must then leave the heap where it found
// it. mallinfo2 cannot see AddressSanitizer's allocator; under ASan,
// LeakSanitizer checks the same property for every test.
TEST(KernelLifetime, DestroyedC1mKernelReturnsItsHeap) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "covered by LeakSanitizer under AddressSanitizer";
#endif
  auto run_c1m = [] {
    Kernel k(KernelConfig{});
    C1mParams p;
    p.clients = 1008;
    const Time deadline = k.clock.now() + kNsPerMs * (2000 + 2ull * p.clients);
    for (Thread* t : BuildC1mWorkload(k, p)) {
      ASSERT_TRUE(k.RunUntilThreadDone(t, deadline - k.clock.now()));
    }
  };
  run_c1m();
  const int64_t before = static_cast<int64_t>(mallinfo2().uordblks);
  run_c1m();
  const int64_t grown = static_cast<int64_t>(mallinfo2().uordblks) - before;
  EXPECT_LE(grown, 64 * 1024) << "a destroyed 1008-client kernel kept " << grown / 1024
                              << " KiB of heap";
}

}  // namespace
}  // namespace fluke
