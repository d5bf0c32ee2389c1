// Inspector tests: the dump names every suspended thread's committed
// restart point -- the "no thread is ever just 'somewhere inside the
// kernel'" property, rendered.

#include "src/kern/inspect.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class InspectTest : public testing::TestWithParam<KernelConfig> {};

TEST_P(InspectTest, BlockedThreadShowsRestartPoint) {
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler a("locker");
  EmitSys(a, kSysMutexLock, m);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);

  const std::string dump = DumpThreads(w.kernel);
  EXPECT_NE(dump.find("sys_MutexLock"), std::string::npos) << dump;
  EXPECT_NE(dump.find("blocked"), std::string::npos);
  EXPECT_NE(dump.find("B=" + std::to_string(m)), std::string::npos) << dump;
}

TEST_P(InspectTest, MidIpcThreadShowsAdvancedRegisters) {
  SimpleWorld w(GetParam());
  auto port = w.kernel.NewPort(1);
  const Handle r = w.kernel.Install(w.space, w.kernel.NewReference(port));
  Assembler a("client");
  EmitSys(a, kSysIpcClientConnectSend, r, SimpleWorld::kAnonBase, 16, 0, 0);
  a.Halt();
  Thread* t = w.Spawn(a.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);  // queued on the port

  const std::string dump = DumpThreads(w.kernel);
  EXPECT_NE(dump.find("sys_IpcClientConnectSend"), std::string::npos) << dump;
  EXPECT_NE(dump.find("D=16"), std::string::npos) << dump;
  EXPECT_NE(dump.find("ipc"), std::string::npos);
}

TEST_P(InspectTest, SpacesAndHeadline) {
  SimpleWorld w(GetParam());
  Assembler a("t");
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreB(kRegA, kRegC, 0);  // force one page in
  EmitSys(a, kSysNull);
  a.Halt();
  w.Spawn(a.Build());
  w.RunAll();
  const std::string dump = DumpKernel(w.kernel);
  EXPECT_NE(dump.find("FLUKE " + GetParam().Label()), std::string::npos) << dump;
  EXPECT_NE(dump.find("test-space"), std::string::npos);
  EXPECT_NE(dump.find("SPACES"), std::string::npos);
  EXPECT_NE(dump.find("exit=0"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, InspectTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
