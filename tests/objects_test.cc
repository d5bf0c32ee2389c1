// The common object operations (create / destroy / rename / reference /
// get_state / set_state) across the nine primitive types, exercised from
// user mode. These 54 entrypoints are the bulk of the API's "short" class.

#include "tests/test_util.h"

namespace fluke {
namespace {

class ObjectsTest : public testing::TestWithParam<KernelConfig> {};

constexpr uint32_t kOut = SimpleWorld::kAnonBase;        // result scratch
constexpr uint32_t kStateBuf = SimpleWorld::kAnonBase + 0x100;

// Runs a program and returns the words it stored at kOut.
std::vector<uint32_t> RunAndRead(SimpleWorld& w, ProgramRef p, size_t words) {
  w.Spawn(std::move(p));
  w.RunAll();
  std::vector<uint32_t> v(words);
  EXPECT_TRUE(w.space->HostRead(kOut, v.data(), 4 * static_cast<uint32_t>(words)));
  return v;
}

// Emits "store register A at kOut+off" (clobbers C).
void StoreA(Assembler& a, uint32_t off) {
  a.MovImm(kRegC, kOut);
  a.StoreW(kRegA, kRegC, off);
}
void StoreB(Assembler& a, uint32_t off) {
  a.MovImm(kRegC, kOut);
  a.StoreW(kRegB, kRegC, off);
}

struct TypeOps {
  ObjType type;
  uint32_t create, destroy, rename, reference, getst, setst;
};

const TypeOps kAllTypes[] = {
    {ObjType::kMutex, kSysMutexCreate, kSysMutexDestroy, kSysMutexRename, kSysMutexReference,
     kSysMutexGetState, kSysMutexSetState},
    {ObjType::kCond, kSysCondCreate, kSysCondDestroy, kSysCondRename, kSysCondReference,
     kSysCondGetState, kSysCondSetState},
    {ObjType::kPort, kSysPortCreate, kSysPortDestroy, kSysPortRename, kSysPortReference,
     kSysPortGetState, kSysPortSetState},
    {ObjType::kPortset, kSysPortsetCreate, kSysPortsetDestroy, kSysPortsetRename,
     kSysPortsetReference, kSysPortsetGetState, kSysPortsetSetState},
    {ObjType::kReference, kSysRefCreate, kSysRefDestroy, kSysRefRename, kSysRefReference,
     kSysRefGetState, kSysRefSetState},
    {ObjType::kRegion, kSysRegionCreate, kSysRegionDestroy, kSysRegionRename,
     kSysRegionReference, kSysRegionGetState, kSysRegionSetState},
    {ObjType::kSpace, kSysSpaceCreate, kSysSpaceDestroy, kSysSpaceRename, kSysSpaceReference,
     kSysSpaceGetState, kSysSpaceSetState},
};

TEST_P(ObjectsTest, CreateDestroyRoundTripAllTypes) {
  // For every type with a parameterless-enough create: create -> handle,
  // destroy(handle) -> OK, destroy(handle) again -> BAD_HANDLE (dead).
  for (const auto& ops : kAllTypes) {
    SimpleWorld w(GetParam());
    Assembler a(std::string("cd-") + ObjTypeName(ops.type));
    if (ops.type == ObjType::kRegion) {
      EmitSys(a, ops.create, 0, 0x200000, kPageSize, kProtReadWrite);
    } else {
      EmitSys(a, ops.create, 0, 0, 0, 0, 0);
    }
    StoreA(a, 0);
    a.Mov(kRegSP, kRegB);  // save handle
    EmitSys(a, ops.destroy, kUlibKeep);
    a.Mov(kRegB, kRegSP);  // EmitSys clobbered nothing (kUlibKeep), but be safe
    StoreA(a, 4);
    a.Mov(kRegB, kRegSP);
    a.MovImm(kRegA, ops.destroy);
    a.Syscall();
    StoreA(a, 8);
    a.Halt();
    // First destroy needs B=handle: rewrite the emitted code path -- easier
    // to just move handle into B before each destroy (done above via SP).
    auto out = RunAndRead(w, a.Build(), 3);
    EXPECT_EQ(out[0], kFlukeOk) << ObjTypeName(ops.type);
    EXPECT_EQ(out[1], kFlukeOk) << ObjTypeName(ops.type);
    EXPECT_EQ(out[2], kFlukeErrBadHandle) << ObjTypeName(ops.type);
  }
}

TEST_P(ObjectsTest, RenameAllTypes) {
  for (const auto& ops : kAllTypes) {
    SimpleWorld w(GetParam());
    Assembler a(std::string("rn-") + ObjTypeName(ops.type));
    if (ops.type == ObjType::kRegion) {
      EmitSys(a, ops.create, 0, 0x200000, kPageSize, kProtReadWrite);
    } else {
      EmitSys(a, ops.create, 0, 0, 0, 0, 0);
    }
    // rename(B=handle, C=tag 77)
    a.MovImm(kRegC, 77);
    a.MovImm(kRegA, ops.rename);
    a.Syscall();
    StoreA(a, 0);
    a.Halt();
    auto out = RunAndRead(w, a.Build(), 1);
    EXPECT_EQ(out[0], kFlukeOk) << ObjTypeName(ops.type);
    // Find the renamed object.
    bool found = false;
    for (const auto& h : w.space->handle_table()) {
      if (h != nullptr && h->name() == "obj-77") {
        found = true;
        EXPECT_EQ(h->type(), ops.type);
      }
    }
    EXPECT_TRUE(found) << ObjTypeName(ops.type);
  }
}

TEST_P(ObjectsTest, ReferencePointsAtObject) {
  // port_reference, the paper's 4.3 example: create a port and a reference,
  // point the reference at the port, then connect THROUGH the reference.
  SimpleWorld w(GetParam());
  // Handles survive in memory slots (EmitCheckOk clobbers BP).
  constexpr uint32_t kSlots = kStateBuf + 0x80;
  Assembler a("ref");
  EmitSys(a, kSysPortCreate, 0, 0x99 /* badge in C */);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlots);
  a.StoreW(kRegB, kRegC, 0);  // [0] = port handle
  EmitSys(a, kSysRefCreate);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlots);
  a.StoreW(kRegB, kRegC, 4);  // [1] = reference handle
  a.Mov(kRegC, kRegB);        // reference handle
  a.MovImm(kRegB, 0);
  a.MovImm(kRegSP, kSlots);
  a.LoadW(kRegB, kRegSP, 0);  // target = port
  a.MovImm(kRegA, kSysPortReference);
  a.Syscall();
  StoreA(a, 0);
  // ref_get_state: words = [target type, target id]
  a.MovImm(kRegSP, kSlots);
  a.LoadW(kRegB, kRegSP, 4);
  a.MovImm(kRegC, kStateBuf);
  a.MovImm(kRegD, 2);
  a.MovImm(kRegA, kSysRefGetState);
  a.Syscall();
  StoreA(a, 4);
  a.MovImm(kRegC, kStateBuf);
  a.LoadW(kRegB, kRegC, 0);
  StoreB(a, 8);  // target type
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 3);
  EXPECT_EQ(out[0], kFlukeOk);
  EXPECT_EQ(out[1], kFlukeOk);
  EXPECT_EQ(out[2], static_cast<uint32_t>(ObjType::kPort));
}

TEST_P(ObjectsTest, ReferenceToDestroyedPort) {
  // Destroying a port does not free it: it stays a zombie until the kernel
  // goes away, so a reference to it still reports what it targets, and a
  // connect through it fails cleanly instead of touching freed memory.
  SimpleWorld w(GetParam());
  constexpr uint32_t kSlots = kStateBuf + 0x80;  // EmitCheckOk clobbers BP
  Assembler a("dangling");
  EmitSys(a, kSysPortCreate, 0, 0x99);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlots);
  a.StoreW(kRegB, kRegC, 0);  // [0] = port handle
  EmitSys(a, kSysRefCreate);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlots);
  a.StoreW(kRegB, kRegC, 4);  // [1] = reference handle
  a.Mov(kRegC, kRegB);
  a.MovImm(kRegSP, kSlots);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegA, kSysPortReference);
  a.Syscall();
  EmitCheckOk(a);
  // ref_get_state while the port lives, then again after destroy and a
  // connect attempt: words = [target type, target id].
  auto get_ref_state = [&](uint32_t buf) {
    a.MovImm(kRegSP, kSlots);
    a.LoadW(kRegB, kRegSP, 4);
    a.MovImm(kRegC, buf);
    a.MovImm(kRegD, 2);
    a.MovImm(kRegA, kSysRefGetState);
    a.Syscall();
  };
  get_ref_state(kStateBuf);
  EmitCheckOk(a);
  a.MovImm(kRegSP, kSlots);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegA, kSysPortDestroy);
  a.Syscall();
  StoreA(a, 0);
  a.MovImm(kRegSP, kSlots);
  a.LoadW(kRegB, kRegSP, 4);
  a.MovImm(kRegA, kSysIpcClientConnect);
  a.Syscall();
  StoreA(a, 4);
  get_ref_state(kStateBuf + 8);
  StoreA(a, 8);
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 3);
  EXPECT_EQ(out[0], kFlukeOk);            // port_destroy
  EXPECT_EQ(out[1], kFlukeErrBadHandle);  // connect through the reference
  EXPECT_EQ(out[2], kFlukeOk);            // ref_get_state after the destroy
  uint32_t before[2] = {};
  uint32_t after[2] = {};
  ASSERT_TRUE(w.space->HostRead(kStateBuf, before, sizeof(before)));
  ASSERT_TRUE(w.space->HostRead(kStateBuf + 8, after, sizeof(after)));
  EXPECT_EQ(before[0], static_cast<uint32_t>(ObjType::kPort));
  EXPECT_NE(before[1], 0u);
  EXPECT_EQ(after[0], before[0]);
  EXPECT_EQ(after[1], before[1]);
}

TEST_P(ObjectsTest, PortStateCarriesBadge) {
  SimpleWorld w(GetParam());
  constexpr uint32_t kSlot = kStateBuf + 0x80;  // EmitCheckOk clobbers BP
  Assembler a("badge");
  EmitSys(a, kSysPortCreate, 0, 0x1234);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlot);
  a.StoreW(kRegB, kRegC, 0);
  // get_state -> [badge]
  a.MovImm(kRegC, kStateBuf);
  a.MovImm(kRegD, 1);
  a.MovImm(kRegA, kSysPortGetState);
  a.Syscall();
  EmitCheckOk(a);
  a.MovImm(kRegC, kStateBuf);
  a.LoadW(kRegB, kRegC, 0);
  StoreB(a, 0);
  // set_state([0x5678]) then re-get.
  a.MovImm(kRegB, 0x5678);
  a.MovImm(kRegC, kStateBuf);
  a.StoreW(kRegB, kRegC, 0);
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegD, 1);
  a.MovImm(kRegA, kSysPortSetState);
  a.Syscall();
  EmitCheckOk(a);
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegC, kStateBuf + 16);
  a.MovImm(kRegD, 1);
  a.MovImm(kRegA, kSysPortGetState);
  a.Syscall();
  a.MovImm(kRegC, kStateBuf + 16);
  a.LoadW(kRegB, kRegC, 0);
  StoreB(a, 4);
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 2);
  EXPECT_EQ(out[0], 0x1234u);
  EXPECT_EQ(out[1], 0x5678u);
}

TEST_P(ObjectsTest, SpaceCreateAndArmKeeperFromUserMode) {
  // A user-mode manager bootstrapping a child space: space_create, then
  // space_set_state to install a keeper port and an anon range.
  SimpleWorld w(GetParam());
  constexpr uint32_t kSlot = kStateBuf + 0x80;
  Assembler a("mkspace");
  EmitSys(a, kSysSpaceCreate);
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlot);
  a.StoreW(kRegB, kRegC, 0);  // child space handle
  EmitSys(a, kSysPortCreate, 0, 0xEE);
  EmitCheckOk(a);
  // state words: [keeper handle, anon base, anon size]
  a.MovImm(kRegC, kStateBuf);
  a.StoreW(kRegB, kRegC, 0);
  a.MovImm(kRegB, 0x40000);
  a.StoreW(kRegB, kRegC, 4);
  a.MovImm(kRegB, 0x10000);
  a.StoreW(kRegB, kRegC, 8);
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegD, 3);
  a.MovImm(kRegA, kSysSpaceSetState);
  a.Syscall();
  StoreA(a, 0);
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 1);
  EXPECT_EQ(out[0], kFlukeOk);
  // Verify kernel-side: the new space has a keeper and the anon range.
  bool verified = false;
  for (const auto& sp : w.kernel.spaces()) {
    if (sp->name() == "user-space") {
      EXPECT_NE(sp->keeper, nullptr);
      EXPECT_EQ(sp->anon_base(), 0x40000u);
      EXPECT_EQ(sp->anon_size(), 0x10000u);
      verified = true;
    }
  }
  EXPECT_TRUE(verified);
}

TEST_P(ObjectsTest, ThreadCreateSetStateResumeJoin) {
  // Full user-mode thread lifecycle: create an embryo thread in one's own
  // space, write its ThreadState, resume it, join it, read its exit code.
  SimpleWorld w(GetParam());
  Assembler a("lifecycle");
  const auto main_entry = a.NewLabel();
  a.Jmp(main_entry);
  const uint32_t worker_pc = a.Here();
  EmitPuts(a, "w");
  a.MovImm(kRegB, 55);  // exit code
  a.Halt();
  a.Bind(main_entry);
  constexpr uint32_t kSlot = kStateBuf + 0x80;
  EmitSys(a, kSysSpaceSelf);
  a.MovImm(kRegA, kSysThreadCreate);  // B already = space handle
  a.Syscall();
  EmitCheckOk(a);
  a.MovImm(kRegC, kSlot);
  a.StoreW(kRegB, kRegC, 0);  // worker handle
  // ThreadState: zeros except pc and priority.
  a.MovImm(kRegD, 0);
  a.MovImm(kRegC, kStateBuf);
  for (int i = 0; i < 8; ++i) {
    a.StoreW(kRegD, kRegC, 4 * i);
  }
  a.MovImm(kRegD, worker_pc);
  a.StoreW(kRegD, kRegC, 32);
  a.MovImm(kRegD, 0);
  a.StoreW(kRegD, kRegC, 36);
  a.StoreW(kRegD, kRegC, 40);
  a.MovImm(kRegD, 5);
  a.StoreW(kRegD, kRegC, 44);  // priority 5
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegD, 12);
  a.MovImm(kRegA, kSysThreadSetState);
  a.Syscall();
  EmitCheckOk(a);
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegA, kSysThreadResume);
  a.Syscall();
  EmitCheckOk(a);
  a.MovImm(kRegSP, kSlot);
  a.LoadW(kRegB, kRegSP, 0);
  a.MovImm(kRegA, kSysThreadJoin);
  a.Syscall();
  EmitCheckOk(a);
  StoreB(a, 0);  // join result: exit code
  EmitPuts(a, "m");
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 1);
  EXPECT_EQ(out[0], 55u);
  EXPECT_EQ(w.kernel.console.output(), "wm");
}

TEST_P(ObjectsTest, GetStateFaultingBufferRestarts) {
  // get_state into a buffer on a never-touched anon page: the short call
  // faults, resolves (zero-fill), restarts, and still succeeds.
  SimpleWorld w(GetParam());
  const uint32_t far_buf = SimpleWorld::kAnonBase + SimpleWorld::kAnonSize - kPageSize;
  Assembler a("faulty");
  EmitSys(a, kSysMutexCreate);
  EmitCheckOk(a);
  a.MovImm(kRegC, far_buf);
  a.MovImm(kRegD, 4);
  a.MovImm(kRegA, kSysMutexGetState);
  a.Syscall();
  StoreA(a, 0);
  a.Halt();
  auto out = RunAndRead(w, a.Build(), 1);
  EXPECT_EQ(out[0], kFlukeOk);
  EXPECT_GT(w.kernel.stats.soft_faults, 0u);
}

TEST_P(ObjectsTest, DestroyedMutexFailsWaiters) {
  SimpleWorld w(GetParam());
  auto mutex = w.kernel.NewMutex();
  mutex->locked = true;
  const Handle m = w.kernel.Install(w.space, mutex);
  Assembler wa("waiter");
  EmitSys(wa, kSysMutexLock, m);
  wa.MovImm(kRegC, kOut);
  wa.StoreW(kRegA, kRegC, 0);
  wa.Halt();
  Thread* t = w.Spawn(wa.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  w.kernel.DestroyObject(mutex);
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(kOut, &err, 4));
  EXPECT_EQ(err, kFlukeErrDead);
}

TEST_P(ObjectsTest, DestroyedPortFailsQueuedClients) {
  SimpleWorld w(GetParam());
  auto port = w.kernel.NewPort(1);
  const Handle r = w.kernel.Install(w.space, w.kernel.NewReference(port));
  Assembler ca("client");
  EmitSys(ca, kSysIpcClientConnect, r);
  ca.MovImm(kRegC, kOut);
  ca.StoreW(kRegA, kRegC, 0);
  ca.Halt();
  Thread* t = w.Spawn(ca.Build());
  w.kernel.Run(w.kernel.clock.now() + 5 * kNsPerMs);
  ASSERT_EQ(t->run_state, ThreadRun::kBlocked);
  w.kernel.DestroyObject(port);
  w.RunAll();
  uint32_t err = 0;
  ASSERT_TRUE(w.space->HostRead(kOut, &err, 4));
  EXPECT_EQ(err, kFlukeErrDead);
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, ObjectsTest, testing::ValuesIn(AllPaperConfigs()),
                         ConfigName);

}  // namespace
}  // namespace fluke
