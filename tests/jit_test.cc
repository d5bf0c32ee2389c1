// Template-JIT unit tests (src/uvm/jit.cc, src/uvm/jitcache.h).
//
// Engine-equivalence proofs live in interp_dispatch_test.cc (the jit engine
// participates in every lockstep sweep and the kernel A/B there). This file
// covers the machinery itself: the W^X arena lifecycle, lazy compilation
// and its hotness threshold, the one-block rule (bursts whose entry block
// ends in a trap run the switch core and count no hotness), the fallback
// after a refused compile, per-program cache teardown/recompilation, and
// the deopt contract -- a compiled burst that bails must materialize
// registers, PC and the cycle account exactly where the switch engine
// would leave them.

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/uvm/interp.h"
#include "src/uvm/jit.h"
#include "src/uvm/jitcache.h"
#include "src/uvm/program.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

class FlatBus : public MemoryBus {
 public:
  explicit FlatBus(uint32_t size) : mem_(size, 0) {}

  void SetFaultWindow(uint32_t lo, uint32_t hi) {
    fault_lo_ = lo;
    fault_hi_ = hi;
  }

  bool ReadByte(uint32_t vaddr, uint8_t* out, uint32_t* fault_addr) override {
    if (Faults(vaddr)) {
      *fault_addr = vaddr;
      return false;
    }
    *out = mem_[vaddr];
    return true;
  }
  bool WriteByte(uint32_t vaddr, uint8_t value, uint32_t* fault_addr) override {
    if (Faults(vaddr)) {
      *fault_addr = vaddr;
      return false;
    }
    mem_[vaddr] = value;
    return true;
  }
  bool ReadWord(uint32_t vaddr, uint32_t* out, uint32_t* fault_addr) override {
    uint32_t v = 0;
    for (uint32_t i = 0; i < 4; ++i) {
      uint8_t b = 0;
      if (!ReadByte(vaddr + i, &b, fault_addr)) {
        return false;
      }
      v |= static_cast<uint32_t>(b) << (8 * i);
    }
    *out = v;
    return true;
  }
  bool WriteWord(uint32_t vaddr, uint32_t value, uint32_t* fault_addr) override {
    for (uint32_t i = 0; i < 4; ++i) {
      if (Faults(vaddr + i)) {
        *fault_addr = vaddr + i;
        return false;
      }
    }
    for (uint32_t i = 0; i < 4; ++i) {
      mem_[vaddr + i] = static_cast<uint8_t>(value >> (8 * i));
    }
    return true;
  }

  const std::vector<uint8_t>& mem() const { return mem_; }

 private:
  bool Faults(uint32_t vaddr) const {
    return vaddr >= mem_.size() || (vaddr >= fault_lo_ && vaddr < fault_hi_);
  }

  std::vector<uint8_t> mem_;
  uint32_t fault_lo_ = 1;
  uint32_t fault_hi_ = 0;
};

constexpr uint32_t kMemSize = 64 * 1024;

#define SKIP_WITHOUT_JIT()                                    \
  do {                                                        \
    if (!JitCompiledIn()) {                                   \
      GTEST_SKIP() << "jit engine not compiled in";           \
    }                                                         \
    if (!JitAvailable()) {                                    \
      GTEST_SKIP() << "host refuses executable pages";        \
    }                                                         \
  } while (0)

// A loop long enough that any reasonable budget makes it hot.
ProgramRef LoopProgram(const char* name = "jitloop") {
  Assembler a(name);
  const auto top = a.NewLabel();
  a.MovImm(kRegB, 0);
  a.MovImm(kRegC, 500);
  a.Bind(top);
  a.Add(kRegD, kRegD, kRegB);
  a.Xor(kRegSI, kRegD, kRegC);
  a.AddImm(kRegB, kRegB, 1);
  a.Blt(kRegB, kRegC, top);
  a.Halt();
  return a.Build();
}

TEST(JitArena, WxLifecycle) {
  if (!JitCompiledIn()) {
    GTEST_SKIP() << "jit engine not compiled in";
  }
  jit_internal::JitArena arena;
  ASSERT_TRUE(arena.Allocate(64));
  ASSERT_NE(arena.base(), nullptr);
  EXPECT_FALSE(arena.sealed());
  EXPECT_GE(arena.size(), 64u);
  EXPECT_EQ(arena.size() % jit_internal::JitArena::HostPageSize(), 0u);

  // Writable before Seal: emit `mov eax, 0x2A; ret`.
  const uint8_t code[] = {0xB8, 0x2A, 0x00, 0x00, 0x00, 0xC3};
  std::memcpy(arena.base(), code, sizeof code);
  if (!arena.Seal()) {
    GTEST_SKIP() << "host refuses executable pages";
  }
  EXPECT_TRUE(arena.sealed());
  auto fn = reinterpret_cast<int (*)()>(arena.base());
  EXPECT_EQ(fn(), 0x2A);

  // Double-seal and double-allocate are refused, not UB.
  EXPECT_FALSE(arena.Seal());
  EXPECT_FALSE(arena.Allocate(64));

  arena.Release();
  EXPECT_EQ(arena.base(), nullptr);
  EXPECT_FALSE(arena.sealed());
  // Released arenas are reusable.
  EXPECT_TRUE(arena.Allocate(16));
  arena.Release();
}

TEST(JitArena, ZeroSizeRefused) {
  if (!JitCompiledIn()) {
    GTEST_SKIP() << "jit engine not compiled in";
  }
  jit_internal::JitArena arena;
  EXPECT_FALSE(arena.Allocate(0));
  EXPECT_EQ(arena.base(), nullptr);
}

TEST(JitCompile, LazyHotnessThreshold) {
  SKIP_WITHOUT_JIT();
  ProgramRef p = LoopProgram();
  FlatBus bus(kMemSize);
  uint64_t compiles = 0, entries = 0, bytes = 0;
  InterpOptions opts;
  opts.engine = InterpEngine::kJit;
  opts.jit_compiles = &compiles;
  opts.jit_block_entries = &entries;
  opts.jit_bytes = &bytes;

  // Burst 1 from pc 0: cold, runs the switch core, no compile.
  UserRegisters cold;
  (void)RunUser(*p, &cold, &bus, 1u << 20, opts);
  EXPECT_EQ(compiles, 0u);
  EXPECT_FALSE(p->JitReady());
  EXPECT_EQ(entries, 0u);

  // Burst 2 enters at the same pc (a fresh thread of the same program):
  // crosses kJitHotThreshold, compiles, and runs compiled code in the same
  // call.
  UserRegisters regs;
  (void)RunUser(*p, &regs, &bus, 1u << 20, opts);
  EXPECT_EQ(compiles, 1u);
  EXPECT_TRUE(p->JitReady());
  EXPECT_GT(entries, 0u);
  EXPECT_GT(bytes, 0u);
  const JitProgram& jp = p->JitState();
  EXPECT_TRUE(jp.arena_sealed());
  EXPECT_GE(jp.code_bytes(), bytes);

  // Ready programs never recompile.
  UserRegisters regs2;
  (void)RunUser(*p, &regs2, &bus, 1u << 20, opts);
  EXPECT_EQ(compiles, 1u);
}

TEST(JitCompile, TeardownReleasesAndRecompiles) {
  SKIP_WITHOUT_JIT();
  uint64_t compiles = 0;
  InterpOptions opts;
  opts.engine = InterpEngine::kJit;
  opts.jit_compiles = &compiles;
  // The jit cache is per-Program state: a second Program built from the
  // same source compiles its own arena (the first one's died with it).
  for (int round = 0; round < 2; ++round) {
    ProgramRef p = LoopProgram();
    FlatBus bus(kMemSize);
    for (int burst = 0; burst < 2; ++burst) {
      UserRegisters regs;  // each burst enters at pc 0
      (void)RunUser(*p, &regs, &bus, 1u << 20, opts);
    }
    ASSERT_TRUE(p->JitReady()) << "round " << round;
  }
  EXPECT_EQ(compiles, 2u);
}

// The deopt contract: when a block charge cannot fit the remaining budget,
// the compiled burst bails and the switch core finishes -- so every
// observable (event, cycles, pc, registers, memory, retired instructions)
// matches a pure-switch run at every budget, including budgets that stop
// mid-block.
TEST(JitDeopt, MaterializedStateMatchesSwitchAtEveryBudget) {
  SKIP_WITHOUT_JIT();
  ProgramRef p = LoopProgram();
  // Warm the program so every measured burst below runs compiled code:
  // two separate entries at pc 0 cross the hotness threshold.
  {
    FlatBus bus(kMemSize);
    InterpOptions warm;
    warm.engine = InterpEngine::kJit;
    for (int i = 0; i < 2; ++i) {
      UserRegisters regs;
      (void)RunUser(*p, &regs, &bus, 1u << 20, warm);
    }
    ASSERT_TRUE(p->JitReady());
  }
  uint64_t deopts = 0;
  for (uint64_t budget = 1; budget <= 40; ++budget) {
    FlatBus ba(kMemSize), bb(kMemSize);
    UserRegisters ra, rb;
    uint64_t ia = 0, ib = 0;
    InterpOptions oa;
    oa.engine = InterpEngine::kSwitch;
    oa.instructions = &ia;
    InterpOptions ob;
    ob.engine = InterpEngine::kJit;
    ob.instructions = &ib;
    ob.jit_deopts = &deopts;
    const RunResult x = RunUser(*p, &ra, &ba, budget, oa);
    const RunResult y = RunUser(*p, &rb, &bb, budget, ob);
    EXPECT_EQ(x.event, y.event) << "budget " << budget;
    EXPECT_EQ(x.cycles, y.cycles) << "budget " << budget;
    EXPECT_EQ(ra.pc, rb.pc) << "budget " << budget;
    EXPECT_EQ(ia, ib) << "budget " << budget;
    EXPECT_EQ(0, std::memcmp(ra.gpr, rb.gpr, sizeof ra.gpr)) << "budget " << budget;
    EXPECT_EQ(ba.mem(), bb.mem()) << "budget " << budget;
  }
  // Small budgets really did exercise the deopt path.
  EXPECT_GT(deopts, 0u);
}

TEST(JitDeopt, MidBlockFaultUnchargesSuffix) {
  SKIP_WITHOUT_JIT();
  // A straight-line block of stores walking into a fault window: the
  // faulting store must report the cycles of the instructions that
  // actually retired, not the whole charged block. The entry block ends in
  // a jump, so bursts enter compiled code (a burst whose entry block ends
  // in the halt would be one block, and run the switch core).
  Assembler a("jitfault");
  const auto stores = a.NewLabel();
  a.MovImm(kRegB, 0x200);
  a.Jmp(stores);
  a.Bind(stores);
  for (int i = 0; i < 6; ++i) {
    a.AddImm(kRegC, kRegC, 1);
    a.StoreW(kRegC, kRegB, 0);
    a.AddImm(kRegB, kRegB, 4);
  }
  a.Halt();
  ProgramRef p = a.Build();
  // Warm (no fault window yet would change behavior: keep the window on so
  // both warm bursts see the same machine).
  InterpOptions warm;
  warm.engine = InterpEngine::kJit;
  for (int i = 0; i < 2; ++i) {
    FlatBus bus(kMemSize);
    bus.SetFaultWindow(0x208, 0x20C);
    UserRegisters regs;
    (void)RunUser(*p, &regs, &bus, 1u << 20, warm);
  }
  ASSERT_TRUE(p->JitReady());

  FlatBus ba(kMemSize), bb(kMemSize);
  ba.SetFaultWindow(0x208, 0x20C);
  bb.SetFaultWindow(0x208, 0x20C);
  UserRegisters ra, rb;
  InterpOptions oa;
  oa.engine = InterpEngine::kSwitch;
  InterpOptions ob;
  ob.engine = InterpEngine::kJit;
  const RunResult x = RunUser(*p, &ra, &ba, 1u << 20, oa);
  const RunResult y = RunUser(*p, &rb, &bb, 1u << 20, ob);
  ASSERT_EQ(x.event, UserEvent::kFault);
  ASSERT_EQ(y.event, UserEvent::kFault);
  EXPECT_EQ(y.fault_addr, x.fault_addr);
  EXPECT_EQ(y.fault_is_write, x.fault_is_write);
  EXPECT_EQ(y.cycles, x.cycles);
  EXPECT_EQ(rb.pc, ra.pc);
  EXPECT_EQ(ba.mem(), bb.mem());
}

// Runs one burst of `p` from `pc` under `engine` on a fresh bus and
// registers, returning the whole observable outcome.
struct Burst {
  RunResult r;
  UserRegisters regs;
  std::vector<uint8_t> mem;
  uint64_t instrs = 0;
};

Burst RunOne(const Program& p, InterpEngine engine, uint32_t pc, uint64_t budget,
             uint64_t* entries = nullptr, uint64_t* compiles = nullptr) {
  Burst b;
  FlatBus bus(kMemSize);
  b.regs.pc = pc;
  b.regs.gpr[kRegC] = 0x100;
  InterpOptions opts;
  opts.engine = engine;
  opts.instructions = &b.instrs;
  opts.jit_block_entries = entries;
  opts.jit_compiles = compiles;
  b.r = RunUser(p, &b.regs, &bus, budget, opts);
  b.mem = bus.mem();
  return b;
}

void ExpectSameBurst(const Burst& x, const Burst& y, const char* what) {
  EXPECT_EQ(x.r.event, y.r.event) << what;
  EXPECT_EQ(x.r.cycles, y.r.cycles) << what;
  EXPECT_EQ(x.r.fault_addr, y.r.fault_addr) << what;
  EXPECT_EQ(x.r.fault_is_write, y.r.fault_is_write) << what;
  EXPECT_EQ(x.regs, y.regs) << what;
  EXPECT_EQ(x.instrs, y.instrs) << what;
  EXPECT_EQ(x.mem, y.mem) << what;
}

// After a compile, a burst entering at a trap-ended block runs the switch
// core: it enters no compiled block, and matches a switch burst exactly. A
// burst entering at the loop runs compiled code. The block at kTrapPc is
// what a client resumes at after each syscall when it makes one call per
// burst.
TEST(JitEntry, TrapEndedEntryRunsTheSwitchCoreAfterCompile) {
  SKIP_WITHOUT_JIT();
  constexpr uint32_t kTrapPc = 6;
  Assembler a("jitlooptrap");
  const auto top = a.NewLabel();
  a.MovImm(kRegB, 0);                // 0
  a.MovImm(kRegD, 40);               // 1
  a.Bind(top);
  a.AddImm(kRegB, kRegB, 1);         // 2
  a.Blt(kRegB, kRegD, top);          // 3
  a.Halt();                          // 4
  a.Nop();                           // 5
  a.StoreW(kRegB, kRegC, 0);         // 6: the trap-ended block
  a.AddImm(kRegB, kRegB, 3);         // 7
  a.Syscall();                       // 8
  ProgramRef p = a.Build();
  const JitProgram& jp = p->JitState();
  EXPECT_TRUE(jp.OneBlock(kTrapPc));
  EXPECT_FALSE(jp.OneBlock(0));

  uint64_t entries = 0, compiles = 0;
  for (int i = 0; i < 2; ++i) {
    (void)RunOne(*p, InterpEngine::kJit, 0, 1u << 20, &entries, &compiles);
  }
  ASSERT_TRUE(p->JitReady());
  ASSERT_EQ(compiles, 1u);

  // Loop entry: compiled blocks run.
  const uint64_t before_loop = entries;
  ExpectSameBurst(RunOne(*p, InterpEngine::kJit, 0, 1u << 20, &entries),
                  RunOne(*p, InterpEngine::kSwitch, 0, 1u << 20), "loop entry");
  EXPECT_GT(entries, before_loop);

  // Trap-ended entry, at every budget through the block and beyond.
  for (uint64_t budget = 0; budget <= 8; ++budget) {
    const uint64_t before = entries;
    const Burst jit = RunOne(*p, InterpEngine::kJit, kTrapPc, budget, &entries);
    EXPECT_EQ(entries, before) << "budget " << budget;
    ExpectSameBurst(jit, RunOne(*p, InterpEngine::kSwitch, kTrapPc, budget),
                    "trap-ended entry");
  }
  EXPECT_EQ(RunOne(*p, InterpEngine::kJit, kTrapPc, 100).r.event, UserEvent::kSyscall);
  EXPECT_EQ(compiles, 1u);
}

// A program made only of trap-ended blocks -- straight-line code from one
// syscall to the next, then a halt -- never becomes hot, however often its
// bursts run, so it never pays for emission.
TEST(JitEntry, TrapEndedBlocksNeverCompile) {
  SKIP_WITHOUT_JIT();
  Assembler a("jitsyscalls");
  for (int i = 0; i < 4; ++i) {
    a.AddImm(kRegB, kRegB, 1);
    a.StoreW(kRegB, kRegC, 0);
    a.Syscall();
  }
  a.Break();
  a.Halt();
  ProgramRef p = a.Build();
  uint64_t entries = 0, compiles = 0;
  for (int round = 0; round < 8; ++round) {
    UserRegisters regs;
    regs.gpr[kRegC] = 0x100;
    FlatBus bus(kMemSize);
    InterpOptions opts;
    opts.engine = InterpEngine::kJit;
    opts.jit_block_entries = &entries;
    opts.jit_compiles = &compiles;
    for (;;) {
      const RunResult r = RunUser(*p, &regs, &bus, 1u << 20, opts);
      if (r.event != UserEvent::kSyscall && r.event != UserEvent::kBreak) {
        EXPECT_EQ(r.event, UserEvent::kHalt);
        break;
      }
      ++regs.pc;  // the kernel steps over the trap
    }
  }
  EXPECT_EQ(compiles, 0u);
  EXPECT_EQ(entries, 0u);
  EXPECT_FALSE(p->JitReady());
}

// A refused compile leaves the program on the switch core for good: hot
// bursts then run it with results identical to the switch engine's, and
// nothing compiles.
TEST(JitEntry, FailedCompileRunsTheSwitchCore) {
  SKIP_WITHOUT_JIT();
  ProgramRef p = LoopProgram("jitrefused");
  p->JitState().MarkFailed();
  uint64_t entries = 0, compiles = 0;
  for (uint64_t budget : {uint64_t{1}, uint64_t{7}, uint64_t{100}, uint64_t{1} << 20}) {
    for (int i = 0; i < 3; ++i) {  // past the hotness threshold
      ExpectSameBurst(RunOne(*p, InterpEngine::kJit, 0, budget, &entries, &compiles),
                      RunOne(*p, InterpEngine::kSwitch, 0, budget), "refused compile");
    }
  }
  EXPECT_EQ(compiles, 0u);
  EXPECT_EQ(entries, 0u);
  EXPECT_FALSE(p->JitReady());
}

TEST(JitEntry, BadPcEntryNeverCompiles) {
  SKIP_WITHOUT_JIT();
  ProgramRef p = LoopProgram();
  FlatBus bus(kMemSize);
  uint64_t compiles = 0;
  InterpOptions opts;
  opts.engine = InterpEngine::kJit;
  opts.jit_compiles = &compiles;
  for (int i = 0; i < 8; ++i) {
    UserRegisters regs;
    regs.pc = p->size() + 7;  // far out of bounds
    const RunResult r = RunUser(*p, &regs, &bus, 100, opts);
    EXPECT_EQ(r.event, UserEvent::kBadPc);
  }
  EXPECT_EQ(compiles, 0u);
  EXPECT_FALSE(p->JitReady());
}

}  // namespace
}  // namespace fluke
