// Interpreter-engine determinism tests (src/uvm/interp.cc,
// src/uvm/interp_switch.cc, src/uvm/jit.cc).
//
// The jit engine is a host-side execution strategy only: any program, any
// budget, any fault pattern must produce bit-identical RunResults,
// registers, memory and kernel statistics under both engines (switch
// reference, template JIT). Two layers of proof:
//   1. Direct lockstep: run the same program under both engines for
//      *every* budget value (and in resumed bursts), comparing full machine
//      state against the switch reference. The budget sweep lands an
//      exhaustion on every instruction of every block, including mid-block
//      and exactly-at-a-zero-cost-trap -- for the jit engine that exercises
//      the deopt path on every block boundary.
//   2. Kernel A/B (modeled on tlb_test.cc): a workload with user loops,
//      soft faults, IPC and a breakpoint, across the five paper configs,
//      comparing end time, console, memory, final thread registers and all
//      pre-existing stats (jit_* counters excepted, by definition)
//      pairwise against the switch engine.

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "src/uvm/interp.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

// Flat-memory bus with an optional [lo, hi) faulting window, byte-wise word
// access -- same shape as uvm_test.cc's. No TranslateSpan: every access
// takes the bus path, so the engines' fallback paths are exercised.
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
      if (Faults(vaddr + i)) {  // no partial writes
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
  uint32_t fault_hi_ = 0;  // empty window by default
};

struct MachineState {
  RunResult r;
  UserRegisters regs;
  std::vector<uint8_t> mem;

  bool operator==(const MachineState& o) const {
    return r.event == o.r.event && r.cycles == o.r.cycles &&
           r.fault_addr == o.r.fault_addr &&
           r.fault_is_write == o.r.fault_is_write && regs == o.regs &&
           mem == o.mem;
  }
};

constexpr uint32_t kMemSize = 64 * 1024;

// Engines to compare: the switch reference always, the jit when it is
// compiled in and the host grants executable pages.
std::vector<InterpEngine> TestEngines() {
  std::vector<InterpEngine> engines = {InterpEngine::kSwitch};
  if (JitCompiledIn() && JitAvailable()) {
    engines.push_back(InterpEngine::kJit);
  }
  return engines;
}

// Runs `program` from a zeroed machine in bursts of `budget` cycles under
// one engine, acting as a minimal kernel: budget exhaustion re-runs,
// syscalls and breakpoints are stepped over (PC rests on the trapping
// instruction, so advance it and continue), anything else ends the run.
// Stops after `max_bursts` RunUser calls regardless. `instructions`
// accumulates the semantic retired-instruction count when non-null.
MachineState RunBursts(const Program& program, InterpEngine engine,
                       uint64_t budget, int max_bursts, uint32_t fault_lo = 1,
                       uint32_t fault_hi = 0, uint32_t start_pc = 0,
                       uint64_t* instructions = nullptr) {
  MachineState s;
  FlatBus bus(kMemSize);
  bus.SetFaultWindow(fault_lo, fault_hi);
  s.regs.pc = start_pc;
  InterpOptions opts;
  opts.engine = engine;
  opts.instructions = instructions;
  for (int i = 0; i < max_bursts; ++i) {
    s.r = RunUser(program, &s.regs, &bus, budget, opts);
    if (s.r.event == UserEvent::kSyscall || s.r.event == UserEvent::kBreak) {
      ++s.regs.pc;
    } else if (s.r.event != UserEvent::kBudget) {
      break;
    }
  }
  s.mem = bus.mem();
  return s;
}

void ExpectLockstep(const Program& program, uint64_t budget, int max_bursts,
                    uint32_t fault_lo = 1, uint32_t fault_hi = 0,
                    uint32_t start_pc = 0) {
  uint64_t ref_instrs = 0;
  const MachineState ref =
      RunBursts(program, InterpEngine::kSwitch, budget, max_bursts, fault_lo,
                fault_hi, start_pc, &ref_instrs);
  for (InterpEngine engine : TestEngines()) {
    if (engine == InterpEngine::kSwitch) {
      continue;
    }
    uint64_t instrs = 0;
    const MachineState on = RunBursts(program, engine, budget, max_bursts,
                                      fault_lo, fault_hi, start_pc, &instrs);
    EXPECT_TRUE(on == ref)
        << "engine " << InterpEngineName(engine)
        << " diverged: budget=" << budget << " bursts=" << max_bursts
        << " pc0=" << start_pc
        << " | ref: event=" << static_cast<int>(ref.r.event)
        << " cycles=" << ref.r.cycles << " pc=" << ref.regs.pc
        << " | got: event=" << static_cast<int>(on.r.event)
        << " cycles=" << on.r.cycles << " pc=" << on.regs.pc;
    EXPECT_EQ(instrs, ref_instrs)
        << "retired-instruction count diverged under "
        << InterpEngineName(engine) << " at budget=" << budget;
  }
}

// Total cycles a program consumes under the reference engine with an ample
// budget, stepping over traps like RunBursts (used to size exhaustive
// sweeps).
uint64_t TotalCycles(const Program& program) {
  UserRegisters regs;
  FlatBus bus(kMemSize);
  InterpOptions opts;
  opts.engine = InterpEngine::kSwitch;
  uint64_t total = 0;
  for (int i = 0; i < 100; ++i) {
    const RunResult r = RunUser(program, &regs, &bus, 1u << 30, opts);
    total += r.cycles;
    if (r.event == UserEvent::kSyscall || r.event == UserEvent::kBreak) {
      ++regs.pc;
    } else {
      break;
    }
  }
  return total;
}

// A program crossing every dispatch class: ALU runs, loads/stores (byte,
// word, and a word placed 2 bytes before a page boundary so it straddles),
// taken/untaken branches of every flavor, a jump, Compute, a syscall, a
// breakpoint and a halt.
ProgramRef MixedProgram() {
  Assembler a("mixed");
  const auto loop = a.NewLabel();
  const auto skip = a.NewLabel();
  const auto out = a.NewLabel();
  a.MovImm(kRegB, 0);                 // i
  a.MovImm(kRegC, 6);                 // limit
  a.MovImm(kRegD, 0x100);             // cursor
  a.Bind(loop);
  a.Add(kRegSI, kRegB, kRegB);
  a.Mul(kRegSI, kRegSI, kRegSI);
  a.StoreW(kRegSI, kRegD, 0);
  a.LoadW(kRegDI, kRegD, 0);
  a.Xor(kRegSI, kRegSI, kRegDI);      // 0
  a.StoreB(kRegB, kRegD, 4);
  a.LoadB(kRegBP, kRegD, 4);
  a.Beq(kRegSI, kRegBP, skip);        // taken only when i == 0
  a.Sub(kRegDI, kRegDI, kRegB);
  a.Shl(kRegDI, kRegDI, kRegB);
  a.Bind(skip);
  a.Compute(7);
  a.AddImm(kRegD, kRegD, 8);
  a.AddImm(kRegB, kRegB, 1);
  a.Blt(kRegB, kRegC, loop);
  a.MovImm(kRegDI, 2 * kPageSize - 2);
  a.StoreW(kRegB, kRegDI, 0);         // word straddles a page boundary
  a.LoadW(kRegSI, kRegDI, 0);
  a.Bne(kRegB, kRegC, out);           // never taken (B == C here)
  a.Syscall();
  a.Bind(out);
  a.Nop();
  a.Break();
  a.Halt();  // unreachable tail: bursts stop at the break
  return a.Build();
}

TEST(InterpLockstep, EveryBudgetOnMixedProgram) {
  ProgramRef p = MixedProgram();
  const uint64_t total = TotalCycles(*p);
  ASSERT_GT(total, 50u);
  // Up to 5 bursts so large budgets run through the syscall and breakpoint
  // to the halt; small budgets land an exhaustion on every instruction.
  for (uint64_t budget = 0; budget <= total + 4; ++budget) {
    ExpectLockstep(*p, budget, 5);
  }
}

TEST(InterpLockstep, ResumedBurstsOnMixedProgram) {
  ProgramRef p = MixedProgram();
  for (uint64_t burst : {1u, 2u, 3u, 5u, 7u, 11u, 13u, 64u}) {
    ExpectLockstep(*p, burst, 1000);
  }
}

// Budget running out exactly at a zero-cost trap: the trap must NOT fire.
// Entered at pc 0 the block ends in the trap, so the jit leg runs the
// switch core; entered at pc 3 a jump reaches the trap through compiled
// code once the program is hot.
TEST(InterpLockstep, BudgetExactlyExhaustedAtTrap) {
  for (Op trap : {Op::kSyscall, Op::kBreak}) {
    std::vector<Instr> code;
    code.push_back(Instr{Op::kCompute, 0, 0, 0, 5});
    code.push_back(Instr{trap, 0, 0, 0, 0});
    code.push_back(Instr{Op::kHalt, 0, 0, 0, 0});
    code.push_back(Instr{Op::kCompute, 0, 0, 0, 3});
    code.push_back(Instr{Op::kJmp, 0, 0, 0, 1});
    Program p("trap-edge", code);
    for (uint64_t budget = 0; budget <= 8; ++budget) {
      ExpectLockstep(p, budget, 1);
      ExpectLockstep(p, budget, 1, 1, 0, /*start_pc=*/3);
    }
    // The reference semantics themselves: budget 5 is exhausted at the
    // trap's door, so the exit is kBudget with PC resting on the trap.
    const MachineState s = RunBursts(p, InterpEngine::kSwitch, 5, 1);
    EXPECT_EQ(s.r.event, UserEvent::kBudget);
    EXPECT_EQ(s.regs.pc, 1u);
    EXPECT_EQ(s.r.cycles, 5u);
  }
}

TEST(InterpLockstep, MidBlockFaultAndRetry) {
  // Straight-line block of stores walking into a fault window; after the
  // fault, clearing the window and re-running (same PC) must resume. The
  // entry block ends in a jump, so once hot the jit leg runs the stores in
  // compiled code.
  Assembler a("faulter");
  const auto stores = a.NewLabel();
  a.MovImm(kRegB, 0x200);
  a.Jmp(stores);
  a.Bind(stores);
  for (int i = 0; i < 8; ++i) {
    a.AddImm(kRegC, kRegC, 3);
    a.StoreW(kRegC, kRegB, 0);
    a.AddImm(kRegB, kRegB, 4);
  }
  a.LoadW(kRegD, kRegB, 0x20000);  // out of FlatBus memory: always faults
  a.Halt();
  ProgramRef p = a.Build();

  const uint64_t total_to_fault = TotalCycles(*p);
  for (uint64_t budget = 0; budget <= total_to_fault + 4; ++budget) {
    // Window [0x210, 0x214) faults the 5th store mid-run.
    ExpectLockstep(*p, budget, 1, 0x210, 0x214);
  }

  // Fault-retry under each engine: fault, widen nothing, clear, resume.
  for (InterpEngine engine : TestEngines()) {
    FlatBus bus(kMemSize);
    bus.SetFaultWindow(0x210, 0x214);
    UserRegisters regs;
    InterpOptions opts;
    opts.engine = engine;
    RunResult r = RunUser(*p, &regs, &bus, 1u << 30, opts);
    ASSERT_EQ(r.event, UserEvent::kFault);
    EXPECT_EQ(r.fault_addr, 0x210u);
    EXPECT_TRUE(r.fault_is_write);
    bus.SetFaultWindow(1, 0);  // "the kernel mapped the page"
    r = RunUser(*p, &regs, &bus, 1u << 30, opts);
    EXPECT_EQ(r.event, UserEvent::kFault);  // the final out-of-memory load
    EXPECT_FALSE(r.fault_is_write);
  }
}

TEST(InterpLockstep, BadPcVariants) {
  // Hand-built code: the assembler refuses unbound targets, but user code
  // can jump anywhere it likes.
  const uint32_t kFar = 1000;
  std::vector<Instr> jmp_out = {Instr{Op::kNop, 0, 0, 0, 0},
                                Instr{Op::kJmp, 0, 0, 0, kFar}};
  std::vector<Instr> branch_out = {Instr{Op::kMovImm, 0, 0, 0, 7},
                                   Instr{Op::kMovImm, 1, 0, 0, 7},
                                   Instr{Op::kBeq, 0, 1, 0, kFar}};
  std::vector<Instr> branch_out_untaken = {Instr{Op::kMovImm, 0, 0, 0, 7},
                                           Instr{Op::kMovImm, 1, 0, 0, 8},
                                           Instr{Op::kBeq, 0, 1, 0, kFar},
                                           Instr{Op::kHalt, 0, 0, 0, 0}};
  // Branch to exactly program size: lands one past the end, same as falling
  // off.
  std::vector<Instr> branch_to_size = {Instr{Op::kNop, 0, 0, 0, 0},
                                       Instr{Op::kJmp, 0, 0, 0, 2}};
  std::vector<Instr> fall_off_end = {Instr{Op::kNop, 0, 0, 0, 0},
                                     Instr{Op::kAddImm, 2, 2, 0, 1}};
  int idx = 0;
  for (const auto& code : {jmp_out, branch_out, branch_out_untaken,
                           branch_to_size, fall_off_end}) {
    Program p("badpc" + std::to_string(idx++), code);
    for (uint64_t budget = 0; budget <= 12; ++budget) {
      ExpectLockstep(p, budget, 1);
    }
    // And entry straight onto / past the end.
    ExpectLockstep(p, 100, 1, 1, 0, p.size());
    ExpectLockstep(p, 100, 1, 1, 0, p.size() + 3);
    ExpectLockstep(p, 0, 1, 1, 0, p.size() + 3);  // budget check wins
  }
}

// The jit's block charges and its per-program compile: blocks are entered
// in compiled code, the program compiles once, and the compile is cached on
// the Program.
TEST(InterpCounters, BlockChargesAndPredecodesMove) {
  if (!JitCompiledIn() || !JitAvailable()) {
    GTEST_SKIP() << "no jit on this host";
  }
  ProgramRef p = MixedProgram();
  FlatBus bus(kMemSize);
  uint64_t entries = 0, compiles = 0;
  InterpOptions opts;
  opts.engine = InterpEngine::kJit;
  opts.jit_block_entries = &entries;
  opts.jit_compiles = &compiles;
  // The first entry at pc 0 is cold; the second compiles and runs compiled.
  for (int i = 0; i < 2; ++i) {
    UserRegisters regs;
    (void)RunUser(*p, &regs, &bus, 1u << 30, opts);
  }
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(compiles, 1u);
  // A second run compiles nothing.
  UserRegisters regs;
  (void)RunUser(*p, &regs, &bus, 1u << 30, opts);
  EXPECT_EQ(compiles, 1u);
}

// --- Kernel A/B determinism across the five paper configurations ---

class InterpDeterminismTest : public testing::TestWithParam<KernelConfig> {};

struct DetResult {
  Time end_time = 0;
  KernelStats stats;
  std::string console;
  std::vector<uint32_t> server_mem;
  std::vector<UserRegisters> final_regs;  // every thread, creation order
  std::vector<int> final_states;
};

// The tlb_test workload -- user-mode page fill (soft faults + mini-TLB),
// IPC send-over-receive, reply, console output -- plus a breakpoint thread,
// so every RunUser exit class (budget, syscall, fault, halt, break) occurs.
DetResult RunWorkload(KernelConfig cfg, InterpEngine engine) {
  cfg.interp_engine = engine;
  Kernel k(cfg);
  auto cs = k.CreateSpace("cl");
  auto ss = k.CreateSpace("sv");
  auto bs = k.CreateSpace("brk");
  cs->SetAnonRange(0x10000, 4 << 20);
  ss->SetAnonRange(0x10000, 4 << 20);
  bs->SetAnonRange(0x10000, 1 << 20);
  auto port = k.NewPort(9);
  const Handle sp = k.Install(ss, port);
  const Handle cr = k.Install(cs, k.NewReference(port));
  constexpr uint32_t kBuf = 0x20000;
  constexpr uint32_t kBufBytes = 16 * kPageSize;
  constexpr uint32_t kWords = kBufBytes / 4;

  Assembler ca("client");
  {
    const auto loop = ca.NewLabel();
    const auto out = ca.NewLabel();
    ca.MovImm(kRegB, kBuf);
    ca.MovImm(kRegC, kBuf + kBufBytes);
    ca.MovImm(kRegD, 1);
    ca.Bind(loop);
    ca.Bge(kRegB, kRegC, out);
    ca.StoreW(kRegD, kRegB, 0);
    ca.LoadW(kRegSI, kRegB, 0);
    ca.Add(kRegD, kRegD, kRegSI);
    ca.AddImm(kRegB, kRegB, 4);
    ca.Jmp(loop);
    ca.Bind(out);
    EmitSys(ca, kSysIpcClientConnect, cr);
    EmitCheckOk(ca);
    EmitSys(ca, kSysIpcClientSendOverReceive, kUlibKeep, kBuf, kWords, kBuf, 1);
    EmitCheckOk(ca);
    EmitPuts(ca, "C");
    ca.Halt();
  }
  Assembler sa("server");
  {
    EmitSys(sa, kSysIpcWaitReceive, sp, 0, 0, kBuf, kWords);
    EmitCheckOk(sa);
    EmitSys(sa, kSysIpcServerAckSend, 0, kBuf, 1, 0, 0);
    EmitCheckOk(sa);
    EmitPuts(sa, "S");
    sa.Halt();
  }
  Assembler ba("breaker");
  {
    ba.Compute(5000);
    ba.MovImm(kRegSI, 0xB4EA);
    ba.Break();
    ba.Halt();  // never reached: the thread stays stopped
  }
  ss->program = sa.Build();
  cs->program = ca.Build();
  bs->program = ba.Build();
  k.StartThread(k.CreateThread(ss));
  k.StartThread(k.CreateThread(cs));
  k.StartThread(k.CreateThread(bs));
  EXPECT_TRUE(k.RunUntilQuiescent(120ull * 1000 * kNsPerMs));

  DetResult r;
  r.end_time = k.clock.now();
  r.stats = k.stats;
  r.console = k.console.output();
  r.server_mem.resize(kWords);
  EXPECT_TRUE(ss->HostRead(kBuf, r.server_mem.data(), kBufBytes));
  for (const auto& t : k.threads()) {
    r.final_regs.push_back(t->regs);
    r.final_states.push_back(static_cast<int>(t->run_state));
  }
  return r;
}

TEST_P(InterpDeterminismTest, VirtualTimeAndStatsIdenticalAcrossEngines) {
  const DetResult ref = RunWorkload(GetParam(), InterpEngine::kSwitch);
  const KernelStats& b = ref.stats;

  // The workload exercised what it claims to: user-instruction soft faults
  // (fault-retry through every engine) and the breakpoint.
  EXPECT_GT(b.user_faults, 0u);
  const int kStopped = static_cast<int>(ThreadRun::kStopped);
  EXPECT_EQ(std::count(ref.final_states.begin(), ref.final_states.end(), kStopped), 1);
  // The reference engine never compiles.
  EXPECT_EQ(b.jit_compiles, 0u);
  EXPECT_EQ(b.jit_block_entries, 0u);

  for (InterpEngine engine : TestEngines()) {
    if (engine == InterpEngine::kSwitch) {
      continue;
    }
    SCOPED_TRACE(InterpEngineName(engine));
    const DetResult on = RunWorkload(GetParam(), engine);

    EXPECT_EQ(on.end_time, ref.end_time);
    EXPECT_EQ(on.console, ref.console);
    EXPECT_EQ(on.server_mem, ref.server_mem);
    EXPECT_EQ(on.final_regs, ref.final_regs);
    EXPECT_EQ(on.final_states, ref.final_states);

    const KernelStats& a = on.stats;
    EXPECT_EQ(a.context_switches, b.context_switches);
    EXPECT_EQ(a.syscalls, b.syscalls);
    EXPECT_EQ(a.syscall_restarts, b.syscall_restarts);
    EXPECT_EQ(a.kernel_preemptions, b.kernel_preemptions);
    EXPECT_EQ(a.soft_faults, b.soft_faults);
    EXPECT_EQ(a.hard_faults, b.hard_faults);
    EXPECT_EQ(a.user_faults, b.user_faults);
    EXPECT_EQ(a.region_pages_scanned, b.region_pages_scanned);
    EXPECT_EQ(a.syscall_faults, b.syscall_faults);
    EXPECT_EQ(a.user_instructions, b.user_instructions);
    // All engines share the mini-TLB and Space translation paths -- the
    // jit's inlined front-slot probe and its helper slow paths replicate
    // the switch engine's exact access sequence -- so even the TLB
    // counters must match exactly.
    EXPECT_EQ(a.tlb_hits, b.tlb_hits);
    EXPECT_EQ(a.tlb_misses, b.tlb_misses);
    EXPECT_EQ(a.tlb_flushes, b.tlb_flushes);
    EXPECT_EQ(a.rollback_ns, b.rollback_ns);
    EXPECT_EQ(a.remedy_soft_ns, b.remedy_soft_ns);
    EXPECT_EQ(a.remedy_hard_ns, b.remedy_hard_ns);
    for (int side = 0; side < 2; ++side) {
      for (int kind = 0; kind < 2; ++kind) {
        EXPECT_EQ(a.ipc_faults[side][kind].count, b.ipc_faults[side][kind].count);
        EXPECT_EQ(a.ipc_faults[side][kind].remedy_ns,
                  b.ipc_faults[side][kind].remedy_ns);
        EXPECT_EQ(a.ipc_faults[side][kind].rollback_ns,
                  b.ipc_faults[side][kind].rollback_ns);
      }
    }
    EXPECT_EQ(a.frames_allocated, b.frames_allocated);
    EXPECT_EQ(a.frame_bytes_allocated, b.frame_bytes_allocated);
    EXPECT_EQ(a.frame_bytes_live, b.frame_bytes_live);
    EXPECT_EQ(a.frame_bytes_live_peak, b.frame_bytes_live_peak);
    EXPECT_EQ(a.blocked_frame_bytes_peak, b.blocked_frame_bytes_peak);
    EXPECT_EQ(a.probe_runs, b.probe_runs);
    EXPECT_EQ(a.probe_misses, b.probe_misses);

    // And the jit actually ran compiled code.
    EXPECT_GT(a.jit_compiles, 0u);
    EXPECT_GT(a.jit_block_entries, 0u);
    EXPECT_GT(a.jit_bytes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, InterpDeterminismTest,
                         testing::ValuesIn(AllPaperConfigs()), ConfigName);

}  // namespace
}  // namespace fluke
