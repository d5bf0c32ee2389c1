// Disassembler tests, including the round-trip property: for any program,
// ParseAsm(Disassemble(p)) executes identically to p.

#include "src/base/rng.h"
#include "src/uvm/asmparse.h"
#include "src/uvm/disasm.h"
#include "tests/test_util.h"

namespace fluke {
namespace {

TEST(Disasm, SingleInstructions) {
  EXPECT_EQ(DisassembleOne(Instr{Op::kMovImm, kRegB, 0, 0, 0x10}), "movi b, 0x10");
  EXPECT_EQ(DisassembleOne(Instr{Op::kAdd, kRegA, kRegB, kRegC, 0}), "add a, b, c");
  EXPECT_EQ(DisassembleOne(Instr{Op::kLoadW, kRegD, kRegC, 0, 8}), "ldw d, [c+8]");
  EXPECT_EQ(DisassembleOne(Instr{Op::kStoreB, kRegA, kRegSI, 0, 0}), "stb a, [si]");
  EXPECT_EQ(DisassembleOne(Instr{Op::kSyscall, 0, 0, 0, 0}), "syscall");
  EXPECT_EQ(DisassembleOne(Instr{Op::kCompute, 0, 0, 0, 400}), "compute 0x190");
}

TEST(Disasm, LabelsAtBranchTargets) {
  Assembler a("t");
  auto l = a.NewLabel();
  a.MovImm(kRegB, 0);
  a.Bind(l);
  a.AddImm(kRegB, kRegB, 1);
  a.Jmp(l);
  const std::string d = Disassemble(*a.Build());
  EXPECT_NE(d.find("L0:"), std::string::npos);
  EXPECT_NE(d.find("jmp L0"), std::string::npos);
}

// Runs a program in a SimpleWorld and returns (console, word at kAnonBase).
std::pair<std::string, uint32_t> Execute(const KernelConfig& cfg, ProgramRef p) {
  SimpleWorld w(cfg);
  w.Spawn(std::move(p));
  EXPECT_TRUE(w.kernel.RunUntilQuiescent(60ull * 1000 * kNsPerMs));
  uint32_t v = 0;
  w.space->HostRead(SimpleWorld::kAnonBase, &v, 4);
  return {w.kernel.console.output(), v};
}

TEST(Disasm, RoundTripHandwrittenProgram) {
  Assembler a("orig");
  const auto loop = a.NewLabel();
  const auto done = a.NewLabel();
  a.MovImm(kRegDI, 0);
  a.MovImm(kRegD, 0);
  a.Bind(loop);
  a.MovImm(kRegSP, 7);
  a.Bge(kRegDI, kRegSP, done);
  a.Add(kRegD, kRegD, kRegDI);
  a.AddImm(kRegDI, kRegDI, 1);
  a.Jmp(loop);
  a.Bind(done);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegD, kRegC, 0);
  EmitPuts(a, "ok");
  a.Halt();
  auto p = a.Build();

  const std::string text = Disassemble(*p);
  AsmParseResult r = ParseAsm("roundtrip", text);
  ASSERT_EQ(r.error, "") << text;

  KernelConfig cfg;
  auto [out1, v1] = Execute(cfg, p);
  auto [out2, v2] = Execute(cfg, r.program);
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(v1, v2);
  EXPECT_EQ(v1, 0u + 1 + 2 + 3 + 4 + 5 + 6);
}

TEST(Disasm, RoundTripRandomPrograms) {
  // Property: random straight-line-with-back-edges programs survive
  // Disassemble -> ParseAsm with identical final memory.
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    Assembler a("rand");
    // Prologue: deterministic register soup.
    for (int r = 1; r < 8; ++r) {
      a.MovImm(r, static_cast<uint32_t>(rng.Below(1000)));
    }
    const int body = 10 + static_cast<int>(rng.Below(20));
    for (int i = 0; i < body; ++i) {
      const int rd = 1 + static_cast<int>(rng.Below(7));
      const int rs = 1 + static_cast<int>(rng.Below(7));
      const int rt = 1 + static_cast<int>(rng.Below(7));
      switch (rng.Below(6)) {
        case 0:
          a.Add(rd, rs, rt);
          break;
        case 1:
          a.Sub(rd, rs, rt);
          break;
        case 2:
          a.Xor(rd, rs, rt);
          break;
        case 3:
          a.AddImm(rd, rs, static_cast<uint32_t>(rng.Below(64)));
          break;
        case 4:
          a.Mul(rd, rs, rt);
          break;
        default:
          a.Mov(rd, rs);
          break;
      }
    }
    // Epilogue: hash the registers into memory.
    a.MovImm(kRegC, SimpleWorld::kAnonBase);
    a.Xor(kRegB, kRegD, kRegSI);
    a.Xor(kRegB, kRegB, kRegBP);
    a.StoreW(kRegB, kRegC, 0);
    a.Halt();
    auto p = a.Build();

    AsmParseResult r = ParseAsm("rt", Disassemble(*p));
    ASSERT_EQ(r.error, "") << "trial " << trial;
    KernelConfig cfg;
    auto [o1, v1] = Execute(cfg, p);
    auto [o2, v2] = Execute(cfg, r.program);
    ASSERT_EQ(v1, v2) << "trial " << trial;
    ASSERT_EQ(o1, o2) << "trial " << trial;
  }
}

// --- Adjacent-op source shapes ---
//
// Every adjacent simple-ALU pair, ALU + conditional-branch pair, and word
// access + AddImm (+ branch) shape round-trips through Disassemble ->
// ParseAsm with identical execution. The Execute runs use the default
// engine, so the shapes also run back to back through the JIT's
// per-instruction templates.

TEST(Disasm, RoundTripAluPairShapes) {
  // All 8x8 simple-ALU pair combinations, adjacent, separated by a
  // barrier (mul) so each intended pair stands on its own.
  using AluEmit = void (*)(Assembler&, int, int, int);
  const AluEmit kAlu[] = {
      [](Assembler& a, int d, int s, int t) { a.Add(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Sub(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.And(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Or(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Xor(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Shl(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Shr(d, s, t); },
      [](Assembler& a, int d, int s, int) { a.AddImm(d, s, 3); },
  };
  Assembler a("alu-pairs");
  a.MovImm(kRegB, 0x1234);
  a.MovImm(kRegD, 7);
  a.MovImm(kRegSI, 2);
  for (const AluEmit first : kAlu) {
    for (const AluEmit second : kAlu) {
      first(a, kRegB, kRegB, kRegD);
      second(a, kRegB, kRegB, kRegSI);
      a.Mul(kRegD, kRegD, kRegSI);  // barrier between pairs
      a.AddImm(kRegD, kRegD, 1);
    }
  }
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegC, 0);
  a.Halt();
  auto p = a.Build();

  AsmParseResult r = ParseAsm("rt", Disassemble(*p));
  ASSERT_EQ(r.error, "");
  KernelConfig cfg;
  auto [o1, v1] = Execute(cfg, p);
  auto [o2, v2] = Execute(cfg, r.program);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(v1, v2);
}

TEST(Disasm, RoundTripAluBranchPairShapes) {
  // All 8 ALU firsts x 4 branch seconds, each as a small loop so the
  // pair's branch executes both taken and not-taken. blt/bne use a back-edge
  // shape; beq/bge a forward-exit shape (their conditions fire on loop end).
  using AluEmit = void (*)(Assembler&, int, int, int);
  const AluEmit kAlu[] = {
      [](Assembler& a, int d, int s, int t) { a.Add(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Sub(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.And(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Or(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Xor(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Shl(d, s, t); },
      [](Assembler& a, int d, int s, int t) { a.Shr(d, s, t); },
      [](Assembler& a, int d, int s, int) { a.AddImm(d, s, 5); },
  };
  Assembler a("alu-br-pairs");
  a.MovImm(kRegB, 0x9e37);
  a.MovImm(kRegSI, 3);
  for (const AluEmit alu : kAlu) {
    for (int br = 0; br < 4; ++br) {
      a.MovImm(kRegD, 0);
      a.MovImm(kRegSP, 4);
      const auto loop = a.NewLabel();
      const auto done = a.NewLabel();
      a.Bind(loop);
      a.AddImm(kRegD, kRegD, 1);      // counter (not part of the pair: next is mul)
      a.Mul(kRegA, kRegD, kRegSI);    // barrier before the intended pair
      alu(a, kRegB, kRegB, kRegA);    // pair first
      switch (br) {                   // pair second: the loop-control branch
        case 0: a.Blt(kRegD, kRegSP, loop); break;
        case 1: a.Bne(kRegD, kRegSP, loop); break;
        case 2: a.Beq(kRegD, kRegSP, done); a.Jmp(loop); break;
        default: a.Bge(kRegD, kRegSP, done); a.Jmp(loop); break;
      }
      a.Bind(done);
    }
  }
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegC, 0);
  a.Halt();
  auto p = a.Build();

  AsmParseResult r = ParseAsm("rt", Disassemble(*p));
  ASSERT_EQ(r.error, "");
  KernelConfig cfg;
  auto [o1, v1] = Execute(cfg, p);
  auto [o2, v2] = Execute(cfg, r.program);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(v1, v2);
}

TEST(Disasm, RoundTripMemPairAndTripleShapes) {
  // ldw/stw + addi pointer-bump pairs, and the full access+bump+branch
  // triples, in streaming loops over the anonymous window; final pass sums
  // the stores back into the checked word so divergence shows up in memory.
  Assembler a("mem-pairs");
  const auto wloop = a.NewLabel();
  const auto rloop = a.NewLabel();
  a.MovImm(kRegB, 0);
  a.MovImm(kRegD, 0);
  a.MovImm(kRegSP, 16);
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 4);
  a.Bind(wloop);                 // triple: stw + addi + bne
  a.AddImm(kRegD, kRegD, 1);
  a.StoreW(kRegD, kRegC, 0);
  a.AddImm(kRegC, kRegC, 4);
  a.Bne(kRegD, kRegSP, wloop);
  a.MovImm(kRegD, 0);
  a.MovImm(kRegA, 0);
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 4);
  a.Bind(rloop);
  a.AddImm(kRegD, kRegD, 1);     // addi+add: ALU pair
  a.Add(kRegB, kRegB, kRegA);    // folds the previous iteration's load
  a.LoadW(kRegA, kRegC, 0);      // triple: ldw + addi + blt
  a.AddImm(kRegC, kRegC, 4);
  a.Blt(kRegD, kRegSP, rloop);
  a.Add(kRegB, kRegB, kRegA);    // fold the final load
  // Straight-line pairs (no branch third): ldw+addi and stw+addi.
  a.MovImm(kRegC, SimpleWorld::kAnonBase + 4);
  a.LoadW(kRegA, kRegC, 0);
  a.AddImm(kRegC, kRegC, 8);
  a.Mul(kRegA, kRegA, kRegA);    // barrier
  a.StoreW(kRegB, kRegC, 0);
  a.AddImm(kRegC, kRegC, 4);
  a.Add(kRegB, kRegB, kRegA);
  a.MovImm(kRegC, SimpleWorld::kAnonBase);
  a.StoreW(kRegB, kRegC, 0);
  a.Halt();
  auto p = a.Build();

  AsmParseResult r = ParseAsm("rt", Disassemble(*p));
  ASSERT_EQ(r.error, "");
  KernelConfig cfg;
  auto [o1, v1] = Execute(cfg, p);
  auto [o2, v2] = Execute(cfg, r.program);
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(v1, v2);
  // 1+..+16 = 136 summed twice into b (read loop + straight-line stw), plus
  // the squared first element folded in; pin the exact value so both sides
  // agreeing on a wrong answer still fails.
  EXPECT_EQ(v1, 136u + 1u * 1u);
}

TEST(Disasm, RoundTripFasmSources) {
  // The shipped example programs round-trip too.
  const char* kSources[] = {
      "  movi di, 0\n  movi sp, 5\nh:\n  bge di, sp, d\n  addi b, di, 0x30\n"
      "  sys console_putc\n  addi di, di, 1\n  jmp h\nd:\n  halt\n",
      "  sys mutex_create\n  mov bp, b\n  mov b, bp\n  sys mutex_lock\n"
      "  puts \"x\"\n  mov b, bp\n  sys mutex_unlock\n  halt\n",
  };
  for (const char* src : kSources) {
    AsmParseResult orig = ParseAsm("src", src);
    ASSERT_EQ(orig.error, "");
    AsmParseResult rt = ParseAsm("rt", Disassemble(*orig.program));
    ASSERT_EQ(rt.error, "");
    KernelConfig cfg;
    auto [o1, v1] = Execute(cfg, orig.program);
    auto [o2, v2] = Execute(cfg, rt.program);
    EXPECT_EQ(o1, o2);
    EXPECT_EQ(v1, v2);
  }
}

}  // namespace
}  // namespace fluke
