// x86-64 template emitter and burst driver for the tier-2 JIT (see jit.h
// for the execution contract). The emitter works from the raw instruction
// stream, one template per instruction, so every charge, fault un-charge
// and exit PC lines up with the switch engine by construction; the block
// cycle+retire sums baked into the entry stubs are computed here, at
// compile time, from the switch core's InstrCost.
//
// Fixed register assignment inside compiled code:
//   rbx  = JitFrame*                  (callee-saved, live everywhere)
//   rbp  = packed account             (cycles low word, retires high word)
//   r12d..r15d = uvm gpr0..gpr3      (callee-saved)
//   r8d..r11d  = uvm gpr4..gpr7      (caller-saved; saved around helper calls)
//   rax/rcx/rdx/rsi/rdi = template scratch
//
// The only calls out of compiled code are the memory slow-path helpers
// (fluke_jit_*), reached when an access misses the MiniTlb last-page slot
// or straddles a page; they run the exact switch-engine access sequence on
// the frame's MiniTlb, so the bus -- and the kernel's tlb_* counters -- see
// identical traffic from both engines.

#include "src/uvm/jit.h"

#include <cassert>
#include <cstring>
#include <vector>

#include "src/uvm/minitlb.h"

#if defined(__x86_64__) && FLUKE_JIT_HAVE_MMAP
#define FLUKE_JIT_SUPPORTED 1
#else
#define FLUKE_JIT_SUPPORTED 0
#endif

namespace fluke {

bool JitCompiledIn() {
#if FLUKE_JIT_SUPPORTED
  return true;
#else
  return false;
#endif
}

bool JitAvailable() {
#if FLUKE_JIT_SUPPORTED
  static const bool ok = jit_internal::JitArena::HostSupportsExecPages();
  return ok;
#else
  return false;
#endif
}

}  // namespace fluke

#if FLUKE_JIT_SUPPORTED

// ---------------------------------------------------------------------------
// Slow-path helpers. extern "C" so the emitted `call` needs no mangling or
// this-pointer plumbing. Return convention for loads: bit 32 set on success
// with the value in the low word; 0 means fault (fault_addr already stored
// in the frame). Stores return 1/0 in eax.
// ---------------------------------------------------------------------------

namespace {
constexpr uint64_t kJitLoadOk = 1ull << 32;
}  // namespace

extern "C" uint64_t fluke_jit_loadw(fluke::jit_internal::JitFrame* f,
                                    uint32_t addr) {
  using namespace fluke;
  uint32_t v = 0;
  const uint32_t off = addr & kPageMask;
  if (off + 4 <= kPageSize) {  // page-straddling words take the bus
    const uint8_t* base = f->tlb->ReadBase(addr >> kPageShift);
    if (base != nullptr) {
      std::memcpy(&v, base + off, 4);
      return kJitLoadOk | v;
    }
  }
  if (!f->bus->ReadWord(addr, &v, &f->fault_addr)) {
    return 0;
  }
  return kJitLoadOk | v;
}

extern "C" uint64_t fluke_jit_loadb(fluke::jit_internal::JitFrame* f,
                                    uint32_t addr) {
  using namespace fluke;
  uint8_t* base = f->tlb->ReadBase(addr >> kPageShift);
  if (base != nullptr) {
    return kJitLoadOk | base[addr & kPageMask];
  }
  uint8_t v = 0;
  if (!f->bus->ReadByte(addr, &v, &f->fault_addr)) {
    return 0;
  }
  return kJitLoadOk | v;
}

extern "C" uint32_t fluke_jit_storew(fluke::jit_internal::JitFrame* f,
                                     uint32_t addr, uint32_t value) {
  using namespace fluke;
  const uint32_t off = addr & kPageMask;
  if (off + 4 <= kPageSize) {
    uint8_t* base = f->tlb->WriteBase(addr >> kPageShift);
    if (base != nullptr) {
      std::memcpy(base + off, &value, 4);
      return 1;
    }
  }
  return f->bus->WriteWord(addr, value, &f->fault_addr) ? 1 : 0;
}

extern "C" uint32_t fluke_jit_storeb(fluke::jit_internal::JitFrame* f,
                                     uint32_t addr, uint32_t value) {
  using namespace fluke;
  uint8_t* base = f->tlb->WriteBase(addr >> kPageShift);
  if (base != nullptr) {
    base[addr & kPageMask] = static_cast<uint8_t>(value);
    return 1;
  }
  return f->bus->WriteByte(addr, static_cast<uint8_t>(value), &f->fault_addr)
             ? 1
             : 0;
}

namespace fluke {
namespace jit_internal {
namespace {

// x86-64 register numbers.
enum : uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

// uvm gpr -> host register (32-bit views).
constexpr uint8_t kGprHost[8] = {R12, R13, R14, R15, R8, R9, R10, R11};

// Condition codes (for 0F 8x jcc).
enum : uint8_t { CC_B = 0x2, CC_AE = 0x3, CC_E = 0x4, CC_NE = 0x5, CC_A = 0x7 };

constexpr int32_t kOffGpr = offsetof(JitFrame, gpr);
constexpr int32_t kOffAcct = offsetof(JitFrame, acct);
constexpr int32_t kOffBudget = offsetof(JitFrame, budget);
constexpr int32_t kOffEntries = offsetof(JitFrame, block_entries);
constexpr int32_t kOffExitPc = offsetof(JitFrame, exit_pc);
constexpr int32_t kOffExitKind = offsetof(JitFrame, exit_kind);
constexpr int32_t kOffFaultIsWrite = offsetof(JitFrame, fault_is_write);
constexpr int32_t kOffTlb = offsetof(JitFrame, tlb);

using interp_internal::MiniTlb;
constexpr int32_t kOffR0Page = offsetof(MiniTlb, r0page_);
constexpr int32_t kOffW0Page = offsetof(MiniTlb, w0page_);
constexpr int32_t kOffR0Base = offsetof(MiniTlb, r0base_);
constexpr int32_t kOffW0Base = offsetof(MiniTlb, w0base_);

// A tiny one-pass assembler with label fixups. Every jump is rel32; the
// code this emits is branchy but fully position-independent within the
// buffer, so the patched bytes can be memcpy'd into the arena unchanged.
class Emitter {
 public:
  size_t pos() const { return buf.size(); }

  int NewLabel() {
    labels.push_back(-1);
    return static_cast<int>(labels.size()) - 1;
  }
  void Bind(int l) { labels[static_cast<size_t>(l)] = static_cast<int64_t>(buf.size()); }
  int64_t LabelPos(int l) const { return labels[static_cast<size_t>(l)]; }

  void U8(uint8_t v) { buf.push_back(v); }
  // Pads to a 16-byte boundary. Only valid where control never falls in
  // (e.g. before an entry stub, which is exclusively a jump target).
  void Align16() {
    while (buf.size() % 16 != 0) U8(0x90);  // nop
  }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }

  void Rex(bool w, uint8_t reg, uint8_t index, uint8_t rm) {
    const uint8_t b = 0x40 | (static_cast<uint8_t>(w) << 3) |
                      (((reg >> 3) & 1) << 2) | (((index >> 3) & 1) << 1) |
                      ((rm >> 3) & 1);
    if (b != 0x40) U8(b);
  }
  void ModRM(uint8_t mod, uint8_t reg, uint8_t rm) {
    U8(static_cast<uint8_t>((mod << 6) | ((reg & 7) << 3) | (rm & 7)));
  }
  // [base + disp32]; base must not need a SIB byte (not RSP/R12).
  void MemDisp(uint8_t reg, uint8_t base, int32_t disp) {
    ModRM(2, reg, base);
    U32(static_cast<uint32_t>(disp));
  }
  void Sib(uint8_t index, uint8_t base) {
    U8(static_cast<uint8_t>(((index & 7) << 3) | (base & 7)));
  }

  void MovRR32(uint8_t dst, uint8_t src) {
    if (dst == src) return;
    Rex(false, src, 0, dst); U8(0x89); ModRM(3, src, dst);
  }
  void MovRR64(uint8_t dst, uint8_t src) {
    Rex(true, src, 0, dst); U8(0x89); ModRM(3, src, dst);
  }
  void MovRImm32(uint8_t dst, uint32_t imm) {
    Rex(false, 0, 0, dst); U8(0xB8 + (dst & 7)); U32(imm);
  }
  void MovRImm64(uint8_t dst, uint64_t imm) {
    Rex(true, 0, 0, dst); U8(0xB8 + (dst & 7)); U64(imm);
  }
  // opcode is the `rm op= reg` form: add 01, or 09, and 21, sub 29, xor 31,
  // cmp 39.
  void AluRR32(uint8_t opcode, uint8_t rm, uint8_t reg) {
    Rex(false, reg, 0, rm); U8(opcode); ModRM(3, reg, rm);
  }
  void AluRR64(uint8_t opcode, uint8_t rm, uint8_t reg) {
    Rex(true, reg, 0, rm); U8(opcode); ModRM(3, reg, rm);
  }
  void AluRImm32(uint8_t ext, uint8_t rm, uint32_t imm) {
    Rex(false, 0, 0, rm); U8(0x81); ModRM(3, ext, rm); U32(imm);
  }
  void ImulRR32(uint8_t reg, uint8_t rm) {
    Rex(false, reg, 0, rm); U8(0x0F); U8(0xAF); ModRM(3, reg, rm);
  }
  void ShiftCl32(uint8_t ext, uint8_t rm) {  // shl /4, shr /5 by cl
    Rex(false, 0, 0, rm); U8(0xD3); ModRM(3, ext, rm);
  }
  void ShrImm32(uint8_t rm, uint8_t n) {
    Rex(false, 0, 0, rm); U8(0xC1); ModRM(3, 5, rm); U8(n);
  }
  void ShrImm64(uint8_t rm, uint8_t n) {
    Rex(true, 0, 0, rm); U8(0xC1); ModRM(3, 5, rm); U8(n);
  }
  void LoadRM32(uint8_t dst, uint8_t base, int32_t disp) {
    Rex(false, dst, 0, base); U8(0x8B); MemDisp(dst, base, disp);
  }
  void LoadRM64(uint8_t dst, uint8_t base, int32_t disp) {
    Rex(true, dst, 0, base); U8(0x8B); MemDisp(dst, base, disp);
  }
  void StoreMR32(uint8_t base, int32_t disp, uint8_t src) {
    Rex(false, src, 0, base); U8(0x89); MemDisp(src, base, disp);
  }
  void StoreMR64(uint8_t base, int32_t disp, uint8_t src) {
    Rex(true, src, 0, base); U8(0x89); MemDisp(src, base, disp);
  }
  void StoreMImm32(uint8_t base, int32_t disp, uint32_t imm) {
    Rex(false, 0, 0, base); U8(0xC7); MemDisp(0, base, disp); U32(imm);
  }
  void CmpRM32(uint8_t reg, uint8_t base, int32_t disp) {
    Rex(false, reg, 0, base); U8(0x3B); MemDisp(reg, base, disp);
  }
  void CmpRM64(uint8_t reg, uint8_t base, int32_t disp) {
    Rex(true, reg, 0, base); U8(0x3B); MemDisp(reg, base, disp);
  }
  void IncM64(uint8_t base, int32_t disp) {
    Rex(true, 0, 0, base); U8(0xFF); MemDisp(0, base, disp);
  }
  void LoadSib32(uint8_t dst, uint8_t base, uint8_t index) {
    Rex(false, dst, index, base); U8(0x8B); ModRM(0, dst, 4); Sib(index, base);
  }
  void StoreSib32(uint8_t base, uint8_t index, uint8_t src) {
    Rex(false, src, index, base); U8(0x89); ModRM(0, src, 4); Sib(index, base);
  }
  void MovzxSib8(uint8_t dst, uint8_t base, uint8_t index) {
    Rex(false, dst, index, base); U8(0x0F); U8(0xB6); ModRM(0, dst, 4);
    Sib(index, base);
  }
  void StoreSib8(uint8_t base, uint8_t index, uint8_t src8) {
    Rex(false, src8, index, base); U8(0x88); ModRM(0, src8, 4); Sib(index, base);
  }
  void TestRR32(uint8_t rm, uint8_t reg) {
    Rex(false, reg, 0, rm); U8(0x85); ModRM(3, reg, rm);
  }
  void Push(uint8_t r) {
    if (r >= 8) U8(0x41);
    U8(0x50 + (r & 7));
  }
  void Pop(uint8_t r) {
    if (r >= 8) U8(0x41);
    U8(0x58 + (r & 7));
  }
  void SubRspImm8(uint8_t n) { U8(0x48); U8(0x83); U8(0xEC); U8(n); }
  void AddRspImm8(uint8_t n) { U8(0x48); U8(0x83); U8(0xC4); U8(n); }
  void CallRax() { U8(0xFF); U8(0xD0); }
  void JmpReg(uint8_t r) {
    if (r >= 8) U8(0x41);
    U8(0xFF); ModRM(3, 4, r);
  }
  void Ret() { U8(0xC3); }

  void JmpLabel(int l) { U8(0xE9); Ref(l); }
  void JccLabel(uint8_t cc, int l) { U8(0x0F); U8(0x80 | cc); Ref(l); }

  void Patch() {
    for (const auto& f : fixups) {
      const int64_t target = labels[static_cast<size_t>(f.second)];
      const int64_t rel = target - (static_cast<int64_t>(f.first) + 4);
      const uint32_t v = static_cast<uint32_t>(rel);
      for (int i = 0; i < 4; ++i) {
        buf[f.first + static_cast<size_t>(i)] = static_cast<uint8_t>(v >> (8 * i));
      }
    }
  }

  std::vector<uint8_t> buf;

 private:
  void Ref(int l) {
    fixups.emplace_back(buf.size(), l);
    U32(0);
  }
  std::vector<int64_t> labels;
  std::vector<std::pair<size_t, int>> fixups;
};

// Deferred exit stubs (deopt / out-of-range branch targets / fault paths),
// emitted after the bodies so the hot code stays straight-line.
struct ExitStubReq {
  int label;
  uint32_t kind;           // JitExit
  uint32_t pc;             // value for frame.exit_pc
  uint32_t fault_is_write; // only when kind == kExitFault
  uint64_t uncharge;       // packed suffix acct to subtract (fault only)
};

// The terminal store/jump sequence every exit shares. `epilogue_l` stores
// registers + account back into the frame and returns to the trampoline's
// caller.
void EmitExitTail(Emitter& e, const ExitStubReq& r, int epilogue_l) {
  if (r.kind == kExitFault) {
    // Un-charge the faulting instruction and the unexecuted tail of its
    // block -- the entry stub charged the whole block up front.
    e.MovRImm64(RAX, r.uncharge);
    e.AluRR64(0x29, RBP, RAX);  // sub rbp, rax
    e.StoreMImm32(RBX, kOffFaultIsWrite, r.fault_is_write);
  }
  e.StoreMImm32(RBX, kOffExitPc, r.pc);
  e.StoreMImm32(RBX, kOffExitKind, r.kind);
  e.JmpLabel(epilogue_l);
}

// Saves the caller-saved uvm registers (gpr4..7 live in r8..r11), aligns the
// stack and calls `helper(frame, addr[, value])`. esi/edx must already hold
// the arguments; the result comes back in rax/eax.
void EmitHelperCall(Emitter& e, uint64_t helper) {
  e.Push(R8); e.Push(R9); e.Push(R10); e.Push(R11);
  e.SubRspImm8(8);            // pushes left rsp 8 mod 16; re-align for the call
  e.MovRR64(RDI, RBX);        // arg0 = frame
  e.MovRImm64(RAX, helper);
  e.CallRax();
  e.AddRspImm8(8);
  e.Pop(R11); e.Pop(R10); e.Pop(R9); e.Pop(R8);
}

}  // namespace
}  // namespace jit_internal
}  // namespace fluke

#endif  // FLUKE_JIT_SUPPORTED

namespace fluke {

namespace {

// Ends a straight-line block: control does not fall through to the next
// instruction.
bool IsBlockEnd(Op op) {
  switch (op) {
    case Op::kHalt:
    case Op::kJmp:
    case Op::kBeq:
    case Op::kBne:
    case Op::kBlt:
    case Op::kBge:
    case Op::kSyscall:
    case Op::kBreak:
      return true;
    default:
      return false;
  }
}

// Ends a burst outright: no control transfer to another block follows.
bool IsTrap(Op op) {
  return op == Op::kSyscall || op == Op::kHalt || op == Op::kBreak;
}

}  // namespace

JitProgram::JitProgram(const Program& program)
    : one_block_(program.size()), hot_(program.size(), 0) {
  // Backward scan: a block ending in a trap, or falling off the end (the
  // bad-PC exit), is one block; a block ending in a jump or branch is not.
  const Instr* code = program.code();
  bool one = true;  // the end of the program
  for (uint32_t i = program.size(); i-- > 0;) {
    const Op op = code[i].op;
    if (IsTrap(op)) {
      one = true;
    } else if (IsBlockEnd(op)) {
      one = false;
    }
    one_block_[i] = one ? 1 : 0;
  }
}

JitProgram::~JitProgram() = default;

#if FLUKE_JIT_SUPPORTED

bool JitProgram::Compile(const Program& program, const InterpOptions& opts) {
  using namespace jit_internal;
  if (ready_ || failed_) {
    return ready_;
  }
  using interp_internal::InstrCost;
  using interp_internal::PackAcct;
  const Instr* code = program.code();
  const uint32_t n = program.size();

  // Packed block account of every instruction: its own cost and retire plus
  // the rest of its straight-line block, inclusive. At a block head that is
  // the entry stub's whole-block charge; at an interior load/store it is
  // exactly the amount to un-charge when the access faults (the faulting
  // instruction and the unexecuted tail). Traps retire nothing -- they
  // re-execute on resume. The end-of-program sentinel charges nothing.
  std::vector<uint64_t> block_acct(n + 1, 0);
  for (uint32_t i = n; i-- > 0;) {
    const Op op = code[i].op;
    uint64_t cyc = InstrCost(op, code[i].imm);
    uint32_t ret = (op == Op::kSyscall || op == Op::kBreak) ? 0u : 1u;
    if (!IsBlockEnd(op)) {
      cyc += block_acct[i + 1] & interp_internal::kAcctCycleMask;
      ret += static_cast<uint32_t>(block_acct[i + 1] >> 32);
    }
    // The packed layout holds as long as no block's cycle sum reaches 2^32
    // (a Compute immediate is the only way to approach it).
    assert(cyc <= interp_internal::kAcctCycleMask &&
           "block cycle sum overflows packed accounting");
    block_acct[i] = PackAcct(ret, cyc);
  }

  Emitter e;
  std::vector<int> entry_l(n + 1), body_l(n + 1);
  const int epilogue_l = e.NewLabel();
  for (uint32_t i = 0; i <= n; ++i) {
    entry_l[i] = e.NewLabel();
    body_l[i] = e.NewLabel();
  }
  std::vector<ExitStubReq> stubs;
  auto exit_stub = [&](uint32_t kind, uint32_t pc, uint32_t is_write = 0,
                       uint64_t uncharge = 0) {
    stubs.push_back({e.NewLabel(), kind, pc, is_write, uncharge});
    return stubs.back().label;
  };
  // Memory slow paths (MiniTlb front-slot miss or page-straddling word),
  // deferred out of the body region so the fast path falls straight through.
  struct SlowReq {
    int slow_l;
    int resume_l;
    Op op;
    uint8_t ra_host;
    uint32_t pc;
    uint64_t suffix_acct;  // block_acct at the site, for the fault un-charge
  };
  std::vector<SlowReq> slows;

  // --- Trampoline: void(JitFrame* rdi, const void* entry rsi) ---
  const size_t tramp_off = e.pos();
  e.Push(RBX); e.Push(RBP);
  e.Push(R12); e.Push(R13); e.Push(R14); e.Push(R15);
  e.MovRR64(RBX, RDI);
  e.LoadRM64(RBP, RBX, kOffAcct);
  for (int g = 0; g < 8; ++g) {
    e.LoadRM32(kGprHost[g], RBX, kOffGpr + 4 * g);
  }
  e.JmpReg(RSI);

  // --- Epilogue: materialize state into the frame, restore, return ---
  e.Bind(epilogue_l);
  for (int g = 0; g < 8; ++g) {
    e.StoreMR32(RBX, kOffGpr + 4 * g, kGprHost[g]);
  }
  e.StoreMR64(RBX, kOffAcct, RBP);
  e.Pop(R15); e.Pop(R14); e.Pop(R13); e.Pop(R12);
  e.Pop(RBP); e.Pop(RBX);
  e.Ret();

  // --- Bodies -------------------------------------------------------------
  // Straight-line ops fall through to the next body; block enders jump to
  // an entry stub (budget check + whole-block charge) or exit.
  for (uint32_t i = 0; i <= n; ++i) {
    e.Bind(body_l[i]);
    if (i == n) {  // the kEnd sentinel: running off the end is a bad PC
      EmitExitTail(e, {0, kExitBadPc, n, 0, 0}, epilogue_l);
      continue;
    }
    const Instr& in = code[i];
    const uint8_t ra = kGprHost[in.a & 7];
    const uint8_t rb = kGprHost[in.b & 7];
    const uint8_t rc = kGprHost[in.c & 7];
    switch (in.op) {
      case Op::kHalt:
        EmitExitTail(e, {0, kExitHalt, i, 0, 0}, epilogue_l);
        break;
      case Op::kNop:
      case Op::kCompute:  // cycles precharged in the block sum; no effect
        break;
      case Op::kMovImm:
        e.MovRImm32(ra, in.imm);
        break;
      case Op::kMov:
        e.MovRR32(ra, rb);
        break;
      case Op::kAdd:
      case Op::kSub:
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        uint8_t opc = 0x01;
        switch (in.op) {
          case Op::kAdd: opc = 0x01; break;
          case Op::kSub: opc = 0x29; break;
          case Op::kAnd: opc = 0x21; break;
          case Op::kOr: opc = 0x09; break;
          default: opc = 0x31; break;  // kXor
        }
        if (ra == rb) {
          e.AluRR32(opc, ra, rc);
        } else if (ra != rc) {
          e.MovRR32(ra, rb);
          e.AluRR32(opc, ra, rc);
        } else {  // ra == rc, ra != rb: keep the source readable via scratch
          e.MovRR32(RAX, rb);
          e.AluRR32(opc, RAX, rc);
          e.MovRR32(ra, RAX);
        }
        break;
      }
      case Op::kMul:
        if (ra == rb) {
          e.ImulRR32(ra, rc);
        } else if (ra != rc) {
          e.MovRR32(ra, rb);
          e.ImulRR32(ra, rc);
        } else {
          e.MovRR32(RAX, rb);
          e.ImulRR32(RAX, rc);
          e.MovRR32(ra, RAX);
        }
        break;
      case Op::kShl:
      case Op::kShr:
        // x86 masks the cl count mod 32, which is exactly the uvm semantics
        // (r[b] shifted by r[c] & 31).
        e.MovRR32(RCX, rc);
        e.MovRR32(RAX, rb);
        e.ShiftCl32(in.op == Op::kShl ? 4 : 5, RAX);
        e.MovRR32(ra, RAX);
        break;
      case Op::kAddImm:
        if (ra == rb) {
          if (in.imm != 0) e.AluRImm32(0, ra, in.imm);
        } else {
          e.MovRR32(ra, rb);
          if (in.imm != 0) e.AluRImm32(0, ra, in.imm);
        }
        break;
      case Op::kLoadB:
      case Op::kLoadW:
      case Op::kStoreB:
      case Op::kStoreW: {
        const bool is_store = in.op == Op::kStoreB || in.op == Op::kStoreW;
        const bool is_word = in.op == Op::kLoadW || in.op == Op::kStoreW;
        const int slow_l = e.NewLabel();
        const int resume_l = e.NewLabel();
        // esi = address; edi = in-page offset; eax = page number.
        e.MovRR32(RSI, rb);
        if (in.imm != 0) e.AluRImm32(0, RSI, in.imm);
        e.MovRR32(RDI, RSI);
        e.AluRImm32(4, RDI, kPageMask);
        if (is_word) {  // straddling words take the helper (bus) path
          e.AluRImm32(7, RDI, kPageSize - 4);  // cmp edi, 4092
          e.JccLabel(CC_A, slow_l);
        }
        e.MovRR32(RAX, RSI);
        e.ShrImm32(RAX, kPageShift);
        e.LoadRM64(RCX, RBX, kOffTlb);
        e.CmpRM32(RAX, RCX, is_store ? kOffW0Page : kOffR0Page);
        e.JccLabel(CC_NE, slow_l);
        e.LoadRM64(RCX, RCX, is_store ? kOffW0Base : kOffR0Base);
        if (is_store) {
          e.MovRR32(RAX, ra);
          if (is_word) {
            e.StoreSib32(RCX, RDI, RAX);
          } else {
            e.StoreSib8(RCX, RDI, RAX);
          }
        } else {
          if (is_word) {
            e.LoadSib32(RAX, RCX, RDI);
          } else {
            e.MovzxSib8(RAX, RCX, RDI);
          }
          e.MovRR32(ra, RAX);
        }
        e.Bind(resume_l);
        slows.push_back({slow_l, resume_l, in.op, ra, i, block_acct[i]});
        break;
      }
      case Op::kJmp:
        if (in.imm > n) {
          EmitExitTail(e, {0, kExitBadPc, in.imm, 0, 0}, epilogue_l);
        } else {
          e.JmpLabel(entry_l[in.imm]);
        }
        break;
      case Op::kBeq:
      case Op::kBne:
      case Op::kBlt:
      case Op::kBge: {
        uint8_t cc = CC_E;
        switch (in.op) {
          case Op::kBeq: cc = CC_E; break;
          case Op::kBne: cc = CC_NE; break;
          case Op::kBlt: cc = CC_B; break;
          default: cc = CC_AE; break;  // kBge
        }
        e.AluRR32(0x39, ra, rb);  // cmp gpr[a], gpr[b]
        if (in.imm > n) {
          e.JccLabel(cc, exit_stub(kExitBadPc, in.imm));
        } else {
          e.JccLabel(cc, entry_l[in.imm]);
        }
        e.JmpLabel(entry_l[i + 1]);
        break;
      }
      case Op::kSyscall:
        EmitExitTail(e, {0, kExitSyscall, i, 0, 0}, epilogue_l);
        break;
      case Op::kBreak:
        EmitExitTail(e, {0, kExitBreak, i, 0, 0}, epilogue_l);
        break;
    }
    // Straight-line ops fall through into body_l[i + 1], which Bind()s next.
  }

  // --- Entry stubs --------------------------------------------------------
  // Charge the whole remaining block iff it fits STRICTLY under the budget
  // (then the switch loop's per-instruction budget check would pass at
  // every instruction of the block); otherwise deopt with the PC at
  // this block boundary and the account uncommitted, and the switch core
  // finishes the burst instruction by instruction.
  std::vector<size_t> entry_off(n + 1);
  for (uint32_t i = 0; i <= n; ++i) {
    e.Align16();  // stubs are loop-branch targets: keep them decode-aligned
    e.Bind(entry_l[i]);
    entry_off[i] = e.pos();
    e.MovRImm64(RAX, block_acct[i]);
    e.AluRR64(0x01, RAX, RBP);   // add rax, rbp -> account after this block
    // 32-bit compare of the cycle half against the budget's low dword:
    // exact because RunUserJit clamps the frame budget below 2^32 (the
    // clamp edge deopts conservatively, which is always semantics-neutral).
    e.CmpRM32(RAX, RBX, kOffBudget);
    e.JccLabel(CC_AE, exit_stub(kExitDeopt, i));
    e.MovRR64(RBP, RAX);         // commit the charge
    e.IncM64(RBX, kOffEntries);
    e.JmpLabel(body_l[i]);
  }

  // --- Deferred memory slow paths ----------------------------------------
  // esi still holds the address computed in the fast path; the helper runs
  // the switch engine's access sequence (straddle handling included) on the
  // frame's MiniTlb, so misses fill -- and TranslateSpan fires -- exactly
  // where the other engines would.
  for (const SlowReq& s : slows) {
    e.Bind(s.slow_l);
    const bool is_store = s.op == Op::kStoreB || s.op == Op::kStoreW;
    const int fault_l =
        exit_stub(kExitFault, s.pc, is_store ? 1u : 0u, s.suffix_acct);
    uint64_t helper = 0;
    switch (s.op) {
      case Op::kLoadW:
        helper = reinterpret_cast<uint64_t>(&fluke_jit_loadw);
        break;
      case Op::kLoadB:
        helper = reinterpret_cast<uint64_t>(&fluke_jit_loadb);
        break;
      case Op::kStoreW:
        helper = reinterpret_cast<uint64_t>(&fluke_jit_storew);
        break;
      default:
        helper = reinterpret_cast<uint64_t>(&fluke_jit_storeb);
        break;
    }
    if (is_store) {
      e.MovRR32(RDX, s.ra_host);  // arg2 = value
    }
    EmitHelperCall(e, helper);
    if (is_store) {
      e.TestRR32(RAX, RAX);
      e.JccLabel(CC_E, fault_l);  // jz: helper reported a fault
    } else {
      e.MovRR64(RDX, RAX);
      e.ShrImm64(RDX, 32);
      e.TestRR32(RDX, RDX);
      e.JccLabel(CC_E, fault_l);
      e.MovRR32(s.ra_host, RAX);
    }
    e.JmpLabel(s.resume_l);
  }

  // --- Deferred exit stubs ------------------------------------------------
  for (const ExitStubReq& r : stubs) {
    e.Bind(r.label);
    EmitExitTail(e, r, epilogue_l);
  }

  e.Patch();

  if (!arena_.Allocate(e.buf.size()) ) {
    failed_ = true;
    return false;
  }
  std::memcpy(arena_.base(), e.buf.data(), e.buf.size());
  if (!arena_.Seal()) {
    failed_ = true;
    return false;
  }
  code_bytes_ = e.buf.size();
  entry_.resize(n + 1);
  for (uint32_t i = 0; i <= n; ++i) {
    entry_[i] = arena_.base() + entry_off[i];
  }
  trampoline_ = reinterpret_cast<Trampoline>(arena_.base() + tramp_off);
  hot_.clear();
  hot_.shrink_to_fit();
  ready_ = true;
  if (opts.jit_compiles != nullptr) ++*opts.jit_compiles;
  if (opts.jit_bytes != nullptr) *opts.jit_bytes += code_bytes_;
  return true;
}

#else  // !FLUKE_JIT_SUPPORTED

bool JitProgram::Compile(const Program& program, const InterpOptions& opts) {
  (void)program;
  (void)opts;
  failed_ = true;
  return false;
}

#endif  // FLUKE_JIT_SUPPORTED

namespace jit_internal {

RunResult RunUserJit(const Program& program, const JitProgram& jp,
                     UserRegisters* regs, MemoryBus* bus,
                     uint64_t budget_cycles, const InterpOptions& opts) {
  RunResult result;
  // Mirror the switch loop's entry checks, in its order: a zero budget is
  // kBudget before the PC is even looked at; a PC past the sentinel is
  // kBadPc with nothing charged.
  if (budget_cycles == 0) {
    result.event = UserEvent::kBudget;
    return result;
  }
  const uint32_t pc = regs->pc;
  if (pc > program.size()) {
    result.event = UserEvent::kBadPc;
    return result;
  }

  interp_internal::MiniTlb tlb(bus);
  JitFrame f{};
  std::memcpy(f.gpr, regs->gpr, sizeof(f.gpr));
  // The entry stubs compare the 32-bit cycle half of the account against
  // the budget's low dword; clamping keeps that compare exact (the kernel
  // caps bursts at 2^31 anyway). At the clamp edge a block merely deopts
  // and the switch core -- which gets the true 64-bit budget -- decides.
  f.budget = budget_cycles < 0xFFFFFFFFull ? budget_cycles : 0xFFFFFFFFull;
  f.bus = bus;
  f.tlb = &tlb;
  jp.Enter(&f, pc);
  std::memcpy(regs->gpr, f.gpr, sizeof(f.gpr));
  regs->pc = f.exit_pc;
  if (opts.jit_block_entries != nullptr) {
    *opts.jit_block_entries += f.block_entries;
  }

  if (f.exit_kind == kExitDeopt) {
    // The next block's charge would not fit the remaining budget. Finish
    // the burst in the reference loop: same budget, the account accumulated
    // so far, and the same MiniTlb, so cycles, retires, the exit and the
    // bus access pattern come out exactly as if the switch engine had run
    // the whole burst.
    if (opts.jit_deopts != nullptr) {
      ++*opts.jit_deopts;
    }
    return interp_internal::RunUserSwitchCore(program, regs, bus,
                                              budget_cycles, tlb, f.acct,
                                              opts.instructions);
  }

  result.cycles = f.acct & interp_internal::kAcctCycleMask;
  if (opts.instructions != nullptr) {
    *opts.instructions += f.acct >> 32;
  }
  switch (f.exit_kind) {
    case kExitSyscall:
      result.event = UserEvent::kSyscall;
      break;
    case kExitHalt:
      result.event = UserEvent::kHalt;
      break;
    case kExitBreak:
      result.event = UserEvent::kBreak;
      break;
    case kExitBadPc:
      result.event = UserEvent::kBadPc;
      break;
    case kExitFault:
      result.event = UserEvent::kFault;
      result.fault_addr = f.fault_addr;
      result.fault_is_write = f.fault_is_write != 0;
      break;
    default:
      result.event = UserEvent::kBadPc;
      break;
  }
  return result;
}

}  // namespace jit_internal
}  // namespace fluke
