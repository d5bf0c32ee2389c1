// Programs and the assembler.
//
// A Program is an immutable instruction vector with a name; threads execute
// programs by index (the PC register indexes into the vector). Programs are
// registered in a ProgramRegistry shared between kernels so that a migrated
// or restored thread can be re-bound to its code by name -- code is not
// stored in the simulated address space (see DESIGN.md).
//
// The Assembler provides label-based control flow with forward references
// resolved at Build() time, plus small convenience macros used by the
// user-side API library (src/api/ulib.h).

#ifndef SRC_UVM_PROGRAM_H_
#define SRC_UVM_PROGRAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/uvm/instr.h"
#include "src/uvm/predecode.h"

namespace fluke {

class JitProgram;  // per-program JIT state (src/uvm/jit.h)

class Program {
 public:
  // Out of line: the jit_ member's unique_ptr needs JitProgram complete at
  // the points the constructor/destructor are instantiated.
  Program(std::string name, std::vector<Instr> code);
  ~Program();

  const std::string& name() const { return name_; }
  const Instr* At(uint32_t pc) const {
    return pc < code_.size() ? &code_[pc] : nullptr;
  }
  // Raw code pointer for the interpreter's hoisted fetch loop (bounds are
  // the caller's job; pair with size()).
  const Instr* code() const { return code_.data(); }
  uint32_t size() const { return static_cast<uint32_t>(code_.size()); }

  // Decoded side-table for the threaded-dispatch interpreter, built lazily
  // on first use and shared by every thread running this program (the code
  // is immutable, so the cache never invalidates). When `fresh` is non-null
  // it is set to true only if this call performed the build -- callers use
  // it to count predecodes; it is left untouched on a cache hit. The result
  // is non-const because the engine links handler addresses into the cached
  // table on first run (DecodedProgram::Link); the instruction fields
  // themselves never change after the build.
  DecodedProgram& Decoded(bool* fresh = nullptr) const {
    // Cache hit is the per-burst steady state: one load, no call.
    if (decoded_ != nullptr) {
      return *decoded_;
    }
    return DecodedSlow(fresh);
  }

  // Per-program JIT state (hotness counters, then the sealed executable
  // arena), created on first use by the jit engine and destroyed -- arena
  // unmapped -- with the program. Same caching discipline as Decoded().
  // JitReady() is true once the program is compiled and sealed (tests use
  // it to observe hotness).
  JitProgram& JitState() const;
  bool JitReady() const;

 private:
  DecodedProgram& DecodedSlow(bool* fresh) const;

  std::string name_;
  std::vector<Instr> code_;
  // Lazy per-program caches. The simulator is single-threaded (one kernel
  // event loop), so no synchronisation is needed around the builds.
  mutable std::unique_ptr<DecodedProgram> decoded_;
  mutable std::unique_ptr<JitProgram> jit_;
};

using ProgramRef = std::shared_ptr<const Program>;

// Maps program names to programs; shared across kernels for migration.
class ProgramRegistry {
 public:
  void Register(ProgramRef program);
  ProgramRef Find(const std::string& name) const;

 private:
  std::unordered_map<std::string, ProgramRef> by_name_;
};

class Assembler {
 public:
  using Label = int;

  explicit Assembler(std::string name) : name_(std::move(name)) {}

  // --- Labels ---
  Label NewLabel();
  void Bind(Label label);  // binds to the next emitted instruction

  // --- Raw emit ---
  uint32_t Emit(Op op, uint8_t a = 0, uint8_t b = 0, uint8_t c = 0, uint32_t imm = 0);

  // --- Convenience emitters ---
  void Halt() { Emit(Op::kHalt); }
  void Nop() { Emit(Op::kNop); }
  void MovImm(int rd, uint32_t imm) { Emit(Op::kMovImm, U8(rd), 0, 0, imm); }
  void Mov(int rd, int rs) { Emit(Op::kMov, U8(rd), U8(rs)); }
  void Add(int rd, int rs, int rt) { Emit(Op::kAdd, U8(rd), U8(rs), U8(rt)); }
  void Sub(int rd, int rs, int rt) { Emit(Op::kSub, U8(rd), U8(rs), U8(rt)); }
  void Mul(int rd, int rs, int rt) { Emit(Op::kMul, U8(rd), U8(rs), U8(rt)); }
  void And(int rd, int rs, int rt) { Emit(Op::kAnd, U8(rd), U8(rs), U8(rt)); }
  void Or(int rd, int rs, int rt) { Emit(Op::kOr, U8(rd), U8(rs), U8(rt)); }
  void Xor(int rd, int rs, int rt) { Emit(Op::kXor, U8(rd), U8(rs), U8(rt)); }
  void Shl(int rd, int rs, int rt) { Emit(Op::kShl, U8(rd), U8(rs), U8(rt)); }
  void Shr(int rd, int rs, int rt) { Emit(Op::kShr, U8(rd), U8(rs), U8(rt)); }
  void AddImm(int rd, int rs, uint32_t imm) { Emit(Op::kAddImm, U8(rd), U8(rs), 0, imm); }
  void LoadB(int rd, int rbase, uint32_t off = 0) { Emit(Op::kLoadB, U8(rd), U8(rbase), 0, off); }
  void StoreB(int rs, int rbase, uint32_t off = 0) { Emit(Op::kStoreB, U8(rs), U8(rbase), 0, off); }
  void LoadW(int rd, int rbase, uint32_t off = 0) { Emit(Op::kLoadW, U8(rd), U8(rbase), 0, off); }
  void StoreW(int rs, int rbase, uint32_t off = 0) { Emit(Op::kStoreW, U8(rs), U8(rbase), 0, off); }
  void Jmp(Label l) { EmitBranch(Op::kJmp, 0, 0, l); }
  void Beq(int ra, int rb, Label l) { EmitBranch(Op::kBeq, U8(ra), U8(rb), l); }
  void Bne(int ra, int rb, Label l) { EmitBranch(Op::kBne, U8(ra), U8(rb), l); }
  void Blt(int ra, int rb, Label l) { EmitBranch(Op::kBlt, U8(ra), U8(rb), l); }
  void Bge(int ra, int rb, Label l) { EmitBranch(Op::kBge, U8(ra), U8(rb), l); }
  void Syscall() { Emit(Op::kSyscall); }
  void Compute(uint32_t cycles) { Emit(Op::kCompute, 0, 0, 0, cycles); }
  void Break() { Emit(Op::kBreak); }

  uint32_t Here() const { return static_cast<uint32_t>(code_.size()); }

  // Resolves all label references; asserts every used label was bound.
  ProgramRef Build();

 private:
  static uint8_t U8(int r) { return static_cast<uint8_t>(r); }
  void EmitBranch(Op op, uint8_t a, uint8_t b, Label l);

  std::string name_;
  std::vector<Instr> code_;
  std::vector<int32_t> label_targets_;          // -1 until bound
  std::vector<std::pair<uint32_t, Label>> fixups_;  // (instr index, label)
};

}  // namespace fluke

#endif  // SRC_UVM_PROGRAM_H_
