// Tier-2 template (copy-and-patch) JIT for the uvm interpreter.
//
// Compiles a whole program into per-index host-code stubs on x86-64:
//
//   entry stub [i] -- charges the packed cycle+retire sum of instructions
//       i..block end (computed once by Compile and baked in as an
//       immediate) iff it fits STRICTLY under the burst budget. When it
//       does not fit, the stub deopts: registers, PC and the packed account
//       are materialized into the JitFrame and RunUserJit finishes the
//       burst in the resumable switch core (RunUserSwitchCore) with the
//       same MiniTlb.
//   body [i] -- the instruction's template. Straight-line ops fall
//       through to body[i+1]; block-ending ops (branches, jmp, traps,
//       halt) jump to the target's entry stub or exit. loadw/storew
//       inline the MiniTlb last-page-slot probe and call out-of-line
//       helpers on a miss, so the bus sees the same TranslateSpan
//       pattern -- and the kernel the same tlb_* counters -- as the
//       switch core, access for access.
//
// Everything observable (RunResult, registers, memory, cycle and retired
// instruction counts) is bit-identical to the switch engine; the jit_*
// counters are host-side only. Three kinds of burst run the switch core
// instead of compiled code:
//   - one whose entry block ends in a trap (syscall, halt, break) or runs
//     off the end of the program: such a burst is at most that one block,
//     and entering compiled code costs more than it saves (OneBlock);
//   - a cold one: compilation is lazy, on a per-entry-PC hotness counter
//     (threshold kJitHotThreshold) that only the other bursts advance, so
//     a program made only of trap-ended blocks never compiles;
//   - any burst of a program whose compile the host refused (failed()).
// Once compiled (Program::JitReady()) the arena is sealed and never
// mutates again.

#ifndef SRC_UVM_JIT_H_
#define SRC_UVM_JIT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/uvm/interp.h"
#include "src/uvm/jitcache.h"

namespace fluke {

namespace interp_internal {
struct MiniTlb;
}  // namespace interp_internal

namespace jit_internal {

// Bursts become hot -- and the program compiles -- on the second entry at
// the same PC. The first burst runs the switch core (bit-identical
// anyway), so one-shot programs never pay for emission.
inline constexpr uint32_t kJitHotThreshold = 2;
static_assert(kJitHotThreshold <= 255, "JitProgram::hot_ counts in bytes");

// How compiled code exits back to the driver (JitFrame::exit_kind).
enum JitExit : uint32_t {
  kExitDeopt = 0,  // block charge would not fit the budget; switch core runs
  kExitSyscall,
  kExitFault,
  kExitHalt,
  kExitBreak,
  kExitBadPc,
};

// The C <-> compiled-code contract. Field offsets are baked into emitted
// instructions (offsetof in jit.cc), so this struct is standard layout and
// append-only.
struct JitFrame {
  uint32_t gpr[8];            // in/out: uvm registers
  uint64_t acct;              // in/out: packed cycles|retires (minitlb.h)
  uint64_t budget;            // in: burst budget, cycles
  uint64_t block_entries;     // out: compiled blocks entered (charged)
  uint32_t exit_pc;           // out: uvm PC at exit
  uint32_t exit_kind;         // out: JitExit
  uint32_t fault_addr;        // out: valid when exit_kind == kExitFault
  uint32_t fault_is_write;    // out: valid when exit_kind == kExitFault
  MemoryBus* bus;             // in: for the slow-path helpers
  interp_internal::MiniTlb* tlb;  // in: the burst's translation cache
};

}  // namespace jit_internal

// Per-program JIT state, cached on the Program (Program::JitState). Holds
// the one-block flags, the hotness counters while cold, and the sealed
// executable arena once compiled; destroyed -- unmapping the arena -- with
// the program.
class JitProgram {
 public:
  explicit JitProgram(const Program& program);
  ~JitProgram();

  JitProgram(const JitProgram&) = delete;
  JitProgram& operator=(const JitProgram&) = delete;

  // True once compiled and sealed: entry stubs may be called, and nothing
  // in this object mutates again.
  bool ready() const { return ready_; }
  // True when a compile was attempted and the host refused executable
  // pages; the caller runs the switch core for good.
  bool failed() const { return failed_; }

  // True when a burst entering at `pc` is at most one block: the
  // straight-line block there ends in a trap (syscall, halt, break) or runs
  // off the end, or `pc` is already out of range. Such bursts run the
  // switch core and count no hotness. Derived from the code alone.
  bool OneBlock(uint32_t pc) const {
    return pc >= one_block_.size() || one_block_[pc] != 0;
  }

  // Counts a burst entering at `pc` (a multi-block entry) while cold; true
  // once hot enough that the caller should Compile().
  bool NoteEntry(uint32_t pc) {
    return ++hot_[pc] >= jit_internal::kJitHotThreshold;
  }

  // Emits, patches and seals host code for the whole program. Returns
  // ready(); on host refusal sets failed() instead. Counts the emission
  // into opts.jit_compiles / opts.jit_bytes.
  bool Compile(const Program& program, const InterpOptions& opts);

  // Leaves the program in the state a refused compile leaves it in:
  // failed(), never ready(). Compile reaches it when the host will not map
  // or seal the arena; tests use it to drive the fallback on any host.
  void MarkFailed() { failed_ = true; }

  size_t code_bytes() const { return code_bytes_; }
  const uint8_t* arena_base() const { return arena_.base(); }
  bool arena_sealed() const { return arena_.sealed(); }

  // Entry stub for uvm pc (0..size inclusive; size is the kBadPc sentinel).
  const void* EntryStub(uint32_t pc) const { return entry_[pc]; }
  // Trampoline: saves host callee-saved registers, loads the frame into the
  // compiled code's fixed register assignment and jumps to an entry stub.
  void Enter(jit_internal::JitFrame* frame, uint32_t pc) const {
    trampoline_(frame, entry_[pc]);
  }

 private:
  using Trampoline = void (*)(jit_internal::JitFrame*, const void*);

  bool ready_ = false;
  bool failed_ = false;
  std::vector<uint8_t> one_block_;     // per-entry-PC OneBlock flags
  std::vector<uint8_t> hot_;           // per-entry-PC burst counts (cold only)
  jit_internal::JitArena arena_;
  size_t code_bytes_ = 0;
  std::vector<const void*> entry_;     // size + 1 stubs into the arena
  Trampoline trampoline_ = nullptr;
};

namespace jit_internal {

// Executes one burst from compiled code, deopting into RunUserSwitchCore
// when a block charge cannot fit the remaining budget. Requires
// jp.ready(). Semantics identical to RunUserSwitch.
RunResult RunUserJit(const Program& program, const JitProgram& jp,
                     UserRegisters* regs, MemoryBus* bus,
                     uint64_t budget_cycles, const InterpOptions& opts);

}  // namespace jit_internal
}  // namespace fluke

#endif  // SRC_UVM_JIT_H_
