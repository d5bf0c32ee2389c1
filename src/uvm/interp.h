// The user-mode interpreter.
//
// Run() executes instructions against a MemoryBus (implemented by the
// kernel's Space) until one of: the cycle budget is exhausted, the thread
// traps (syscall), faults (unmapped/protected page), halts, or hits a
// breakpoint. The PC is NOT advanced past a faulting load/store or past a
// syscall instruction -- the kernel decides how to resume, which is how the
// atomic API's register-continuations work (restart = just run again).

#ifndef SRC_UVM_INTERP_H_
#define SRC_UVM_INTERP_H_

#include <cstdint>

#include "src/api/abi.h"
#include "src/uvm/engine.h"
#include "src/uvm/program.h"

namespace fluke {

// A contiguous in-page run of directly addressable user memory, produced by
// MemoryBus::TranslateSpan. `len == 0` (ptr null) means the span could not
// be translated and the caller must fall back to the faulting word path.
struct Span {
  uint8_t* ptr = nullptr;
  uint32_t len = 0;
};

// Abstract user-memory access. Implemented by kern::Space.
class MemoryBus {
 public:
  virtual ~MemoryBus() = default;
  // Each accessor returns true on success; on failure *fault_addr is set and
  // no memory is modified.
  virtual bool ReadByte(uint32_t vaddr, uint8_t* out, uint32_t* fault_addr) = 0;
  virtual bool WriteByte(uint32_t vaddr, uint8_t value, uint32_t* fault_addr) = 0;
  virtual bool ReadWord(uint32_t vaddr, uint32_t* out, uint32_t* fault_addr) = 0;
  virtual bool WriteWord(uint32_t vaddr, uint32_t value, uint32_t* fault_addr) = 0;
  // Bulk-copy fast path: translates up to `len` bytes starting at `vaddr`
  // into one host-addressable run, clamped to the containing page. Returns
  // an empty span when the page is unmapped or `want_prot` is not granted;
  // never resolves faults. Purely host-side: implementations must charge no
  // virtual time.
  virtual Span TranslateSpan(uint32_t vaddr, uint32_t len, uint32_t want_prot) {
    (void)vaddr;
    (void)len;
    (void)want_prot;
    return {};
  }
};

enum class UserEvent : int {
  kBudget = 0,  // cycle budget exhausted; thread is still running user code
  kSyscall,     // PC rests on a syscall instruction; entrypoint in register A
  kFault,       // PC rests on the faulting load/store
  kHalt,
  kBreak,
  kBadPc,  // PC outside the program (treated as a fatal thread error)
};

struct RunResult {
  UserEvent event = UserEvent::kBudget;
  uint64_t cycles = 0;        // cycles consumed this run
  uint32_t fault_addr = 0;    // valid when event == kFault
  bool fault_is_write = false;
};

// Engine selection and host-side accounting for RunUser. The JIT engine
// runs compiled basic blocks from a per-program executable arena; it
// requires an x86-64 build (JitCompiledIn()) and a host that grants
// executable pages (JitAvailable()) -- otherwise the switch loop runs, with
// a one-time logged warning. Both engines produce bit-identical RunResults,
// register state and memory effects; the jit_* counters are host-side
// observability only.
struct InterpOptions {
  InterpEngine engine = InterpEngine::kJit;
  // += 1 per retired instruction. A semantic count, not an engine artifact:
  // both engines must produce identical values for the same run (an
  // instruction whose effect did not happen -- a faulting access, a
  // syscall/break trap re-executed on resume -- does not count).
  uint64_t* instructions = nullptr;
  // JIT observability (all host-side): programs compiled, compiled blocks
  // entered (each entry charges the block's whole cycle sum), deopts into
  // the switch core, and bytes of host code emitted.
  uint64_t* jit_compiles = nullptr;
  uint64_t* jit_block_entries = nullptr;
  uint64_t* jit_deopts = nullptr;
  uint64_t* jit_bytes = nullptr;
};

// True when the template JIT was compiled in (x86-64 Unix hosts).
bool JitCompiledIn();

// True when the host actually grants W^X executable pages (probed once).
// False (e.g. under a hardened mmap policy) makes engine=kJit fall back to
// the switch engine at run time instead of crashing.
bool JitAvailable();

// Executes at most `budget_cycles` worth of instructions of `program`
// starting from regs->pc. Mutates `regs` in place.
RunResult RunUser(const Program& program, UserRegisters* regs, MemoryBus* bus,
                  uint64_t budget_cycles, const InterpOptions& opts = {});

}  // namespace fluke

#endif  // SRC_UVM_INTERP_H_
