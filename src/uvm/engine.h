// Interpreter engine selection, shared between the uvm layer (which
// implements the engines) and the kernel config / CLI (which pick one).
//
// Two tiers:
//   kSwitch -- the portable fetch/decode/switch loop. Reference semantics.
//   kJit    -- per-basic-block template JIT emitting host code into a W^X
//              arena; bit-identical to kSwitch. Cold bursts, bursts whose
//              entry block ends in a trap, and deopts run the switch core.
//
// kJit on a host without executable pages (or a non-x86-64 build) runs
// kSwitch with a one-time logged warning. Degradation never changes
// observable execution -- only host speed and the host-side jit_* counters.
// The numeric values are those the engines have always had (1 was the
// computed-goto engine), so a printed KernelConfig reads the same.

#ifndef SRC_UVM_ENGINE_H_
#define SRC_UVM_ENGINE_H_

namespace fluke {

enum class InterpEngine : int {
  kSwitch = 0,
  kJit = 2,
};

inline const char* InterpEngineName(InterpEngine e) {
  switch (e) {
    case InterpEngine::kSwitch:
      return "switch";
    case InterpEngine::kJit:
      return "jit";
  }
  return "?";
}

}  // namespace fluke

#endif  // SRC_UVM_ENGINE_H_
