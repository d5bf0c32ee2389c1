// Engine selection for RunUser: the template JIT for bursts that enter
// compiled code, the switch core (interp_switch.cc) for everything else.

#include "src/uvm/interp.h"

#include <cstdio>

#include "src/uvm/jit.h"
#include "src/uvm/minitlb.h"

namespace fluke {

namespace {

// One warning per process, not per burst: the fallback is a performance
// note, and the switch core is bit-identical anyway.
void WarnJitFallbackOnce(const char* why) {
  static bool warned = false;
  if (!warned) {
    warned = true;
    std::fprintf(stderr,
                 "fluke: jit engine unavailable (%s); falling back to the "
                 "switch interpreter\n",
                 why);
  }
}

}  // namespace

RunResult RunUser(const Program& program, UserRegisters* regs, MemoryBus* bus,
                  uint64_t budget_cycles, const InterpOptions& opts) {
  if (opts.engine == InterpEngine::kJit) {
    if (!JitAvailable()) {
      WarnJitFallbackOnce(JitCompiledIn() ? "host refused executable pages"
                                          : "not compiled in on this target");
    } else {
      JitProgram& jp = program.JitState();
      // A burst whose entry block ends in a trap is that one block at most:
      // entering compiled code would cost more than it saves, and such a
      // burst does not count towards hotness either.
      if (!jp.OneBlock(regs->pc)) {
        if (!jp.ready() && !jp.failed() && jp.NoteEntry(regs->pc)) {
          jp.Compile(program, opts);
        }
        if (jp.ready()) {
          return jit_internal::RunUserJit(program, jp, regs, bus, budget_cycles,
                                          opts);
        }
        if (jp.failed()) {
          WarnJitFallbackOnce("host refused executable pages");
        }
      }
    }
  }
  return interp_internal::RunUserSwitch(program, regs, bus, budget_cycles,
                                        opts.instructions);
}

}  // namespace fluke
