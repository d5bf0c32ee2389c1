// The syscall registry (drives dispatch and reproduces Table 1).
//
// Every entrypoint carries its Table 1 category; bench/table1_api prints the
// breakdown from this registry, so the 8/68/8/23 split is a measured
// property of the implementation, not a claim.

#ifndef SRC_KERN_SYSCALL_TABLE_H_
#define SRC_KERN_SYSCALL_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/api/abi.h"
#include "src/kern/fwd.h"
#include "src/kern/ktask.h"

namespace fluke {

class Kernel;

struct SyscallDef {
  uint32_t num = 0;
  const char* name = "";
  SysCat cat = SysCat::kShort;
  // True for the five entrypoints that exist primarily as restart points for
  // interrupted multi-stage operations (paper section 4.4).
  bool restart_point = false;
  // Auxiliary argument passed to shared handlers (the object type for the
  // 54 common object operations).
  uint32_t aux = 0;
  KTask (*handler)(SysCtx&) = nullptr;
  // Optional frameless twin of `handler`, consulted when instrumentation is
  // disarmed or trace-only (dispatch.cc). Either it mutates nothing and
  // returns false (the dispatcher then runs `handler`), or it commits: it
  // accounts `frame_bytes` as the coroutine route's `t->op = handler(ctx)`
  // would, reproduces the handler's registers, charges and child-frame
  // accounting exactly, and returns true with the call completed or blocked
  // through Kernel::CommitFastBlock. The dispatcher's shared tail then does
  // what HandleOpOutcomeT would: closes the trace span, frees `frame_bytes`
  // and charges the syscall exit, or opens the block span.
  bool (*fast)(Kernel& k, Thread* t, const SyscallDef& def) = nullptr;
  // Size of `handler`'s coroutine frame, probed once when the table is
  // built: what a twin accounts in place of the frame it does not create.
  size_t frame_bytes = 0;
};

// Returns the definition for `num`, or null for an invalid entrypoint.
const SyscallDef* GetSyscall(uint32_t num);

// Flat by-number dispatch table of kSysCount entries (null holes for
// unassigned numbers): the hot path indexes this directly.
const SyscallDef* const* SyscallsByNum();

// The complete registry, ordered by entrypoint number.
const std::vector<SyscallDef>& AllSyscalls();

// Frameless twins (SyscallDef::fast). syscalls.cc: the trivial calls,
// uncontended mutex lock/unlock, clock_sleep and thread_interrupt. ipc.cc:
// the direct-handoff send, pure connect, accept-then-receive wait_receive
// and the two disconnects.
bool FastTrivial(Kernel& k, Thread* t, const SyscallDef& def);
bool FastMutexLock(Kernel& k, Thread* t, const SyscallDef& def);
bool FastMutexUnlock(Kernel& k, Thread* t, const SyscallDef& def);
bool FastClockSleep(Kernel& k, Thread* t, const SyscallDef& def);
bool FastThreadInterrupt(Kernel& k, Thread* t, const SyscallDef& def);
bool FastIpcSend(Kernel& k, Thread* t, const SyscallDef& def);
bool FastIpcConnect(Kernel& k, Thread* t, const SyscallDef& def);
bool FastIpcWaitReceive(Kernel& k, Thread* t, const SyscallDef& def);
bool FastIpcDisconnect(Kernel& k, Thread* t, const SyscallDef& def);

}  // namespace fluke

#endif  // SRC_KERN_SYSCALL_TABLE_H_
