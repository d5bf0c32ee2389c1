// The dispatcher: the only place the execution model matters.
//
// RunThread() executes one burst of a thread: resuming a retained kernel
// activation (process model), or running user code until it traps. When a
// handler blocks, HandleOpOutcome() applies the model:
//
//   * interrupt model -- destroy the coroutine frame ("unwind the per-CPU
//     kernel stack"); the thread's committed registers are the
//     continuation, and waking it re-executes the (rewritten) entrypoint;
//   * process model -- retain the frame (the thread keeps its kernel
//     stack while sleeping) and resume it mid-handler at wake.
//
// Preemption policy also lives here: NP never preempts kernel operations,
// PP honors the explicit preemption point on the IPC copy path, and FP
// (process model only) preempts at every work quantum.

#include <algorithm>
#include <cassert>

#include "src/kern/kernel.h"
#include "src/kern/legacy.h"
#include "src/kern/syscall_table.h"
#include "src/uvm/interp.h"

namespace fluke {

void Kernel::Run(Time until) {
  // One check, hoisted out of the dispatch loop: when no instrumentation is
  // live (no armed fault injector, no enabled trace buffer), the
  // Instrumented=false loop runs -- compiled with no hook code at all.
  // The syscall/IPC fast paths are eligible there and on the instrumented
  // loop when tracing is the only live instrumentation (the fast handlers
  // carry their own trace hooks; see EnterSyscallT). Arming happens only
  // from host code between Run() calls, so the choice is stable for the
  // whole call.
  if (cfg.num_cpus > 1) {
    // The epoch dispatcher, with the same hoisted choice.
    if (InstrumentationLive()) {
      RunMpLoop<true>(until);
    } else {
      RunMpLoop<false>(until);
    }
    return;
  }
  if (InstrumentationLive()) {
    RunLoop<true>(until);
  } else {
    RunLoop<false>(until);
  }
}

void Kernel::CkptDrainTick(size_t batch) {
  CkptSession* s = ckpt_;
  if (s == nullptr || s->done()) {
    return;
  }
  uint32_t drained = 0;
  for (CkptSpaceCapture& sc : s->spaces) {
    while (sc.cursor < sc.pages.size()) {
      CkptPage& rec = sc.pages[sc.cursor];
      if (!rec.captured) {
        if (batch == 0) {
          break;
        }
        sc.space->CkptCapturePage(rec);
        --batch;
        ++drained;
      }
      ++sc.cursor;
    }
    if (batch == 0) {
      break;
    }
  }
  if (drained != 0 && trace.enabled()) {
    trace.Record(clock.now(), TraceKind::kCkptDrain, 0, drained,
                 static_cast<uint32_t>(s->pending));
  }
}

template <bool Instrumented>
void Kernel::RunLoop(Time until) {
  while (!crashed_ && clock.now() < until) {
    if constexpr (Instrumented) {
      // Concurrent-checkpoint drain: a few owed pages per dispatch, on the
      // host only -- virtual time and the simulated machine are untouched,
      // so the checkpointed run stays bit-identical to an uncheckpointed
      // one (tests/ckpt_concurrent_test.cc).
      if (ckpt_ != nullptr) {
        CkptDrainTick();
      }
      if (!InstrumentationLive()) {
        RunLoop<false>(until);  // the drain finished and nothing else is armed
        return;
      }
    }
    RunDueTimers();
    if (irqs.AnyPending()) {
      DispatchIrqs();
    }
    Thread* t = PickNext();
    if (t == nullptr) {
      if (TimerQueueEmpty()) {
        return;  // nothing can ever happen again
      }
      const Time next = NextTimerDeadline();
      const Time target = next >= until ? until : next;
      if constexpr (Instrumented) {
        // Idle span on the synthetic tid 0 track: the profiler partitions
        // the whole run's virtual time, so time with no runnable thread is
        // attributed explicitly rather than to the last-run thread.
        if (target > clock.now()) {
          const uint64_t idle = trace.BeginSpan(clock.now(), TraceKind::kIdle, 0);
          clock.AdvanceTo(target);
          trace.EndSpan(clock.now(), TraceKind::kIdle, idle, 0);
        } else {
          clock.AdvanceTo(target);
        }
      } else {
        clock.AdvanceTo(target);
      }
      if (next >= until) {
        return;
      }
      continue;
    }
    if constexpr (Instrumented) {
      if (finj.armed()) {
        // Every pick of a runnable thread is one dispatch boundary: the
        // injection points the extraction sweep and crash-restart tests
        // index.
        const uint64_t boundary = finj.NoteDispatch();
        if (finj.ShouldCrash(boundary)) {
          // Freeze the machine with the picked thread back in its schedule
          // slot; recovery is a checkpoint reload into a fresh kernel.
          trace.Record(clock.now(), TraceKind::kFaultInject, t->id(), 1);
          cpus_[0].ready.PushFront(t);
          crashed_ = true;
          return;
        }
        if (finj.ShouldExtract(boundary)) {
          t = RecreateThreadForAudit(t);
          trace.Record(clock.now(), TraceKind::kFaultInject, t->id(), 0);
        }
      }
    }
    Time horizon = until;
    if (!TimerQueueEmpty()) {
      horizon = std::min(horizon, NextTimerDeadline());
    }
    RunThreadT<Instrumented>(cpus_[0], t, horizon);
  }
}

Thread* Kernel::PickNext() { return PickNextOn(*exec_cpu_); }

Thread* Kernel::PickNextOn(Cpu& c) {
  // One bitmap scan + list pop, whatever the runnable count (readyqueue.h).
  ++stats.sched_bitmap_scans;
  return c.ready.PopHighest();
}

void Kernel::DispatchIrqs() {
  int line;
  while ((line = irqs.HighestPending()) >= 0) {
    irqs.Ack(line);
    Charge(costs.irq_dispatch);
    if (line == kIrqTimer) {
      // Several ticks may have coalesced into one pending interrupt while
      // the kernel ran a long nonpreemptible operation.
      const uint64_t raised = irqs.raise_count(kIrqTimer);
      const uint64_t n_ticks = raised - last_timer_raises_;
      last_timer_raises_ = raised;
      ticks_seen_ += static_cast<uint32_t>(n_ticks);
      Charge(costs.tick_work);
      if (ticks_seen_ % cfg.timeslice_ticks < n_ticks) {
        rotate_pending_ = true;
        if (cfg.num_cpus > 1) {
          // The tick rotates every CPU's lane (epoch dispatcher).
          for (Cpu& c : cpus_) {
            c.rotate = true;
          }
        }
      }
      // Table 6 probe accounting: a probe that is waiting will run once now
      // (the remaining coalesced ticks are misses); one that is still
      // running or queued misses all of them. latency_probes_ holds exactly
      // the live probe threads (maintained by SetLatencyProbe/ThreadExit),
      // so this is O(probes) per tick, not O(all threads).
      latency_probes_.ForEach([&](Thread* t) {
        const bool waiting =
            t->run_state == ThreadRun::kBlocked && t->irq_line == kIrqTimer;
        stats.probe_misses += waiting ? n_ticks - 1 : n_ticks;
      });
    } else if (line == kIrqDisk) {
      WakeAll(&disk_waiters);
    } else if (line == kIrqConsole) {
      WakeAll(&console_waiters);
    }
    // irq_wait() completes on the raised line. The wake is timestamped with
    // the line's raise time: latency is measured from the hardware event,
    // not from when a busy kernel finally processed it.
    while (Thread* w = irq_waiters[line].Dequeue()) {
      w->irq_line = -1;
      CompleteBlockedOp(w, kFlukeOk);
      w->wake_time = irqs.raise_time(line);
    }
  }
}

void Kernel::RunThread(Thread* t, Time horizon) {
  // Non-template entrypoint (white-box tests): dispatch per call.
  if (InstrumentationLive()) {
    RunThreadT<true>(*exec_cpu_, t, horizon);
  } else {
    RunThreadT<false>(*exec_cpu_, t, horizon);
  }
}

template <bool Instrumented>
void Kernel::RunThreadT(Cpu& cpu, Thread* t, Time horizon) {
  if (cpu.last != t) {
    ++stats.context_switches;
    if constexpr (Instrumented) {
      trace.Record(clock.now(), TraceKind::kContextSwitch, t->id(),
                   cpu.last != nullptr ? static_cast<uint32_t>(cpu.last->id()) : 0);
    }
    uint64_t cost = costs.ctx_switch;
    if (cfg.model == ExecModel::kProcess) {
      // Saving/restoring the kernel-mode register state the interrupt model
      // does not keep (paper section 5.3).
      cost += costs.process_ctx_extra;
    }
    Charge(cost);
  }
  cpu.current = t;
  if (t->latency_probe && t->wake_time != 0) {
    stats.RecordProbe(clock.now(), clock.now() - t->wake_time);
  }
  t->wake_time = 0;
  t->run_state = ThreadRun::kRunning;

  if (t->op.valid()) {
    // Retained kernel activation (process model): resume mid-handler.
    ResumeOp(t);
    HandleOpOutcomeT<Instrumented>(cpu, t);
  } else if (t->program == nullptr) {
    ThreadExit(t, 0xBAD0);  // no code to run
  } else {
    uint64_t budget = 1;  // horizon at or behind now: force progress
    if (horizon > clock.now()) {
      budget = (horizon - clock.now()) / kNsPerCycle;
    }
    if (budget == 0) {
      // The horizon is less than one whole cycle away. Running anyway would
      // overrun it by a full cycle, pushing the due event late; instead the
      // thread idles the sub-cycle remainder and is requeued at the horizon
      // (Run() then fires whatever is due there before re-picking it).
      clock.AdvanceTo(horizon);
    } else {
      // Cap one uninterrupted interpreter burst at 2^31 cycles (about two
      // virtual seconds). A budget-capped thread simply re-enters the
      // dispatch loop and is re-picked with the clock advanced, so long
      // quiescent horizons still complete; the bound is what lets the
      // threaded engine keep cycles and retired instructions in one packed
      // 64-bit accumulator with no cross-word carries (see predecode.h).
      constexpr uint64_t kMaxBurstCycles = 1ull << 31;
      if (budget > kMaxBurstCycles) {
        budget = kMaxBurstCycles;
      }
      if constexpr (Instrumented) {
        if (finj.single_step() && budget > 1) {
          // Atomicity-audit mode: one instruction per burst, so every
          // instruction retires at its own dispatch boundary.
          budget = 1;
        }
        finj.Note(FaultHook::kInterpBoundary);
      }
      const RunResult r = RunUser(*t->program, &t->regs, t->space, budget,
                                  Instrumented ? interp_opts_instr_ : interp_opts_);
      clock.Advance(r.cycles * kNsPerCycle);
      switch (r.event) {
        case UserEvent::kBudget:
          break;  // horizon reached; requeue below
        case UserEvent::kSyscall:
          EnterSyscallT<Instrumented>(cpu, t);
          break;
        case UserEvent::kFault:
          HandleUserFaultT<Instrumented>(t, r.fault_addr, r.fault_is_write);
          break;
        case UserEvent::kHalt:
          if (t->forced_restart) {
            // A thread rebuilt by forced extraction ran to completion: one
            // passed restart audit (the oracle compares its final state).
            ++stats.restart_audits;
          }
          ThreadExit(t, t->regs.gpr[kRegB]);
          break;
        case UserEvent::kBreak:
          ++t->regs.pc;  // resume continues after the breakpoint
          t->run_state = ThreadRun::kStopped;
          break;
        case UserEvent::kBadPc:
          ThreadExit(t, 0xDEAD);
          break;
      }
    }
  }

  if (t->run_state == ThreadRun::kRunning) {
    t->run_state = ThreadRun::kRunnable;
    if (rotate_pending_) {
      cpu.ready.PushBack(t);  // timeslice round-robin
      rotate_pending_ = false;
    } else {
      cpu.ready.PushFront(t);  // keep running next pick
    }
  }
  cpu.last = t;
  cpu.current = nullptr;
}

void Kernel::EnterSyscall(Thread* t) {
  if (InstrumentationLive()) {
    EnterSyscallT<true>(*exec_cpu_, t);
  } else {
    EnterSyscallT<false>(*exec_cpu_, t);
  }
}

template <bool Instrumented>
void Kernel::EnterSyscallT(Cpu& cpu, Thread* t) {
  ++stats.syscalls;
  if constexpr (Instrumented) {
    finj.Note(FaultHook::kSyscallEntry);
  }
  if (t->restart_pending) {
    ++stats.syscall_restarts;
    if constexpr (Instrumented) {
      trace.Record(clock.now(), TraceKind::kSyscallRestart, t->id(), t->regs.gpr[kRegA]);
      if (t->trace_sys_span == 0) {
        // The rollback closed the previous epoch's span (CancelOp), so this
        // re-entry is a fresh restart-epoch span; a block that kept its op
        // open (interrupt-model wait) continues the original span instead,
        // with the restart instant above visible inside it.
        t->trace_sys_span =
            trace.BeginSpan(clock.now(), TraceKind::kSyscallEnter, t->id(), t->regs.gpr[kRegA], 1);
        t->trace_sys_t0 = clock.now();
      }
    }
    t->restart_pending = false;
  } else {
    if constexpr (Instrumented) {
      // The span begin IS the enter event (same kind/fields, phase kBegin).
      TraceEndSysSpan(t, t->op_sys, 0xFFFFFFFFu);  // defensive: none should be open
      t->trace_sys_span =
          trace.BeginSpan(clock.now(), TraceKind::kSyscallEnter, t->id(), t->regs.gpr[kRegA], 0);
      t->trace_sys_t0 = clock.now();
    }
  }
  uint64_t entry = costs.syscall_entry;
  if (cfg.model == ExecModel::kInterrupt) {
    entry += costs.interrupt_entry_extra;
  }
  Charge(entry);

  const uint32_t sys = t->regs.gpr[kRegA];

  // Privileged pseudo-syscalls for legacy (user-mode-in-kernel-space)
  // threads -- handled synchronously, outside the public API (section 5.6).
  if (sys >= kPsysBase) {
    HandlePseudoSyscall(t, sys);
    Charge(costs.syscall_exit);
    if constexpr (Instrumented) {
      TraceEndSysSpan(t, sys, t->regs.gpr[kRegA]);
    }
    return;
  }

  // Flattened dispatch: one bounds check and one indexed load, no lazy-init
  // vector behind a function call.
  const SyscallDef* def = sys < kSysCount ? syscalls_by_num_[sys] : nullptr;
  if (def == nullptr || def->handler == nullptr) {
    Finish(t, kFlukeErrBadArgument);
    Charge(costs.syscall_exit);
    if constexpr (Instrumented) {
      TraceEndSysSpan(t, sys, kFlukeErrBadArgument);
    }
    return;
  }
  t->op_sys = sys;
  t->op_aux = def->aux;
  // Fast path: a frameless twin (SyscallDef::fast) finishes or blocks the
  // call at entry, with the coroutine route's registers, charges and frame
  // accounting, or touches nothing and falls through to the engine below.
  // Disarmed, every hook the slow path would have skipped is provably
  // absent rather than skipped. Tracing alone does not forfeit it: the twins
  // emit the same chunk/handoff/flow events the engine route would (ipc.cc).
  // A fault plan or an undrained checkpoint session still forces the
  // coroutine route -- its hook points (finj.Note, save-on-write) have no
  // twins.
  if (cfg.fast_path && def->fast != nullptr && (!Instrumented || TraceOnlyInstrumentation()) &&
      def->fast(*this, t, *def)) {
    // The shared tail: exactly what HandleOpOutcomeT does for the frame the
    // twin stands in for.
    if (t->run_state == ThreadRun::kBlocked) {
      if constexpr (Instrumented) {
        // CommitFastBlock ran the kBlocked arm; the wake path closes both
        // spans.
        t->trace_block_span = trace.BeginSpan(clock.now(), TraceKind::kBlock, t->id(), sys,
                                              static_cast<uint32_t>(t->block_kind));
        t->trace_block_t0 = clock.now();
      }
    } else {
      if constexpr (Instrumented) {
        TraceEndSysSpan(t, sys, t->regs.gpr[kRegA]);
      }
      AccountFrameFree(t, def->frame_bytes);  // op.Reset()
      uint64_t exit = costs.syscall_exit;
      if (cfg.model == ExecModel::kInterrupt) {
        exit += costs.interrupt_exit_extra;
      }
      Charge(exit);
    }
    ++stats.syscall_fast_entries;
    return;
  }
  SetFrameAccounting(this, t);
  t->op = def->handler(t->ctx);
  ResumeOp(t);
  HandleOpOutcomeT<Instrumented>(cpu, t);
}

void Kernel::ResumeOp(Thread* t) {
  SetFrameAccounting(this, t);
  UncountBlockedBytes(t);
  t->op_status = KStatus::kOk;
  std::coroutine_handle<> h = t->resume_point ? t->resume_point : t->op.handle();
  t->resume_point = {};
  h.resume();
}

void Kernel::UncountBlockedBytes(Thread* t) {
  if (t->blocked_bytes_counted) {
    blocked_frame_bytes_ -= t->kstack_bytes;
    t->blocked_bytes_counted = false;
  }
}

void Kernel::HandleOpOutcome(Thread* t) {
  if (InstrumentationLive()) {
    HandleOpOutcomeT<true>(*exec_cpu_, t);
  } else {
    HandleOpOutcomeT<false>(*exec_cpu_, t);
  }
}

template <bool Instrumented>
void Kernel::HandleOpOutcomeT(Cpu& cpu, Thread* t) {
  (void)cpu;  // the dispatcher context; kept explicit so no hot-path callee
              // reaches for global mutable CPU state
  if (t->op.valid() && t->op.done()) {
    // The operation completed (co_return): result registers are final.
    if constexpr (Instrumented) {
      TraceEndSysSpan(t, t->op_sys, t->regs.gpr[kRegA]);
    }
    SetFrameAccounting(this, t);
    t->op.Reset();
    t->resume_point = {};
    uint64_t exit = costs.syscall_exit;
    if (cfg.model == ExecModel::kInterrupt) {
      exit += costs.interrupt_exit_extra;
    }
    Charge(exit);
    return;  // thread continues per its run_state (usually still kRunning)
  }

  switch (t->op_status) {
    case KStatus::kBlocked:
      if constexpr (Instrumented) {
        // Block->wake span; ended by TraceEndBlockSpan (FinishWake,
        // CompleteBlockedOp, or the cancellation paths).
        t->trace_block_span = trace.BeginSpan(clock.now(), TraceKind::kBlock, t->id(), t->op_sys,
                                              static_cast<uint32_t>(t->block_kind));
        t->trace_block_t0 = clock.now();
      }
      if (cfg.model == ExecModel::kInterrupt) {
        // Unwind the per-CPU stack: RAII in the frame releases any kernel
        // state; the committed registers are the continuation.
        SetFrameAccounting(this, t);
        t->op.Reset();
        t->resume_point = {};
      } else {
        // The retained frame is the thread's kernel stack (Table 7).
        blocked_frame_bytes_ += t->kstack_bytes;
        t->blocked_bytes_counted = true;
        if (blocked_frame_bytes_ > stats.blocked_frame_bytes_peak) {
          stats.blocked_frame_bytes_peak = blocked_frame_bytes_;
        }
      }
      break;
    case KStatus::kPreempted:
      ++stats.kernel_preemptions;
      if constexpr (Instrumented) {
        trace.Record(clock.now(), TraceKind::kPreempt, t->id(), t->op_sys);
      }
      if (cfg.model == ExecModel::kInterrupt) {
        SetFrameAccounting(this, t);
        t->op.Reset();
        t->resume_point = {};
        t->restart_pending = true;
      }
      MakeRunnable(t);
      break;
    default:
      // A handler suspended with a status only terminal co_returns may
      // carry. Recoverable: roll the operation back to its committed
      // restart point and let the thread retry from user mode.
      Panic("unexpected op status at suspension");
      CancelOpQueuesOnly(t);
      MakeRunnable(t);
      break;
  }
}

void Kernel::HandleUserFault(Thread* t, uint32_t addr, bool is_write) {
  if (InstrumentationLive()) {
    HandleUserFaultT<true>(t, addr, is_write);
  } else {
    HandleUserFaultT<false>(t, addr, is_write);
  }
}

template <bool Instrumented>
void Kernel::HandleUserFaultT(Thread* t, uint32_t addr, bool is_write) {
  ++stats.user_faults;
  if constexpr (Instrumented) {
    finj.Note(FaultHook::kPageFault);
  }
  Charge(costs.fault_enter);
  ChargeFpLocks(2);  // pmap + mapping-hierarchy locks
  const Time t0 = clock.now();
  if constexpr (Instrumented) {
    TraceEndRemedySpan(t, 1);  // defensive: no remedy span should be open
    t->trace_remedy_span =
        trace.BeginSpan(clock.now(), TraceKind::kFaultRemedy, t->id(), addr, is_write);
  }

  SoftFaultResult r = t->space->TryResolveSoft(addr, is_write);
  if (r.resolved) {
    uint64_t cost = costs.soft_fault_walk_per_level * static_cast<uint64_t>(r.levels_walked + 1) +
                    costs.pte_install;
    if (r.zero_filled) {
      cost += costs.zero_fill;
    }
    Charge(cost);
    ++stats.soft_faults;
    t->oom_retries = 0;
    if constexpr (Instrumented) {
      trace.Record(clock.now(), TraceKind::kSoftFault, t->id(), addr, is_write);
      if (t->trace_remedy_span != 0) {
        trace.EndSpan(clock.now(), TraceKind::kFaultRemedy, t->trace_remedy_span, t->id(), addr,
                      0);  // soft-resolved
        t->trace_remedy_span = 0;
      }
    }
    stats.remedy_soft_ns += clock.now() - t0;
    return;  // PC is still at the faulting instruction: it simply retries
  }

  if (r.out_of_frames && t->oom_retries < kOomRetryLimit) {
    // Transient frame exhaustion (injected or a genuinely full pool): back
    // off and retry. PC is still at the faulting instruction, so returning
    // re-runs it; the retry budget is reset on any successful resolve.
    ++t->oom_retries;
    ++stats.oom_backoffs;
    Charge(costs.oom_backoff);
    if constexpr (Instrumented) {
      if (t->trace_remedy_span != 0) {
        trace.EndSpan(clock.now(), TraceKind::kFaultRemedy, t->trace_remedy_span, t->id(), addr,
                      4);  // oom backoff; the retry opens a fresh span
        t->trace_remedy_span = 0;
      }
    }
    return;
  }

  Port* keeper = t->space->keeper;
  if (keeper == nullptr || !keeper->alive()) {
    ThreadExit(t, 0xFA07);  // unhandled fault kills the thread
    return;
  }
  ++stats.hard_faults;
  if constexpr (Instrumented) {
    trace.Record(clock.now(), TraceKind::kHardFault, t->id(), addr, is_write);
  }
  Charge(costs.fault_msg_build);
  KernelMsg msg;
  msg.words[kFaultMsgKind] = kFaultKindPage;
  msg.words[kFaultMsgThread] = static_cast<uint32_t>(t->id());
  msg.words[kFaultMsgAddr] = addr;
  msg.words[kFaultMsgWrite] = is_write ? 1u : 0u;
  msg.len = kFaultMsgWords;
  msg.victim = t;
  msg.badge = keeper->badge;

  t->fault_addr = addr;
  t->fault_write = is_write;
  t->fault_side = kFaultSideClient;
  t->fault_count_ipc = false;
  t->fault_deliver_time = clock.now();
  t->block_kind = BlockKind::kFaultWait;
  t->run_state = ThreadRun::kBlocked;
  DeliverKernelMsg(keeper, msg);
  // CompleteFaultWait() will make the thread runnable; re-running the
  // faulting instruction is the restart.
}

void Kernel::HandlePseudoSyscall(Thread* t, uint32_t sys) {
  if (!t->legacy) {
    Finish(t, kFlukeErrProtection);
    return;
  }
  Charge(costs.kernel_call_gate);
  switch (sys) {
    case kPsysDiskSubmit: {
      const uint64_t id =
          disk.Submit(t->regs.gpr[kRegB], t->regs.gpr[kRegC], t->regs.gpr[kRegD] != 0);
      FinishWith(t, kFlukeOk, static_cast<uint32_t>(id));
      return;
    }
    case kPsysKstat: {
      uint32_t v = 0;
      switch (t->regs.gpr[kRegB]) {
        case kKstatContextSwitches:
          v = static_cast<uint32_t>(stats.context_switches);
          break;
        case kKstatSyscalls:
          v = static_cast<uint32_t>(stats.syscalls);
          break;
        case kKstatSoftFaults:
          v = static_cast<uint32_t>(stats.soft_faults);
          break;
        case kKstatHardFaults:
          v = static_cast<uint32_t>(stats.hard_faults);
          break;
        case kKstatAliveThreads:
          v = static_cast<uint32_t>(AliveThreads());
          break;
        default:
          Finish(t, kFlukeErrBadArgument);
          return;
      }
      FinishWith(t, kFlukeOk, v);
      return;
    }
    case kPsysConsoleFlush: {
      while (console.GetChar() >= 0) {
      }
      Finish(t, kFlukeOk);
      return;
    }
    default:
      Finish(t, kFlukeErrBadArgument);
      return;
  }
}

// ---------------------------------------------------------------------------
// Multi-CPU epoch dispatcher.
//
// An epoch runs every CPU's virtual-time lane from a common base to a common
// horizon (min of the run limit, the epoch quantum, and the next timer
// deadline). Within an epoch, rounds alternate two phases, each a loop over
// the CPUs in order 0..N-1 on the one host thread:
//
//   phase B: MpAdvance picks threads and executes kernel work -- syscalls,
//     faults, wakeups -- with the global clock loaned to the CPU's lane,
//     until the CPU has a pure user-mode interpreter burst staged (or its
//     lane reaches the horizon);
//   phase A: MpRunBursts executes every staged burst. Bursts touch only
//     thread registers and the frames of the thread's space-affinity
//     domain;
//   back to phase B: MpConsume charges each burst's cycles on its lane and
//     handles its trap.
//
// The schedule, stats and digest are a function of this order alone, so
// every run of the same workload reproduces them bit for bit. There are no
// host threads: a burst ends at the next syscall, a few instructions in the
// kernel-bound workloads -- too little work to pay for a fork/join per
// round (DESIGN.md, "Deterministic SMP").
// ---------------------------------------------------------------------------

namespace {

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  h ^= v;
  h *= 1099511628211ull;
  return h;
}

// RunThreadT's requeue tail, with the per-CPU rotate flag.
inline void MpRequeue(Cpu& c, Thread* t) {
  if (t->run_state == ThreadRun::kRunning) {
    t->run_state = ThreadRun::kRunnable;
    if (c.rotate) {
      c.ready.PushBack(t);  // timeslice round-robin
      c.rotate = false;
    } else {
      c.ready.PushFront(t);  // keep running next pick
    }
  }
  c.last = t;
  c.current = nullptr;
}

}  // namespace

uint64_t Kernel::MpDigest() const {
  if (cfg.num_cpus <= 1) {
    return 0;
  }
  uint64_t h = 14695981039346656037ull;
  for (const Cpu& c : cpus_) {
    h = FnvMix(h, c.digest);
  }
  return h;
}

template <bool Instrumented>
bool Kernel::MpAdvance(Cpu& c, Time horizon) {
  exec_cpu_ = &c;
  clock.SetForMpLane(c.lane);
  while (!crashed_ && clock.now() < horizon) {
    Thread* t = PickNextOn(c);
    if (t == nullptr) {
      // Idle for the rest of the epoch. A thread woken onto this CPU later
      // in the same epoch (by another CPU's kernel phase) waits for the
      // next one -- bounded by the epoch quantum, and deterministic.
      c.lane = horizon;
      return false;
    }
    ++c.dispatches;
    c.digest = FnvMix(FnvMix(c.digest, clock.now()), t->id());
    if constexpr (Instrumented) {
      if (finj.armed()) {
        const uint64_t boundary = finj.NoteDispatch();
        if (finj.ShouldCrash(boundary)) {
          trace.Record(clock.now(), TraceKind::kFaultInject, t->id(), 1);
          c.ready.PushFront(t);
          crashed_ = true;
          c.lane = clock.now();
          return false;
        }
        if (finj.ShouldExtract(boundary)) {
          t = RecreateThreadForAudit(t);
          trace.Record(clock.now(), TraceKind::kFaultInject, t->id(), 0);
        }
      }
    }
    if (c.last != t) {
      ++stats.context_switches;
      if constexpr (Instrumented) {
        trace.Record(clock.now(), TraceKind::kContextSwitch, t->id(),
                     c.last != nullptr ? static_cast<uint32_t>(c.last->id()) : 0);
      }
      uint64_t cost = costs.ctx_switch;
      if (cfg.model == ExecModel::kProcess) {
        cost += costs.process_ctx_extra;
      }
      Charge(cost);
    }
    c.current = t;
    if (t->latency_probe && t->wake_time != 0) {
      stats.RecordProbe(clock.now(), clock.now() - t->wake_time);
    }
    t->wake_time = 0;
    t->run_state = ThreadRun::kRunning;

    if (t->op.valid()) {
      ResumeOp(t);
      HandleOpOutcomeT<Instrumented>(c, t);
      MpRequeue(c, t);
      continue;
    }
    if (t->program == nullptr) {
      ThreadExit(t, 0xBAD0);
      MpRequeue(c, t);
      continue;
    }
    uint64_t budget = (horizon - clock.now()) / kNsPerCycle;
    if (budget == 0) {
      // Sub-cycle remainder to the horizon: idle it (see RunThreadT).
      clock.AdvanceTo(horizon);
      MpRequeue(c, t);
      continue;
    }
    constexpr uint64_t kMaxBurstCycles = 1ull << 31;
    if (budget > kMaxBurstCycles) {
      budget = kMaxBurstCycles;
    }
    if constexpr (Instrumented) {
      if (finj.single_step() && budget > 1) {
        budget = 1;
      }
      finj.Note(FaultHook::kInterpBoundary);
    }
    // Stage the burst; c.current stays set until MpConsume.
    c.burst_budget = budget;
    ++c.bursts;
    c.lane = clock.now();
    return true;
  }
  c.lane = clock.now();
  return false;
}

template <bool Instrumented>
void Kernel::MpRunBursts() {
  const InterpOptions& opts = Instrumented ? interp_opts_instr_ : interp_opts_;
  for (Cpu& c : cpus_) {
    if (c.burst_budget != 0) {
      Thread* t = c.current;
      c.burst = RunUser(*t->program, &t->regs, t->space, c.burst_budget, opts);
    }
  }
}

template <bool Instrumented>
void Kernel::MpConsume(Cpu& c) {
  if (c.burst_budget == 0) {
    return;
  }
  c.burst_budget = 0;
  exec_cpu_ = &c;
  clock.SetForMpLane(c.lane);
  Thread* t = c.current;
  const RunResult r = c.burst;
  clock.Advance(r.cycles * kNsPerCycle);
  c.digest = FnvMix(FnvMix(c.digest, clock.now()), static_cast<uint64_t>(r.event));
  switch (r.event) {
    case UserEvent::kBudget:
      break;  // horizon (or burst cap) reached; requeue below
    case UserEvent::kSyscall:
      EnterSyscallT<Instrumented>(c, t);
      break;
    case UserEvent::kFault:
      HandleUserFaultT<Instrumented>(t, r.fault_addr, r.fault_is_write);
      break;
    case UserEvent::kHalt:
      if (t->forced_restart) {
        ++stats.restart_audits;
      }
      ThreadExit(t, t->regs.gpr[kRegB]);
      break;
    case UserEvent::kBreak:
      ++t->regs.pc;
      t->run_state = ThreadRun::kStopped;
      break;
    case UserEvent::kBadPc:
      ThreadExit(t, 0xDEAD);
      break;
  }
  MpRequeue(c, t);
  c.lane = clock.now();
}

template <bool Instrumented>
void Kernel::RunMpLoop(Time until) {
  mp_running_ = true;
  while (!crashed_ && clock.now() < until) {
    // Epoch boundary: global clock, boot CPU context. Timers, device events
    // and IRQs fire here in (deadline, seq) order, exactly as at 1 CPU.
    exec_cpu_ = &cpus_[0];
    RunDueTimers();
    if (irqs.AnyPending()) {
      DispatchIrqs();
    }
    bool any = false;
    for (Cpu& c : cpus_) {
      if (c.ready.Any()) {
        any = true;
        break;
      }
    }
    if (!any) {
      if (TimerQueueEmpty()) {
        break;  // nothing can ever happen again
      }
      const Time next = NextTimerDeadline();
      const Time target = next >= until ? until : next;
      if constexpr (Instrumented) {
        if (target > clock.now()) {
          const uint64_t idle = trace.BeginSpan(clock.now(), TraceKind::kIdle, 0);
          clock.AdvanceTo(target);
          trace.EndSpan(clock.now(), TraceKind::kIdle, idle, 0);
        } else {
          clock.AdvanceTo(target);
        }
      } else {
        clock.AdvanceTo(target);
      }
      if (next >= until) {
        break;
      }
      continue;
    }
    const Time base = clock.now();
    Time horizon = until;
    if (horizon - base > cfg.mp_epoch_ns) {
      horizon = base + cfg.mp_epoch_ns;
    }
    if (!TimerQueueEmpty()) {
      // RunDueTimers left nothing due at `base`, so horizon > base. A timer
      // armed mid-epoch with a nearer deadline fires at the next boundary:
      // staleness is bounded by the epoch quantum (DESIGN.md).
      horizon = std::min(horizon, NextTimerDeadline());
    }
    ++stats.mp_epochs;
    for (Cpu& c : cpus_) {
      c.lane = base;
    }
    for (;;) {
      bool staged = false;
      for (Cpu& c : cpus_) {
        staged |= MpAdvance<Instrumented>(c, horizon);
      }
      if (!staged || crashed_) {
        break;
      }
      MpRunBursts<Instrumented>();
      for (Cpu& c : cpus_) {
        MpConsume<Instrumented>(c);
      }
    }
    if (crashed_) {
      // Freeze: un-stage any bursts other CPUs had queued this round, so
      // every thread is back in a schedule slot for checkpoint extraction.
      for (Cpu& c : cpus_) {
        if (c.burst_budget != 0) {
          c.burst_budget = 0;
          c.current->run_state = ThreadRun::kRunnable;
          c.ready.PushFront(c.current);
          c.current = nullptr;
        }
      }
    }
    if (!crashed_) {
      clock.SetForMpLane(horizon);  // barrier: every lane at the horizon
    }
  }
  mp_running_ = false;
  exec_cpu_ = &cpus_[0];
}

}  // namespace fluke
