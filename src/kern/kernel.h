// The Fluke kernel.
//
// One Kernel instance is one machine: virtual clock, devices, physical
// memory, spaces, threads and the dispatcher. The host program ("boot
// loader") creates spaces/threads/objects through the setup API, then calls
// Run()/RunUntilQuiescent() to execute.
//
// Handlers (syscalls.cc, ipc.cc) call back into the kernel through the
// public "handler interface" section below; the dispatcher (dispatch.cc)
// implements the execution-model and preemption policies described in
// DESIGN.md.

#ifndef SRC_KERN_KERNEL_H_
#define SRC_KERN_KERNEL_H_

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/slab.h"
#include "src/hal/clock.h"
#include "src/hal/devices.h"
#include "src/hal/irq.h"
#include "src/kern/config.h"
#include "src/kern/costs.h"
#include "src/kern/faultinject.h"
#include "src/kern/objects.h"
#include "src/kern/readyqueue.h"
#include "src/kern/space.h"
#include "src/kern/timerwheel.h"
#include "src/uvm/interp.h"
#include "src/kern/state.h"
#include "src/kern/stats.h"
#include "src/kern/trace.h"
#include "src/mem/phys.h"

namespace fluke {

struct SyscallDef;
class KLockGuard;

struct Cpu {
  int id = 0;
  Thread* current = nullptr;
  Thread* last = nullptr;  // previous thread: context-switch cost accounting

  // --- Per-CPU run queue. Threads are routed here by their home CPU
  //     (space-affinity domain); at num_cpus == 1 CPU 0's queue is THE run
  //     queue and everything below this line is untouched. ---
  ReadyQueue ready;

  // --- Multi-CPU epoch dispatch state (src/kern/dispatch.cc) ---
  Time lane = 0;              // virtual-time position within the current epoch
  bool rotate = false;        // per-CPU timeslice round-robin flag
  uint64_t burst_budget = 0;  // phase-A burst slot: budget cycles in...
  RunResult burst{};          // ...RunResult out (valid while burst_budget != 0)
  // FNV-1a accumulator over this CPU's dispatch history: (lane, tid) at
  // every pick, (lane, event) at every burst consumption. Folded in CPU
  // order by Kernel::MpDigest() -- every interpreter engine, traced and
  // untraced runs, and repeated runs must all agree on it.
  uint64_t digest = 14695981039346656037ull;
  // Per-CPU breakdown counters (--stats-json "per_cpu").
  uint64_t dispatches = 0;  // threads picked on this CPU
  uint64_t bursts = 0;      // phase-A interpreter bursts run on this CPU
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config, ProgramRegistry* programs = nullptr);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // -------------------------------------------------------------------------
  // Host-side setup API (the "boot loader").
  // -------------------------------------------------------------------------
  // Every object below is owned by the kernel and lives until ~Kernel; the
  // returned pointers are borrowed (DESIGN.md, "Object ownership").
  Space* CreateSpace(const std::string& name);
  // Creates a thread in `space` running `program` (or the space's default
  // program when null). The thread starts in the embryo state.
  Thread* CreateThread(Space* space, ProgramRef program = nullptr, int priority = 4);
  void StartThread(Thread* t);  // embryo/stopped -> runnable

  Mutex* NewMutex();
  Cond* NewCond();
  Port* NewPort(uint32_t badge);
  Portset* NewPortset();
  Region* NewRegion(Space* source, uint32_t base, uint32_t size, uint32_t prot);
  Mapping* NewMapping(Space* dest, uint32_t base, Region* src, uint32_t offset, uint32_t size,
                      uint32_t prot);
  Reference* NewReference(KernelObject* target);

  // Installs an object into a space's handle table.
  Handle Install(Space* space, KernelObject* obj) { return space->Install(obj); }

  // -------------------------------------------------------------------------
  // Execution.
  // -------------------------------------------------------------------------
  // Runs virtual time forward until `until`. Returns early if no thread can
  // ever run again (no runnables, no blocked-on-device, no pending events).
  void Run(Time until);
  // Runs until every thread is dead or stopped, or until max_time. Returns
  // true if the system quiesced.
  bool RunUntilQuiescent(Time max_time);
  // Runs until `t` is dead or stopped (useful when daemon threads -- e.g. a
  // memory manager -- never exit). Returns true on success.
  bool RunUntilThreadDone(Thread* t, Time max_time);

  size_t AliveThreads() const;
  bool AnyRunnable() const;

  // -------------------------------------------------------------------------
  // Thread state export / control (the atomic API; also reachable from user
  // mode through the thread_* syscalls).
  // -------------------------------------------------------------------------
  // Prompt + correct state extraction: never blocks, never disturbs the
  // target. Valid whenever the target is not currently executing on a CPU.
  bool GetThreadState(Thread* t, ThreadState* out) const;
  // Replaces the target's state. If the target is blocked, its current
  // operation is cancelled (transparent rollback: the registers being
  // replaced were already a committed restart point).
  bool SetThreadState(Thread* t, const ThreadState& s);
  // Breaks a thread out of a long/multi-stage wait: the pending operation
  // completes with kFlukeErrInterrupted.
  void InterruptThread(Thread* t);
  // Rollback + suspend. Fails (recoverable panic + kBadArgument) for a
  // thread currently executing on a CPU: on-CPU state lives in machine
  // registers and cannot be rolled back from outside.
  KStatus StopThread(Thread* t);
  void ResumeThread(Thread* t);  // stopped -> runnable
  void DestroyThread(Thread* t);
  void DestroyObject(KernelObject* obj);

  // Forced extract-destroy-recreate (the atomicity audit's injection):
  // `t` must be the thread the dispatcher just picked (runnable, unlinked).
  // Extracts its state, destroys it, creates a successor in the same handle
  // slot with identical schedule-relevant fields, and returns the
  // successor, ready to run in the old thread's place. The audit oracle
  // requires the successor to finish bit-identically to the original.
  Thread* RecreateThreadForAudit(Thread* t);

  // Recoverable-panic hook: invoked on invariant violations that used to be
  // assert() aborts. A handler returning true suppresses the abort and lets
  // the caller take its error path; tests install one to exercise those
  // paths. Returns true when intercepted.
  using PanicHandler = std::function<bool(const char*)>;
  void SetPanicHandler(PanicHandler h) { panic_handler_ = std::move(h); }
  bool Panic(const char* what);

  // True after an injected crash (FaultPlan::crash_at): the kernel froze at
  // a dispatch boundary and Run() refuses to continue. Hosts model recovery
  // by reloading a checkpoint image into a fresh kernel.
  bool crashed() const { return crashed_; }

  // -------------------------------------------------------------------------
  // Handler interface (used by syscalls.cc / ipc.cc / dispatch.cc).
  // -------------------------------------------------------------------------
  void Charge(uint64_t cycles) { clock.Advance(Cycles(cycles)); }
  void ChargeNs(Time ns) { clock.Advance(ns); }

  // Charges `pairs` blocking-lock acquire/release pairs in FP configurations
  // (full preemptibility replaces spin-protected fast paths with blocking
  // mutexes: run queues, wait queues, pmaps, objects -- paper section 5.2).
  // Free in NP/PP, which need no kernel locking.
  void ChargeFpLocks(int pairs = 1) {
    if (cfg.preempt == PreemptMode::kFull) {
      Charge(static_cast<uint64_t>(pairs) * (costs.fp_lock + costs.fp_unlock));
    }
  }

  // Completes the current syscall: result into register A, PC advanced.
  void Finish(Thread* t, uint32_t err) {
    t->regs.gpr[kRegA] = err;
    ++t->regs.pc;
  }
  void FinishWith(Thread* t, uint32_t err, uint32_t b_value) {
    t->regs.gpr[kRegB] = b_value;
    Finish(t, err);
  }

  // Scheduling.
  void MakeRunnable(Thread* t);
  void WakeOne(WaitQueue* q);
  void WakeAll(WaitQueue* q);
  // (Un)marks `t` as a Table 6 latency probe and maintains the
  // latency_probes_ list DispatchIrqs() iterates per tick. Always use this
  // rather than writing t->latency_probe directly, or tick-time probe-miss
  // accounting will skip the thread.
  void SetLatencyProbe(Thread* t, bool enable);
  // True when a higher-priority thread than `t` is runnable (or t's slice
  // expired) -- consulted by preemption points and FP work quanta.
  bool PreemptPending(const Thread* t) const;

  // Polls hardware: fires due events/timers and dispatches pending
  // interrupts. NP kernels only do this between dispatches (interrupts stay
  // pending through whole kernel operations); PP kernels do it at their
  // explicit preemption points; FP kernels at every work quantum.
  void PollInterrupts() {
    RunDueTimers();
    if (irqs.AnyPending()) {
      DispatchIrqs();
    }
  }

  // Fires every due device event and thread timeout, merged in global
  // (deadline, seq) order across the EventQueue and the timing wheel --
  // wheel seqs are minted from the EventQueue counter, so this is the same
  // total order the single queue used to produce. Inline: this runs at the
  // top of every dispatch-loop iteration, and in the steady state (nothing
  // due, usually nothing armed) it must cost what the old bare heap-top
  // compare did.
  void RunDueTimers() {
    const Time now = clock.now();
    if (timers.PeekDue(now) == nullptr &&
        (events.empty() || events.NextDeadline() > now)) {
      return;
    }
    FireDueTimers(now);
  }
  bool TimerQueueEmpty() const { return events.empty() && timers.empty(); }
  // Earliest pending deadline across both sources; only valid when
  // !TimerQueueEmpty(). Exact: the idle loop advances the clock to it.
  Time NextTimerDeadline() {
    if (timers.empty()) {
      return events.NextDeadline();
    }
    if (events.empty()) {
      return timers.NextDeadline();
    }
    const Time ev = events.NextDeadline();
    const Time tm = timers.NextDeadline();
    return ev < tm ? ev : tm;
  }

  // Arms a clock_sleep-style timeout for `t` at absolute time `when`,
  // recording it in t->timer_entry. `token` is the sleep_token guard the
  // fire path checks.
  void ArmSleepTimer(Thread* t, Time when, uint64_t token);
  // Cancels t's armed timeout, if any, freeing the wheel entry immediately
  // (no dead-entry no-op fire). Safe to call unconditionally.
  void CancelSleepTimer(Thread* t) {
    if (t->timer_entry != nullptr) {
      timers.Cancel(t->timer_entry);
      t->timer_entry = nullptr;
      ++stats.timer_cancels;
    }
  }

  // Cancels a blocked/stopped thread's in-progress operation: removes it
  // from its wait queue and destroys any retained kernel stack. The
  // thread's registers -- committed before it blocked -- are the rollback
  // state. No-op if there is no operation in progress.
  void CancelOp(Thread* t);
  // Like CancelOp but assumes the caller already dequeued the thread.
  // `counts_as_restart` is false when the operation is being *completed* on
  // the thread's behalf rather than rolled back for a later restart.
  void CancelOpQueuesOnly(Thread* t, bool counts_as_restart = true);

  // Completes a blocked (already-dequeued) thread's operation on its behalf
  // by mutating its state -- "continuation recognition" -- and wakes it.
  // Such a thread never reaches HandleOpOutcomeT's completion arm, so this is
  // also where its trace spans close (flow link + block/syscall span ends).
  void CompleteBlockedOp(Thread* t, uint32_t err);

  // Trace-span helpers (all no-ops while tracing is off; see trace.h).
  // Result/how code 0xFFFFFFFF marks a span ended by cancellation.
  void TraceFlowTo(Thread* woken);                 // causal link: current -> woken
  void TraceEndSysSpan(Thread* t, uint32_t sys, uint32_t result);
  void TraceEndBlockSpan(Thread* t, uint32_t how);  // 0=woken 1=cancelled 2=exit
  void TraceEndRemedySpan(Thread* t, uint32_t how);

  // Delivers a kernel-synthesized message (page fault, alert, oneway send)
  // to a port, waking a server if one is waiting.
  void DeliverKernelMsg(Port* port, const KernelMsg& msg);

  // Wakes any server blocked in receive on `port` (directly or through its
  // portset). Returns the woken thread, or null.
  Thread* WakeServer(Port* port);

  // Exception-IPC completion: the keeper replied for `victim`.
  void CompleteFaultWait(Thread* victim);

  // The CPU whose virtual-time lane the kernel is currently executing on.
  // Kernel work is serialized (epoch phase B runs the CPUs in order), so
  // there is exactly one at any moment. The dispatch loops hand their Cpu&
  // to the per-dispatch body; code the handlers reach (MakeRunnable,
  // PreemptPending, the audit recreate, trace flow links) reads this.
  Cpu& exec_cpu() { return *exec_cpu_; }
  const Cpu& exec_cpu() const { return *exec_cpu_; }

  // All simulated CPUs; cpus()[0] is the boot CPU (--stats per-CPU rows).
  const std::vector<Cpu>& cpus() const { return cpus_; }

  // Thread/space -> CPU affinity (epoch dispatcher). A space's home CPU is
  // its affinity domain's home; domains are unioned when a Mapping connects
  // two spaces, because connected spaces can come to share physical frames,
  // and a frame's user accesses then all come from one CPU's lane. Merges
  // are deterministic (the lower home id wins) and re-home the losing
  // domain's threads (stats.migrations).
  int HomeCpuOf(Space* s);
  // Merged (CPU-order) digest of every CPU's dispatch history: the MP
  // determinism witness. Zero-cost and zero at num_cpus == 1.
  uint64_t MpDigest() const;

  // Kernel-stack byte accounting hooks (called from KTask's operator
  // new/delete via the globals set around handler execution). Inline: the
  // syscall fast paths account a synthetic frame pair on every call.
  void AccountFrameAlloc(Thread* t, size_t bytes) {
    ++stats.frames_allocated;
    stats.frame_bytes_allocated += bytes;
    stats.frame_bytes_live += bytes;
    if (stats.frame_bytes_live > stats.frame_bytes_live_peak) {
      stats.frame_bytes_live_peak = stats.frame_bytes_live;
    }
    if (t != nullptr) {
      t->kstack_bytes += bytes;
      if (t->kstack_bytes > t->kstack_bytes_peak) {
        t->kstack_bytes_peak = t->kstack_bytes;
      }
    }
  }
  void AccountFrameFree(Thread* t, size_t bytes) {
    stats.frame_bytes_live -= bytes;
    if (t != nullptr) {
      t->kstack_bytes -= bytes;
    }
  }

  // -------------------------------------------------------------------------
  // Components (public: this is a simulator; tests and benches inspect them).
  // -------------------------------------------------------------------------
  KernelConfig cfg;
  CostModel costs;
  VirtualClock clock;
  EventQueue events;
  TimerWheel timers;  // thread timeouts; device events stay on `events`
  InterruptController irqs;
  TimerDevice timer{&clock, &events, &irqs};
  DiskDevice disk{&clock, &events, &irqs};
  ConsoleDevice console{&clock, &events, &irqs};
  PhysMemory phys;
  KernelStats stats;
  TraceBuffer trace;
  Rng rng;
  // Deterministic fault injection (cfg.fault_plan). Constructed disarmed;
  // hosts call finj.Arm() once setup is complete.
  FaultInjector finj;
  ProgramRegistry* programs = nullptr;

  // IRQ wait queues (irq_wait syscall) and sleepers.
  WaitQueue irq_waiters[kNumIrqLines];
  WaitQueue disk_waiters;
  WaitQueue console_waiters;

  // Every thread and space ever created, dead ones included, in creation
  // order.
  const std::vector<Thread*>& threads() const { return threads_; }
  const std::vector<Space*>& spaces() const { return spaces_; }

  // Dispatcher internals (dispatch.cc).
  void ResumeOp(Thread* t);
  void HandlePseudoSyscall(Thread* t, uint32_t sys);
  void ThreadExit(Thread* t, uint32_t code);
  void DispatchIrqs();
  // Table 7's blocked kernel stacks: a process-model thread that blocks
  // with its frame retained counts its stack bytes until it resumes or
  // dies.
  void CountBlockedBytes(Thread* t) {
    blocked_frame_bytes_ += t->kstack_bytes;
    t->blocked_bytes_counted = true;
    if (blocked_frame_bytes_ > stats.blocked_frame_bytes_peak) {
      stats.blocked_frame_bytes_peak = blocked_frame_bytes_;
    }
  }
  void UncountBlockedBytes(Thread* t) {
    if (t->blocked_bytes_counted) {
      blocked_frame_bytes_ -= t->kstack_bytes;
      t->blocked_bytes_counted = false;
    }
  }

  // True while any hot-path instrumentation must fire (an armed fault
  // injector, an enabled trace buffer, or a concurrent checkpoint still
  // owed pages). Run() checks this once and selects the Instrumented=false
  // dispatch loop otherwise, whose compiled body contains no hook code at
  // all -- the zero-cost-when-disarmed rule (DESIGN.md). A session whose
  // drain is done marks no page, so it no longer counts, whether or not the
  // host has called Finish() yet.
  bool InstrumentationLive() const {
    return finj.armed() || trace.enabled() || CkptDraining();
  }

  // True when tracing is the ONLY live instrumentation. The fast-path
  // handlers carry their own span/flow hooks, so a trace-only run keeps the
  // direct-handoff and trivial-completion fast paths (the binary trace's
  // leave-it-armed cost target depends on this); an armed fault injector or
  // an undrained checkpoint session still forces the coroutine slow path,
  // whose hook points the fast handlers do not replicate.
  bool TraceOnlyInstrumentation() const {
    return trace.enabled() && !finj.armed() && !CkptDraining();
  }

  // --- Concurrent checkpointing (src/kern/ckpt.h; workloads/checkpoint.*
  //     owns the capture protocol) ---
  // Attaches a marked session: the instrumented dispatch loop drains a small
  // batch of still-marked pages per iteration (CkptDrainTick). Detach once
  // the session is done. At most one session per kernel.
  void CkptAttachSession(CkptSession* s) { ckpt_ = s; }
  void CkptDetachSession() { ckpt_ = nullptr; }
  CkptSession* ckpt_session() const { return ckpt_; }
  bool CkptDraining() const { return ckpt_ != nullptr && !ckpt_->done(); }
  // Copies up to `batch` owed pages into the session (host-side: no virtual
  // time, no simulated frames). Called from the dispatch loop and by hosts
  // that want to finish a capture synchronously (CkptDrainAll).
  void CkptDrainTick(size_t batch = 8);
  void CkptDrainAll() {
    while (CkptDraining()) {
      CkptDrainTick(256);
    }
  }

  // The one frameless-block helper for the fast twins (syscalls.cc, ipc.cc):
  // `t` blocks at entry with no coroutine frame, its registers its whole
  // continuation. Mirrors BlockAwaiter and HandleOpOutcomeT's kBlocked arm
  // bit for bit: charges wait_enqueue and the wait-queue lock, sets `kind`,
  // and accounts `frames` -- the sizes the coroutine route would hold,
  // innermost first. The interrupt model frees them now, in op.Reset()
  // order; the process model keeps them live, and only a completion or a
  // cancel (CancelOpQueuesOnly) ends the block. The hold of `lock`, the
  // twin's stand-in for a KLockGuard in the frame, passes to the block.
  void CommitFastBlock(Thread* t, BlockKind kind, std::initializer_list<size_t> frames,
                       KLockGuard* lock = nullptr);

  uint64_t NextObjId() { return next_obj_id_++; }

 private:
  // The dispatcher (dispatch.cc), templated over whether instrumentation is
  // live: Run() reads InstrumentationLive() once and runs the matching
  // instantiation, so the disarmed one carries no hook code.
  template <bool Instrumented>
  void RunLoop(Time until);
  template <bool Instrumented>
  bool IdleStepT(Time until);  // the step both loops take with nothing runnable
  // The per-dispatch body RunLoop and the epoch loop share. Forced inline:
  // one call per dispatched burst -- for a syscall-dense thread that is
  // once per syscall, and letting the inliner outline these (it flip-flops
  // as the loops grow) costs measurable ns/syscall.
  template <bool Instrumented>
  __attribute__((always_inline)) inline bool FaultBoundaryT(Cpu& c, Thread*& t);
  template <bool Instrumented>
  __attribute__((always_inline)) inline uint64_t BeginDispatchT(Cpu& c, Thread* t, Time horizon,
                                                                bool force_progress);
  template <bool Instrumented>
  __attribute__((always_inline)) inline void HandleTrapT(Thread* t, const RunResult& r);
  template <bool Instrumented>
  void EnterSyscallT(Thread* t);
  template <bool Instrumented>
  __attribute__((always_inline)) inline void HandleOpOutcomeT(Thread* t);
  // The one syscall-exit tail, for every call that completes: closes the
  // call's trace span at the instant it completed, then charges the return
  // to user mode (syscall_exit plus the interrupt model's extra). Result
  // registers must be final.
  template <bool Instrumented>
  __attribute__((always_inline)) inline void ExitSyscallT(Thread* t, uint32_t sys);
  template <bool Instrumented>
  void HandleUserFaultT(Thread* t, uint32_t addr, bool is_write);

  // Multi-CPU epoch dispatcher (dispatch.cc). One epoch = every CPU runs
  // its own virtual-time lane from the epoch base to a common horizon, with
  // the global clock loaned to the running CPU's lane; everything runs on
  // the one host thread, in CPU order. Timers, IRQs and device events fire
  // at epoch boundaries on the global clock.
  template <bool Instrumented>
  void RunMpLoop(Time until);
  // Serial: advances CPU `c` (picks/kernel work) until it has a user burst
  // staged (returns true), its lane reached `horizon`, or it idled.
  template <bool Instrumented>
  bool MpAdvance(Cpu& c, Time horizon);
  // Serial: charges a finished burst and handles its trap on `c`'s lane.
  template <bool Instrumented>
  void MpConsume(Cpu& c);
  // Runs every staged burst in CPU order, with the engine options
  // RunLoop would pick for the same instrumentation state.
  template <bool Instrumented>
  void MpRunBursts();
  Thread* PickNextOn(Cpu& c);
  Space* AffinityRep(Space* s);
  void MergeAffinity(Space* a, Space* b);

  void DetachFromIpc(Thread* t);

  // Constructs one of the six object types without a slab into objects_.
  template <typename T, typename... Args>
  T* Own(Args&&... args) {
    objects_.push_back(std::make_unique<T>(std::forward<Args>(args)...));
    return static_cast<T*>(objects_.back().get());
  }

  // RunDueTimers()'s out-of-line tail: at least one event or timeout is due
  // at `now`; fires everything due, merged by (deadline, seq).
  void FireDueTimers(Time now);

  // Live latency-probe threads (see SetLatencyProbe); threads are removed
  // at exit so DispatchIrqs never sees a dead probe.
  IntrusiveList<Thread, &Thread::probe_node> latency_probes_;
  // RunUser engine options, built once in the constructor -- the engine
  // flag and the stats-counter pointers are fixed for the kernel's lifetime,
  // so the dispatch loops don't reassemble them on every burst.
  InterpOptions interp_opts_;
  // Same options with a kJit engine downgraded to kSwitch, used by the
  // instrumented dispatch path (armed fault plan / tracing / single-step):
  // every instrumented burst must retire at reference granularity, so
  // compiled code -- which charges whole blocks -- never runs there. This
  // is the "deopt" half of the JIT contract at burst granularity.
  InterpOptions interp_opts_instr_;
  // Flat by-number syscall dispatch table (syscall_table.cc), cached at
  // construction so EnterSyscallT indexes it with no function call or lazy
  // initialization on the hot path.
  const SyscallDef* const* syscalls_by_num_ = nullptr;
  std::vector<Cpu> cpus_;
  Cpu* cpu_ = nullptr;       // cpus_.data(): MakeRunnable's one indexed load
  Cpu* exec_cpu_ = nullptr;  // the CPU kernel work is executing on (serial)
  bool mp_running_ = false;  // inside RunMpLoop (gates cross-CPU accounting)
  int next_space_home_ = 0;  // round-robin CreateSpace home assignment

  // The owner of every kernel object. Nothing is freed mid-run: a destroyed
  // object stays a zombie, so every raw pointer to it -- handle tables,
  // references, wait queues, hosts -- stays valid until ~Kernel. Declared
  // after `phys`, so the objects die first: ~Space unrefs its frames.
  SlabArena<Thread> thread_slab_;
  SlabArena<Port> port_slab_;
  SlabArena<Reference> reference_slab_;
  std::vector<std::unique_ptr<KernelObject>> objects_;  // the other six types
  std::vector<Space*> spaces_;
  std::vector<Thread*> threads_;

  CkptSession* ckpt_ = nullptr;  // in-progress concurrent capture, if any

  uint64_t next_obj_id_ = 1;
  uint32_t ticks_seen_ = 0;
  uint64_t last_timer_raises_ = 0;
  bool crashed_ = false;
  uint64_t blocked_frame_bytes_ = 0;
  PanicHandler panic_handler_;
};

// ---------------------------------------------------------------------------
// Awaitable factories used by handlers. (SysCtx is a plain struct shared
// with ktask.h; these free functions keep handler code readable.)
// ---------------------------------------------------------------------------

// Wake bookkeeping shared by the kernel and the IPC engine: clears the block
// state, flags an interrupt-model restart, and requeues the thread.
void FinishWake(Kernel* k, Thread* t);

inline BlockAwaiter Block(SysCtx& c, WaitQueue* q) { return BlockAwaiter{&c, q}; }
inline WorkAwaiter Work(SysCtx& c, uint64_t cycles) { return WorkAwaiter{&c, cycles}; }
inline PreemptPointAwaiter PreemptPoint(SysCtx& c) { return PreemptPointAwaiter{&c}; }

inline UserRegisters& Regs(SysCtx& c) { return c.thread->regs; }

// Resolves a fault at `addr` in `space` on behalf of the current thread:
// soft faults are remedied inline (cost charged); hard faults are delivered
// to the space's keeper and the thread blocks until the remedy. Returns
// kOk when the caller should retry the access, or an error status when the
// fault is unservable. `side` attributes the fault for Table 3 when it
// occurs during an IPC transfer; `rollback_ns` is the virtual time of work
// since the last commit point that the fault discards (it will be redone).
KTask ResolveFault(SysCtx& ctx, Space* space, uint32_t addr, bool is_write, FaultSide side,
                   bool count_ipc, Time rollback_ns);

// Charges `cycles` of kernel work in preemptible quanta (FP).
KTask WorkChunked(SysCtx& ctx, uint64_t cycles);

// In FP configurations, models acquiring/releasing a blocking kernel lock
// around an object operation; free in NP/PP (which need no kernel locking).
class KLockGuard {
 public:
  explicit KLockGuard(SysCtx& ctx);
  ~KLockGuard();
  KLockGuard(const KLockGuard&) = delete;
  KLockGuard& operator=(const KLockGuard&) = delete;

  // Hands the hold to a frameless block (Kernel::CommitFastBlock), which
  // charges the release when the block ends. True if a lock was held.
  bool Release() {
    const bool held = charged_;
    charged_ = false;
    return held;
  }

 private:
  SysCtx& ctx_;
  bool charged_ = false;
};

}  // namespace fluke

#endif  // SRC_KERN_KERNEL_H_
