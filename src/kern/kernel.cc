#include "src/kern/kernel.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "src/base/log.h"
#include "src/kern/ipc.h"
#include "src/kern/syscall_table.h"

namespace fluke {

Kernel::Kernel(const KernelConfig& config, ProgramRegistry* program_registry)
    : cfg(config),
      rng(config.rng_seed),
      programs(program_registry),
      // Constructed at final size: Cpu is not movable (intrusive run-queue
      // links), and the array never grows.
      cpus_(static_cast<size_t>(std::max(config.num_cpus, 1))) {
  assert(cfg.Valid() && "invalid kernel configuration (KernelConfig::Validate)");
  cpu_ = cpus_.data();
  exec_cpu_ = cpu_;
  for (int i = 0; i < cfg.num_cpus; ++i) {
    cpus_[i].id = i;
  }
  interp_opts_.engine = cfg.interp_engine;
  interp_opts_.block_charges = &stats.interp_block_charges;
  interp_opts_.predecodes = &stats.interp_predecodes;
  interp_opts_.instructions = &stats.user_instructions;
  interp_opts_.jit_compiles = &stats.jit_compiles;
  interp_opts_.jit_block_entries = &stats.jit_block_entries;
  interp_opts_.jit_deopts = &stats.jit_deopts;
  interp_opts_.jit_bytes = &stats.jit_bytes;
  interp_opts_instr_ = interp_opts_;
  if (interp_opts_instr_.engine == InterpEngine::kJit) {
    interp_opts_instr_.engine = InterpEngine::kSwitch;
  }
  syscalls_by_num_ = SyscallsByNum();
  finj.Configure(cfg.fault_plan, &stats);
  timers.BindCascadeCounter(&stats.timer_cascades);
  if (cfg.fault_plan.enabled) {
    // Frame-allocation veto; left uninstalled otherwise so the disabled
    // path costs one null check in PhysMemory::Alloc.
    phys.SetAllocHook(&finj);
  }
  timer.Start(cfg.tick_ns);
}

bool Kernel::Panic(const char* what) {
  ++stats.panics;
  if (panic_handler_ && panic_handler_(what)) {
    return true;
  }
  std::fprintf(stderr, "kernel panic: %s\n", what);
  std::abort();
}

Kernel::~Kernel() {
  // Destroy retained kernel activations before the thread objects go away;
  // the objects themselves then die with their owners (kernel.h), while
  // `phys` is still alive.
  for (Thread* t : threads_) {
    SetFrameAccounting(this, t);
    t->op.Reset();
  }
  SetFrameAccounting(nullptr, nullptr);
}

// ---------------------------------------------------------------------------
// Setup API.
// ---------------------------------------------------------------------------

Space* Kernel::CreateSpace(const std::string& name) {
  Space* s = Own<Space>(NextObjId(), &phys);
  if (cfg.num_cpus > 1) {
    // Round-robin home assignment: each new space starts as its own
    // affinity domain.
    s->aff_home = next_space_home_;
    next_space_home_ = (next_space_home_ + 1) % cfg.num_cpus;
  }
  s->ConfigureTlb(cfg.enable_tlb, &stats);
  s->aff_members.push_back(s);
  s->set_name(name);
  spaces_.push_back(s);
  s->self_handle = s->Install(s);  // space_self
  return s;
}

// ---------------------------------------------------------------------------
// CPU affinity domains (epoch dispatcher).
// ---------------------------------------------------------------------------

Space* Kernel::AffinityRep(Space* s) {
  // Union-find with path compression along the aff_rep chain.
  Space* rep = s;
  while (rep->aff_rep != nullptr) {
    rep = rep->aff_rep;
  }
  while (s != rep) {
    Space* next = s->aff_rep;
    s->aff_rep = rep;
    s = next;
  }
  return rep;
}

int Kernel::HomeCpuOf(Space* s) {
  if (cfg.num_cpus <= 1 || s == nullptr) {
    return 0;
  }
  return AffinityRep(s)->aff_home;
}

bool Kernel::LendAllowed(Space* to, Space* from) {
  // Not under MP at all -- not even intra-domain. Lending costs the same
  // virtual time as copying, but it is not invisible: a lend's copy-on-write
  // break (the first write) allocates a frame, so enabling it under MP would
  // move frame ids and the lend/fault counters of every pinned MP result.
  (void)to;
  (void)from;
  return cfg.num_cpus <= 1;
}

void Kernel::MergeAffinity(Space* a, Space* b) {
  if (cfg.num_cpus <= 1) {
    return;
  }
  Space* ra = AffinityRep(a);
  Space* rb = AffinityRep(b);
  if (ra == rb) {
    return;
  }
  // Deterministic: the domain with the lower home id absorbs the other
  // (ties broken by object id, which is creation-ordered).
  if (rb->aff_home < ra->aff_home ||
      (rb->aff_home == ra->aff_home && rb->id() < ra->id())) {
    std::swap(ra, rb);
  }
  const int home = ra->aff_home;
  for (Space* s : rb->aff_members) {
    // Re-home the space: its cached translations conceptually lived on the
    // old CPU, so the move is a remote TLB shootdown -- flush for real --
    // and every thread follows; runnable threads physically move run queues
    // (migrations).
    s->TlbFlushAll();
    ++stats.shootdowns_remote;
    for (Thread* t : s->threads) {
      if (t->home_cpu == home) {
        continue;
      }
      if (t->rq_node.linked()) {
        cpus_[t->home_cpu].ready.Remove(t);
        cpus_[home].ready.PushBack(t);
      }
      t->home_cpu = home;
      ++stats.migrations;
    }
    ra->aff_members.push_back(s);
  }
  rb->aff_members.clear();
  rb->aff_members.shrink_to_fit();
  rb->aff_rep = ra;
}

Thread* Kernel::CreateThread(Space* space, ProgramRef program, int priority) {
  if (program == nullptr) {
    program = space->program;
  }
  Thread* t = thread_slab_.New(NextObjId(), space, std::move(program));
  ++stats.slab_thread_allocs;
  t->priority = priority;
  t->slice_ticks = cfg.timeslice_ticks;
  t->home_cpu = HomeCpuOf(space);
  t->ctx = SysCtx{this, t};
  threads_.push_back(t);
  space->threads.push_back(t);
  t->self_handle = space->Install(t);  // thread_self
  return t;
}

void Kernel::StartThread(Thread* t) {
  assert(t->run_state == ThreadRun::kEmbryo || t->run_state == ThreadRun::kStopped);
  MakeRunnable(t);
  t->wake_time = 0;  // thread startup is not a preemption-latency event
}

Mutex* Kernel::NewMutex() { return Own<Mutex>(NextObjId()); }

Cond* Kernel::NewCond() { return Own<Cond>(NextObjId()); }

Port* Kernel::NewPort(uint32_t badge) {
  Port* p = port_slab_.New(NextObjId());
  p->badge = badge;
  return p;
}

Portset* Kernel::NewPortset() { return Own<Portset>(NextObjId()); }

Region* Kernel::NewRegion(Space* source, uint32_t base, uint32_t size, uint32_t prot) {
  Region* r = Own<Region>(NextObjId());
  r->source = source;
  r->base = base;
  r->size = size;
  r->prot = prot;
  source->regions.push_back(r);
  return r;
}

Mapping* Kernel::NewMapping(Space* dest, uint32_t base, Region* src, uint32_t offset,
                            uint32_t size, uint32_t prot) {
  Mapping* m = Own<Mapping>(NextObjId());
  m->dest = dest;
  m->base = base;
  m->src = src;
  m->offset = offset;
  m->size = size;
  m->prot = prot;
  dest->AddMapping(m);
  if (src != nullptr && src->source != nullptr) {
    // The mapping lets `dest` derive PTEs from the source space's frames
    // (TryResolveSoft), so the two spaces can share physical pages: fold
    // them into one affinity domain before that can happen.
    MergeAffinity(dest, src->source);
  }
  return m;
}

Reference* Kernel::NewReference(KernelObject* target) {
  Reference* r = reference_slab_.New(NextObjId());
  r->target = target;
  return r;
}

// ---------------------------------------------------------------------------
// Scheduling primitives.
// ---------------------------------------------------------------------------

void Kernel::MakeRunnable(Thread* t) {
  assert(!t->rq_node.linked());
  ChargeFpLocks();  // run-queue lock
  t->run_state = ThreadRun::kRunnable;
  t->wake_time = clock.now();
  if (cfg.num_cpus > 1 && mp_running_ && t->home_cpu != exec_cpu_->id) {
    // A wakeup crossing CPUs (IPC handoff, join, interrupt...): the thread
    // lands on its home queue and runs when that CPU's turn comes -- this
    // epoch if the home CPU is later in the serial order, else the next.
    ++stats.cross_cpu_ipc;
  }
  cpu_[t->home_cpu].ready.PushBack(t);
}

// ---------------------------------------------------------------------------
// Timer firing: device events and thread timeouts, merged.
// ---------------------------------------------------------------------------

void Kernel::FireDueTimers(Time now) {
  for (;;) {
    TimerWheel::Entry* te = timers.PeekDue(now);
    const bool ev_due = !events.empty() && events.NextDeadline() <= now;
    if (te == nullptr && !ev_due) {
      return;
    }
    // Pop the global minimum by (deadline, seq). Seqs come from one shared
    // counter, so this reproduces the firing order of the single queue.
    bool wheel_first = te != nullptr;
    if (te != nullptr && ev_due) {
      wheel_first = events.NextDeadline() != te->when
                        ? te->when < events.NextDeadline()
                        : te->seq < events.NextSeq();
    }
    if (wheel_first) {
      timers.PopDue(now);
      Thread* t = te->thread;
      const uint64_t token = te->token;
      if (t->timer_entry == te) {
        t->timer_entry = nullptr;
      }
      timers.Free(te);
      // Same guard the old queue-closure used. With eager cancellation it
      // should always hold; kept as defense in depth.
      if (t->sleep_token == token && t->run_state == ThreadRun::kBlocked &&
          t->block_kind == BlockKind::kWaitQueue && t->waiting_on == nullptr) {
        CompleteBlockedOp(t, kFlukeOk);
      }
    } else {
      EventFn fn = events.PopTop();
      fn();
    }
  }
}

void Kernel::ArmSleepTimer(Thread* t, Time when, uint64_t token) {
  CancelSleepTimer(t);  // at most one armed timeout per thread
  t->timer_entry = timers.Arm(when, events.MintSeq(), t, token);
  ++stats.timer_arms;
}

void Kernel::SetLatencyProbe(Thread* t, bool enable) {
  if (t->latency_probe == enable) {
    return;
  }
  t->latency_probe = enable;
  if (enable) {
    latency_probes_.PushBack(t);
  } else if (t->probe_node.linked()) {
    latency_probes_.Remove(t);
  }
}

void Kernel::WakeOne(WaitQueue* q) {
  Thread* t = q->Dequeue();
  if (t != nullptr) {
    FinishWake(this, t);
  }
}

void Kernel::WakeAll(WaitQueue* q) {
  while (!q->empty()) {
    WakeOne(q);
  }
}

// ---------------------------------------------------------------------------
// Trace-span helpers. All of these are no-ops while tracing is off: the
// span-id fields are only ever set nonzero by an enabled trace buffer, and
// the enabled() checks guard the instant fallbacks. Tracing forces the
// instrumented dispatch loop, so none of this is reachable from the
// zero-cost disarmed path anyway (see dispatch.cc).
// ---------------------------------------------------------------------------

void Kernel::TraceFlowTo(Thread* woken) {
  if (!trace.enabled()) {
    return;
  }
  Thread* from = exec_cpu_->current;
  if (from == nullptr || from == woken) {
    return;  // device/timer wake: no causing thread to link from
  }
  // Flag cross-CPU wakes (the MakeRunnable condition): the request-path
  // analyzer classifies the woken side's residual wait as a cross-CPU hop
  // rather than run-queue queueing when this is set.
  const uint32_t xcpu =
      cfg.num_cpus > 1 && mp_running_ && woken->home_cpu != exec_cpu_->id ? 1u : 0u;
  trace.Flow(clock.now(), from->id(), woken->id(), xcpu);
}

void Kernel::TraceEndSysSpan(Thread* t, uint32_t sys, uint32_t result) {
  if (t->trace_sys_span != 0) {
    trace.EndSpan(clock.now(), TraceKind::kSyscallExit, t->trace_sys_span, t->id(), sys, result);
    if (sys < kSysCount) {
      stats.sys_time_hist[sys].Add(clock.now() - t->trace_sys_t0);
    }
    t->trace_sys_span = 0;
  } else if (trace.enabled() && result != 0xFFFFFFFFu) {
    // Tracing came on mid-operation: keep the exit visible as an instant.
    trace.Record(clock.now(), TraceKind::kSyscallExit, t->id(), sys, result);
  }
}

void Kernel::TraceEndBlockSpan(Thread* t, uint32_t how) {
  if (t->trace_block_span != 0) {
    trace.EndSpan(clock.now(), TraceKind::kWake, t->trace_block_span, t->id(), t->op_sys, how);
    if (how == 0) {
      stats.block_hist.Add(clock.now() - t->trace_block_t0);
    }
    t->trace_block_span = 0;
  } else if (trace.enabled() && how == 0) {
    trace.Record(clock.now(), TraceKind::kWake, t->id());
  }
}

void Kernel::TraceEndRemedySpan(Thread* t, uint32_t how) {
  if (t->trace_remedy_span != 0) {
    trace.EndSpan(clock.now(), TraceKind::kFaultRemedy, t->trace_remedy_span, t->id(),
                  t->fault_addr, how);
    t->trace_remedy_span = 0;
  }
}

void Kernel::CompleteBlockedOp(Thread* t, uint32_t err) {
  if (trace.enabled()) {
    TraceFlowTo(t);
    TraceEndBlockSpan(t, 0);
    TraceEndSysSpan(t, t->op_sys, err);
  }
  CancelOpQueuesOnly(t, /*counts_as_restart=*/false);
  Finish(t, err);
  MakeRunnable(t);
}

// Shared wake bookkeeping (free function so ipc.cc can reuse it).
void FinishWake(Kernel* k, Thread* t) {
  if (t->frameless_block) {
    // A frameless block has no frame to resume: only a completion or a
    // cancel may end it. Waking it would re-enter the syscall from its
    // registers and charge syscall_entry twice, so a call whose wait a wake
    // can end must stay on the coroutine route. Recoverable: roll the
    // operation back to its restart point.
    k->Panic("frameless block resumed");
    k->CancelOpQueuesOnly(t);
  }
  if (k->trace.enabled()) {
    k->TraceFlowTo(t);
    k->TraceEndBlockSpan(t, 0);
  }
  t->block_kind = BlockKind::kNone;
  if (k->cfg.model == ExecModel::kInterrupt && !t->op.valid()) {
    // The frame was destroyed at block time; the restart entrypoint in the
    // thread's registers will re-enter the syscall.
    t->restart_pending = true;
  }
  k->Charge(k->costs.wake);
  k->MakeRunnable(t);
}

bool Kernel::PreemptPending(const Thread* t) const {
  return exec_cpu_->ready.AnyAbove(t->priority);
}

void Kernel::CancelOp(Thread* t) {
  if (t->run_state == ThreadRun::kRunning) {
    // On-CPU state lives in machine registers; there is nothing coherent to
    // roll back from outside. Recoverable: the caller's operation simply
    // does not happen.
    Panic("cancel of a thread on-CPU");
    return;
  }
  if (t->waiting_on != nullptr) {
    t->waiting_on->Remove(t);
  }
  if (t->queued_on_port != nullptr) {
    t->queued_on_port->waiting_clients.Remove(t);
    t->queued_on_port = nullptr;
  }
  CancelOpQueuesOnly(t);
}

// ---------------------------------------------------------------------------
// Thread state export (the atomic API's promptness + correctness).
// ---------------------------------------------------------------------------

bool Kernel::GetThreadState(Thread* t, ThreadState* out) const {
  if (t->run_state == ThreadRun::kRunning) {
    // Only reachable from host code on an MP configuration; a thread never
    // examines itself through this path.
    return false;
  }
  // A thread that is not running is always at a commit point: handlers
  // commit a consistent restart state to the registers before every block.
  // Extraction is therefore prompt (no waiting) and correct (the registers
  // fully describe the suspended computation).
  out->regs = t->regs;
  out->priority = static_cast<uint32_t>(t->priority);
  return true;
}

bool Kernel::SetThreadState(Thread* t, const ThreadState& s) {
  if (t->run_state == ThreadRun::kRunning || t->run_state == ThreadRun::kDead) {
    return false;
  }
  if (s.priority > 7) {
    return false;
  }
  if (t->run_state == ThreadRun::kBlocked) {
    // Transparent rollback: the operation's restart point is already in the
    // registers we are about to replace.
    CancelOp(t);
    t->run_state = ThreadRun::kStopped;
  } else if (t->run_state == ThreadRun::kRunnable) {
    cpu_[t->home_cpu].ready.Remove(t);
    // An FP-preempted thread may hold a retained kernel activation; roll it
    // back (its registers are at the last commit point).
    CancelOpQueuesOnly(t);
    t->run_state = ThreadRun::kStopped;
  }
  t->regs = s.regs;
  const int new_prio = static_cast<int>(s.priority);
  t->priority = new_prio;
  return true;
}

void Kernel::InterruptThread(Thread* t) {
  if (t->run_state != ThreadRun::kBlocked) {
    return;  // nothing to interrupt; trivial/short ops are atomic
  }
  CancelOp(t);
  // The interrupted operation completes with an error rather than silently
  // restarting: registers are at the restart point, so just finish there.
  Finish(t, kFlukeErrInterrupted);
  MakeRunnable(t);
}

KStatus Kernel::StopThread(Thread* t) {
  switch (t->run_state) {
    case ThreadRun::kRunnable:
      cpu_[t->home_cpu].ready.Remove(t);
      CancelOpQueuesOnly(t);  // roll back any FP-preempted activation
      t->run_state = ThreadRun::kStopped;
      break;
    case ThreadRun::kBlocked:
      CancelOp(t);
      t->run_state = ThreadRun::kStopped;
      break;
    case ThreadRun::kEmbryo:
    case ThreadRun::kStopped:
    case ThreadRun::kDead:
      break;
    case ThreadRun::kRunning:
      Panic("stop of a thread on-CPU");
      return KStatus::kBadArgument;
  }
  return KStatus::kOk;
}

void Kernel::ResumeThread(Thread* t) {
  if (t->run_state == ThreadRun::kStopped || t->run_state == ThreadRun::kEmbryo) {
    MakeRunnable(t);
  }
}

// Forced extract-destroy-recreate at a dispatch boundary (the atomicity
// audit's injection). The successor must be indistinguishable from the
// original for everything the golden run can observe: registers, handle
// slot, schedule position, pending-restart flag, probe/latency bookkeeping,
// and virtual time (this function charges nothing).
Thread* Kernel::RecreateThreadForAudit(Thread* t) {
  Space* sp = t->space;
  ProgramRef prog = t->program;
  const Handle old_h = t->self_handle;
  const int prio = t->priority;
  const bool was_probe = t->latency_probe;
  const bool was_legacy = t->legacy;
  const Time wake = t->wake_time;
  const uint32_t slice = t->slice_ticks;
  const uint32_t oom = t->oom_retries;
  Cpu& cpu = *exec_cpu_;
  const bool was_last = cpu.last == t;

  ThreadState st;
  if (!GetThreadState(t, &st)) {
    Panic("audit extraction of a thread on-CPU");
    return t;
  }
  // An FP-preempted runnable may hold a retained kernel activation; rolling
  // it back is the legal (restart-counting) path. A thread with no retained
  // op is between operations: recreation must be fully transparent, so its
  // restart flag is preserved as-is.
  if (t->op.valid()) {
    CancelOpQueuesOnly(t);
  }
  const bool restart = t->restart_pending;

  // The thread was just popped by PickNext: runnable but unlinked. Mark it
  // stopped so DestroyThread does not try to unlink it again.
  t->run_state = ThreadRun::kStopped;
  sp->Uninstall(old_h);  // free the self slot; Install reuses it (LIFO)
  DestroyThread(t);

  Thread* nt = CreateThread(sp, std::move(prog), prio);
  assert(nt->self_handle == old_h && "recreated thread must reuse the self slot");
  nt->regs = st.regs;
  nt->slice_ticks = slice;
  nt->wake_time = wake;
  nt->legacy = was_legacy;
  nt->restart_pending = restart;
  nt->oom_retries = oom;
  nt->forced_restart = true;
  nt->run_state = ThreadRun::kRunnable;
  if (was_probe) {
    SetLatencyProbe(nt, true);
  }
  if (was_last) {
    // The dispatcher is about to run the successor in the old thread's
    // place; it must not be charged a context switch the golden run did
    // not pay.
    cpu.last = nt;
  }
  ++stats.extractions_forced;
  return nt;
}

void Kernel::ThreadExit(Thread* t, uint32_t code) {
  TraceEndBlockSpan(t, 2);
  TraceEndRemedySpan(t, 5);
  TraceEndSysSpan(t, t->op_sys, 0xFFFFFFFFu);
  trace.Record(clock.now(), TraceKind::kThreadExit, t->id(), code);
  CancelSleepTimer(t);  // a dead thread must leave nothing on the wheel
  t->exit_code = code;
  DetachFromIpc(t);
  if (t->join_wait != nullptr) {
    WakeAll(t->join_wait.get());
  }
  t->run_state = ThreadRun::kDead;
  if (t->probe_node.linked()) {
    latency_probes_.Remove(t);
  }
  t->MarkDead();
}

void Kernel::DestroyThread(Thread* t) {
  if (t->run_state == ThreadRun::kDead) {
    return;
  }
  switch (t->run_state) {
    case ThreadRun::kRunnable:
      cpu_[t->home_cpu].ready.Remove(t);
      CancelOpQueuesOnly(t);
      break;
    case ThreadRun::kBlocked:
      CancelOp(t);
      break;
    default:
      break;
  }
  ThreadExit(t, 0);
}

void Kernel::DetachFromIpc(Thread* t) {
  if (t->queued_on_port != nullptr) {
    t->queued_on_port->waiting_clients.Remove(t);
    t->queued_on_port = nullptr;
  }
  if (t->ipc_peer != nullptr) {
    Thread* peer = t->ipc_peer;
    peer->ipc_peer = nullptr;
    t->ipc_peer = nullptr;
    // A peer blocked mid-IPC sees the connection die.
    if (peer->run_state == ThreadRun::kBlocked &&
        (peer->block_kind == BlockKind::kIpcWait ||
         peer->block_kind == BlockKind::kWaitQueue) &&
        IpcStance(peer) != IpcStance_kNone) {
      CancelOp(peer);
      Finish(peer, kFlukeErrDisconnected);
      MakeRunnable(peer);
    }
  }
  if (t->exception_victim != nullptr) {
    // A manager died while holding a fault: the victim can never be
    // remedied; fail it.
    Thread* v = t->exception_victim;
    t->exception_victim = nullptr;
    if (v->run_state == ThreadRun::kBlocked && v->block_kind == BlockKind::kFaultWait) {
      TraceEndRemedySpan(v, 3);  // keeper died: remedy failed
      TraceEndBlockSpan(v, 1);
      TraceEndSysSpan(v, v->op_sys, kFlukeErrNoPager);
      v->block_kind = BlockKind::kNone;
      Finish(v, kFlukeErrNoPager);
      MakeRunnable(v);
    }
  }
}

void Kernel::DestroyObject(KernelObject* obj) {
  if (!obj->alive()) {
    return;
  }
  switch (obj->type()) {
    case ObjType::kThread:
      DestroyThread(static_cast<Thread*>(obj));
      return;  // DestroyThread marks dead
    case ObjType::kMutex: {
      auto* m = static_cast<Mutex*>(obj);
      while (!m->waiters.empty()) {
        Thread* t = m->waiters.Dequeue();
        CancelOpQueuesOnly(t);
        Finish(t, kFlukeErrDead);
        MakeRunnable(t);
      }
      break;
    }
    case ObjType::kCond: {
      auto* c = static_cast<Cond*>(obj);
      while (!c->waiters.empty()) {
        Thread* t = c->waiters.Dequeue();
        CancelOpQueuesOnly(t);
        // The committed restart point is mutex_lock; waking the thread sends
        // it there -- a (legal) spurious wakeup.
        MakeRunnable(t);
        if (cfg.model == ExecModel::kInterrupt && !t->op.valid()) {
          t->restart_pending = true;
        }
      }
      break;
    }
    case ObjType::kPort: {
      auto* p = static_cast<Port*>(obj);
      while (!p->servers.empty()) {
        Thread* t = p->servers.Dequeue();
        CancelOpQueuesOnly(t);
        Finish(t, kFlukeErrDead);
        MakeRunnable(t);
      }
      while (Thread* c = p->waiting_clients.PopFront()) {
        c->queued_on_port = nullptr;
        CancelOpQueuesOnly(c);
        Finish(c, kFlukeErrDead);
        MakeRunnable(c);
      }
      if (p->member_of != nullptr) {
        auto& v = p->member_of->ports;
        for (size_t i = 0; i < v.size(); ++i) {
          if (v[i] == p) {
            v.erase(v.begin() + i);
            break;
          }
        }
        p->member_of = nullptr;
      }
      break;
    }
    case ObjType::kPortset: {
      auto* ps = static_cast<Portset*>(obj);
      while (!ps->servers.empty()) {
        Thread* t = ps->servers.Dequeue();
        CancelOpQueuesOnly(t);
        Finish(t, kFlukeErrDead);
        MakeRunnable(t);
      }
      for (Port* p : ps->ports) {
        p->member_of = nullptr;
      }
      ps->ports.clear();
      break;
    }
    case ObjType::kMapping: {
      auto* m = static_cast<Mapping*>(obj);
      if (m->dest != nullptr) {
        m->dest->RemoveMapping(m);
      }
      break;
    }
    case ObjType::kRegion: {
      auto* r = static_cast<Region*>(obj);
      if (r->source != nullptr) {
        auto& v = r->source->regions;
        for (size_t i = 0; i < v.size(); ++i) {
          if (v[i] == r) {
            v.erase(v.begin() + i);
            break;
          }
        }
      }
      break;
    }
    case ObjType::kReference:
    case ObjType::kSpace:
      break;
  }
  obj->MarkDead();
}

// Cancels a thread's retained frame without touching wait queues (the caller
// already dequeued it).
void Kernel::CancelOpQueuesOnly(Thread* t, bool counts_as_restart) {
  // Rollback closes the open spans innermost-first (block, remedy, then the
  // syscall lifetime with the "cancelled" sentinel result; no-ops when the
  // caller -- e.g. CompleteBlockedOp -- already closed them with real
  // results); a restarted op opens a fresh restart-epoch span at its next
  // entry.
  TraceEndBlockSpan(t, 1);
  TraceEndRemedySpan(t, 1);
  TraceEndSysSpan(t, t->op_sys, 0xFFFFFFFFu);
  CancelSleepTimer(t);  // a cancelled sleep frees its wheel entry now
  UncountBlockedBytes(t);
  if (t->op.valid()) {
    // `t` is usually NOT the running thread here (peer completion, external
    // cancellation): attribute the frame destruction to `t`, then restore
    // the running handler's attribution so its own frame events that follow
    // this call are not charged to the cancelled thread.
    Kernel* saved_k = nullptr;
    Thread* saved_t = nullptr;
    GetFrameAccounting(&saved_k, &saved_t);
    SetFrameAccounting(this, t);
    t->op.Reset();
    SetFrameAccounting(saved_k, saved_t);
  } else if (t->frameless_block) {
    // Frameless block: no real frame, but the synthetic kstack bytes are
    // live (Table 7), and the engine frame it stands for may hold an FP
    // lock; release both exactly as op.Reset() would have.
    AccountFrameFree(t, t->kstack_bytes);
    if (t->frameless_lock) {
      Charge(costs.fp_unlock);  // ~KLockGuard
    }
  }
  t->frameless_block = false;
  t->frameless_lock = false;
  t->resume_point = {};
  t->block_kind = BlockKind::kNone;
  if (counts_as_restart) {
    t->restart_pending = true;
  }
}

void Kernel::CommitFastBlock(Thread* t, BlockKind kind, std::initializer_list<size_t> frames,
                             KLockGuard* lock) {
  // BlockAwaiter's half.
  Charge(costs.wait_enqueue);
  ChargeFpLocks();  // wait-queue lock
  t->op_status = KStatus::kBlocked;
  t->run_state = ThreadRun::kBlocked;
  t->block_kind = kind;
  // HandleOpOutcome's kBlocked arm (the dispatcher opens the block span).
  if (cfg.model == ExecModel::kInterrupt) {
    for (const size_t bytes : frames) {
      AccountFrameFree(t, bytes);  // op.Reset(): innermost frame first
    }
    return;  // no FP in this model: the lock, if any, charged nothing
  }
  blocked_frame_bytes_ += t->kstack_bytes;
  t->blocked_bytes_counted = true;
  if (blocked_frame_bytes_ > stats.blocked_frame_bytes_peak) {
    stats.blocked_frame_bytes_peak = blocked_frame_bytes_;
  }
  t->frameless_block = true;
  t->frameless_lock = lock != nullptr && lock->Release();
}

// ---------------------------------------------------------------------------
// Kernel-message delivery (exception IPC, oneway sends).
// ---------------------------------------------------------------------------

void Kernel::DeliverKernelMsg(Port* port, const KernelMsg& msg) {
  port->kmsgs.push_back(msg);
  WakeServer(port);
  WakeAll(&port->pollers);
  if (port->member_of != nullptr) {
    WakeAll(&port->member_of->pollers);
  }
}

Thread* Kernel::WakeServer(Port* port) {
  Thread* t = port->servers.Dequeue();
  if (t == nullptr && port->member_of != nullptr) {
    t = port->member_of->servers.Dequeue();
  }
  if (t != nullptr) {
    FinishWake(this, t);
  }
  return t;
}

void Kernel::CompleteFaultWait(Thread* victim) {
  if (victim->run_state != ThreadRun::kBlocked || victim->block_kind != BlockKind::kFaultWait) {
    return;  // victim was interrupted/destroyed meanwhile
  }
  // Hard-fault remedy accounting (Table 3): delivery -> reply duration.
  const Time remedy = clock.now() - victim->fault_deliver_time;
  stats.remedy_hard_ns += remedy;
  if (victim->fault_count_ipc) {
    auto& fc = stats.ipc_faults[victim->fault_side][kFaultKindHard];
    ++fc.count;
    fc.remedy_ns += remedy;
  }
  victim->fault_count_ipc = false;
  TraceEndRemedySpan(victim, 2);  // hard-fault remedy: delivery -> reply
  if (victim->fault_from_exception_send) {
    // A user-initiated exception IPC completes when the keeper replies;
    // restarting it would re-send the exception.
    victim->fault_from_exception_send = false;
    if (trace.enabled()) {
      TraceFlowTo(victim);
      TraceEndBlockSpan(victim, 0);
      TraceEndSysSpan(victim, victim->op_sys, kFlukeOk);
    }
    CancelOpQueuesOnly(victim, /*counts_as_restart=*/false);
    Finish(victim, kFlukeOk);
    MakeRunnable(victim);
    return;
  }
  FinishWake(this, victim);
}

// ---------------------------------------------------------------------------
// Run control.
// ---------------------------------------------------------------------------

size_t Kernel::AliveThreads() const {
  size_t n = 0;
  for (const Thread* t : threads_) {
    if (t->run_state != ThreadRun::kDead) {
      ++n;
    }
  }
  return n;
}

bool Kernel::AnyRunnable() const {
  for (const Cpu& c : cpus_) {
    if (c.ready.Any()) {
      return true;
    }
  }
  return false;
}

bool Kernel::RunUntilThreadDone(Thread* t, Time max_time) {
  const Time deadline = clock.now() + max_time;
  while (clock.now() < deadline) {
    if (t->run_state == ThreadRun::kDead || t->run_state == ThreadRun::kStopped) {
      return true;
    }
    if (crashed_) {
      return false;  // Run() no longer advances the clock
    }
    Run(std::min(deadline, clock.now() + 10 * kNsPerMs));
  }
  return t->run_state == ThreadRun::kDead || t->run_state == ThreadRun::kStopped;
}

bool Kernel::RunUntilQuiescent(Time max_time) {
  const Time deadline = clock.now() + max_time;
  while (clock.now() < deadline) {
    bool busy = AnyRunnable();
    if (!busy) {
      for (const Thread* t : threads_) {
        if (t->run_state == ThreadRun::kBlocked) {
          busy = true;
          break;
        }
      }
    }
    if (!busy) {
      return true;
    }
    if (crashed_) {
      return false;  // Run() no longer advances the clock
    }
    Run(std::min(deadline, clock.now() + 10 * kNsPerMs));
  }
  // Quiesced exactly at the deadline?
  if (AnyRunnable()) {
    return false;
  }
  for (const Thread* t : threads_) {
    if (t->run_state == ThreadRun::kBlocked) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// FP kernel locking.
// ---------------------------------------------------------------------------

KLockGuard::KLockGuard(SysCtx& ctx) : ctx_(ctx) {
  Kernel* k = ctx_.kernel;
  if (k->cfg.preempt == PreemptMode::kFull) {
    k->Charge(k->costs.fp_lock);
    charged_ = true;
  }
}

KLockGuard::~KLockGuard() {
  if (charged_) {
    Kernel* k = ctx_.kernel;
    k->Charge(k->costs.fp_unlock);
  }
}

// ---------------------------------------------------------------------------
// Fault resolution on behalf of a syscall (IPC copies, state buffers...).
// ---------------------------------------------------------------------------

KTask ResolveFault(SysCtx& ctx, Space* space, uint32_t addr, bool is_write, FaultSide side,
                   bool count_ipc, Time rollback_ns) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  ++k.stats.syscall_faults;
  k.Charge(k.costs.fault_enter);
  k.ChargeFpLocks(2);  // pmap + mapping-hierarchy locks
  const Time t0 = k.clock.now();
  k.stats.rollback_ns += rollback_ns;
  k.TraceEndRemedySpan(t, 1);  // defensive: no remedy span should be open
  t->trace_remedy_span = k.trace.BeginSpan(t0, TraceKind::kFaultRemedy, t->id(), addr, is_write);

  SoftFaultResult r = space->TryResolveSoft(addr, is_write);
  // Transient frame exhaustion (injected or a genuinely full pool) is not
  // an error yet: back off a bounded number of times and retry the resolve.
  for (uint32_t tries = 0; !r.resolved && r.out_of_frames && tries < kOomRetryLimit; ++tries) {
    ++k.stats.oom_backoffs;
    co_await Work(ctx, k.costs.oom_backoff);
    r = space->TryResolveSoft(addr, is_write);
  }
  if (r.resolved) {
    uint64_t cost = k.costs.soft_fault_walk_per_level * static_cast<uint64_t>(r.levels_walked + 1) +
                    k.costs.pte_install;
    if (r.zero_filled) {
      cost += k.costs.zero_fill;
    }
    co_await Work(ctx, cost);
    ++k.stats.soft_faults;
    const Time remedy = k.clock.now() - t0;
    k.stats.remedy_soft_ns += remedy;
    if (count_ipc) {
      auto& fc = k.stats.ipc_faults[side][kFaultKindSoft];
      ++fc.count;
      fc.remedy_ns += remedy;
      fc.rollback_ns += rollback_ns;
    }
    if (t->trace_remedy_span != 0) {
      k.trace.EndSpan(k.clock.now(), TraceKind::kFaultRemedy, t->trace_remedy_span, t->id(), addr,
                      0);  // soft-resolved
      t->trace_remedy_span = 0;
    }
    co_return KStatus::kOk;
  }

  if (space->keeper == nullptr || !space->keeper->alive()) {
    if (t->trace_remedy_span != 0) {
      k.trace.EndSpan(k.clock.now(), TraceKind::kFaultRemedy, t->trace_remedy_span, t->id(), addr,
                      r.out_of_frames ? 4u : 3u);  // unservable
      t->trace_remedy_span = 0;
    }
    co_return r.out_of_frames ? KStatus::kNoMemory : KStatus::kNoPager;
  }
  if (count_ipc) {
    // Hard-fault remedy time is metered at reply (CompleteFaultWait); the
    // rollback is known now.
    k.stats.ipc_faults[side][kFaultKindHard].rollback_ns += rollback_ns;
  }

  ++k.stats.hard_faults;
  k.Charge(k.costs.fault_msg_build);
  KernelMsg msg;
  msg.words[kFaultMsgKind] = kFaultKindPage;
  msg.words[kFaultMsgThread] = static_cast<uint32_t>(t->id());
  msg.words[kFaultMsgAddr] = addr;
  msg.words[kFaultMsgWrite] = is_write ? 1u : 0u;
  msg.len = kFaultMsgWords;
  msg.victim = t;
  msg.badge = space->keeper->badge;

  t->fault_addr = addr;
  t->fault_write = is_write;
  t->fault_side = side;
  t->fault_count_ipc = count_ipc;
  t->fault_deliver_time = k.clock.now();
  t->block_kind = BlockKind::kFaultWait;
  k.DeliverKernelMsg(space->keeper, msg);

  co_await Block(ctx, nullptr);
  // Process model resumes here once the keeper replies (the interrupt model
  // destroyed this frame and will restart the whole operation instead).
  co_return KStatus::kOk;
}

KTask WorkChunked(SysCtx& ctx, uint64_t cycles) {
  Kernel& k = *ctx.kernel;
  const uint64_t quantum = k.costs.fp_quantum;
  while (cycles > 0) {
    const uint64_t step = cycles < quantum ? cycles : quantum;
    co_await Work(ctx, step);
    cycles -= step;
  }
  co_return KStatus::kOk;
}

}  // namespace fluke
