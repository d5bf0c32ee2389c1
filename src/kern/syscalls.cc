// Handlers for the trivial, short and long syscalls, plus the two non-IPC
// multi-stage calls (cond_wait, region_search).
//
// Register conventions (see src/api/abi.h): entrypoint in A; arguments in
// B, C, D, SI, DI; result code in A; secondary result in B.
//
// Commit discipline: before any await that can suspend, the registers hold
// a consistent restart point. Short calls restart from scratch (they are
// idempotent up to their single side effect, which is performed at the
// end); cond_wait commits its registers to mutex_lock before sleeping
// (paper section 4.3); region_search advances its (addr, len) parameters
// as it scans.

#include <algorithm>
#include <cassert>

#include "src/kern/ipc.h"
#include "src/kern/kernel.h"
#include "src/kern/syscall_table.h"

namespace fluke {

namespace {

uint32_t& RegA(SysCtx& c) { return c.thread->regs.gpr[kRegA]; }
uint32_t& RegB(SysCtx& c) { return c.thread->regs.gpr[kRegB]; }
uint32_t& RegC(SysCtx& c) { return c.thread->regs.gpr[kRegC]; }
uint32_t& RegD(SysCtx& c) { return c.thread->regs.gpr[kRegD]; }
uint32_t& RegSI(SysCtx& c) { return c.thread->regs.gpr[kRegSI]; }
uint32_t& RegDI(SysCtx& c) { return c.thread->regs.gpr[kRegDI]; }

// Reads/writes a word array in the caller's space, resolving faults
// (restartable: the whole short syscall re-runs after a hard fault).
KTask ReadUserWords(SysCtx& ctx, uint32_t addr, uint32_t* out, uint32_t n) {
  Thread* t = ctx.thread;
  for (uint32_t i = 0; i < n;) {
    uint32_t fa = 0;
    if (t->space->ReadWord(addr + 4 * i, &out[i], &fa)) {
      ++i;
      continue;
    }
    KStatus s = co_await ResolveFault(ctx, t->space, fa, /*is_write=*/false, kFaultSideClient,
                                      /*count_ipc=*/false, 0);
    if (s != KStatus::kOk) {
      co_return s;
    }
  }
  co_return KStatus::kOk;
}

KTask WriteUserWords(SysCtx& ctx, uint32_t addr, const uint32_t* in, uint32_t n) {
  Thread* t = ctx.thread;
  for (uint32_t i = 0; i < n;) {
    uint32_t fa = 0;
    if (t->space->WriteWord(addr + 4 * i, in[i], &fa)) {
      ++i;
      continue;
    }
    KStatus s = co_await ResolveFault(ctx, t->space, fa, /*is_write=*/true, kFaultSideClient,
                                      /*count_ipc=*/false, 0);
    if (s != KStatus::kOk) {
      co_return s;
    }
  }
  co_return KStatus::kOk;
}

}  // namespace

// ---------------------------------------------------------------------------
// Trivial syscalls: run to completion, never block, never fault.
// ---------------------------------------------------------------------------

KTask SysNull(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.Finish(ctx.thread, kFlukeOk);
  co_return KStatus::kOk;
}

KTask SysThreadSelf(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, ctx.thread->self_handle);
  co_return KStatus::kOk;
}

KTask SysSpaceSelf(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, ctx.thread->space->self_handle);
  co_return KStatus::kOk;
}

KTask SysClockGet(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, static_cast<uint32_t>(k.clock.now() / kNsPerUs));
  co_return KStatus::kOk;
}

KTask SysCpuId(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, static_cast<uint32_t>(ctx.thread->home_cpu));
  co_return KStatus::kOk;
}

KTask SysPageSize(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, kPageSize);
  co_return KStatus::kOk;
}

KTask SysApiVersion(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, 19990222);  // OSDI '99
  co_return KStatus::kOk;
}

KTask SysRandomGet(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.trivial_body);
  k.FinishWith(ctx.thread, kFlukeOk, k.rng.Next32());
  co_return KStatus::kOk;
}

// Frameless twin of the eight trivial handlers above: the same register
// effects and the same trivial_body charge (the dispatcher charges entry and
// exit), with the handler's frame accounted synthetically so Table 7 stays
// bit-identical. Safe in every configuration: trivial handlers never block,
// never fault and take no locks.
bool FastTrivial(Kernel& k, Thread* t, const SyscallDef& def) {
  assert(def.cat == SysCat::kTrivial && "wired to the trivial calls only");
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = def.handler(ctx)
  k.Charge(k.costs.trivial_body);
  switch (def.num) {
    case kSysNull:
      k.Finish(t, kFlukeOk);
      break;
    case kSysThreadSelf:
      k.FinishWith(t, kFlukeOk, t->self_handle);
      break;
    case kSysSpaceSelf:
      k.FinishWith(t, kFlukeOk, t->space->self_handle);
      break;
    case kSysClockGet:
      k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(k.clock.now() / kNsPerUs));
      break;
    case kSysCpuId:
      k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(t->home_cpu));
      break;
    case kSysPageSize:
      k.FinishWith(t, kFlukeOk, kPageSize);
      break;
    case kSysApiVersion:
      k.FinishWith(t, kFlukeOk, 19990222);
      break;
    case kSysRandomGet:
      k.FinishWith(t, kFlukeOk, k.rng.Next32());
      break;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Common object operations (54 short syscalls; the object type arrives via
// the table's aux field in op_aux).
// ---------------------------------------------------------------------------

namespace {

KernelObject* LookupTyped(SysCtx& ctx, Handle h, ObjType want) {
  KernelObject* o = ctx.thread->space->Lookup(h);
  if (o == nullptr || o->type() != want) {
    return nullptr;
  }
  return o;
}

}  // namespace

// create() -> B = handle. thread_create takes B = space handle.
KTask SysObjCreate(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.object_create);
  if (k.finj.FailHandleAlloc()) {
    // Injected handle-table allocation failure: clean retryable error
    // before any object is constructed.
    k.Finish(t, kFlukeErrNoMemory);
    co_return KStatus::kOk;
  }
  const auto type = static_cast<ObjType>(t->op_aux);
  KernelObject* obj = nullptr;
  switch (type) {
    case ObjType::kMutex:
      obj = k.NewMutex();
      break;
    case ObjType::kCond:
      obj = k.NewCond();
      break;
    case ObjType::kPort:
      obj = k.NewPort(/*badge=*/RegC(ctx));
      break;
    case ObjType::kPortset:
      obj = k.NewPortset();
      break;
    case ObjType::kReference:
      obj = k.NewReference(nullptr);
      break;
    case ObjType::kRegion: {
      // region_create(C=base, D=size, SI=prot) over the caller's space.
      obj = k.NewRegion(t->space, RegC(ctx), RegD(ctx), RegSI(ctx) & kProtReadWrite);
      break;
    }
    case ObjType::kMapping: {
      // mapping_create(B=destination space handle, C=dst base, D=size,
      //                SI=region handle, DI=(offset_pages << 2) | prot).
      // Both handles resolve in the caller's space, so a manager can import
      // memory into a child space it holds a handle to.
      auto* sp = static_cast<Space*>(LookupTyped(ctx, RegB(ctx), ObjType::kSpace));
      auto* r = static_cast<Region*>(LookupTyped(ctx, RegSI(ctx), ObjType::kRegion));
      if (sp == nullptr || r == nullptr) {
        k.Finish(t, kFlukeErrBadHandle);
        co_return KStatus::kOk;
      }
      const uint32_t offset = (RegDI(ctx) >> 2) << kPageShift;
      obj = k.NewMapping(sp, RegC(ctx), r, offset, RegD(ctx), RegDI(ctx) & kProtReadWrite);
      break;
    }
    case ObjType::kSpace:
      obj = k.CreateSpace("user-space");
      break;
    case ObjType::kThread: {
      // thread_create(B = space handle) -> embryo thread in that space.
      auto* sp = static_cast<Space*>(LookupTyped(ctx, RegB(ctx), ObjType::kSpace));
      if (sp == nullptr) {
        k.Finish(t, kFlukeErrBadHandle);
        co_return KStatus::kOk;
      }
      Thread* nt = k.CreateThread(sp);
      // Hand the creator a handle too (distinct from nt->self_handle).
      const Handle h = t->space->Install(nt);
      k.FinishWith(t, kFlukeOk, h);
      co_return KStatus::kOk;
    }
  }
  const Handle h = t->space->Install(obj);
  k.FinishWith(t, kFlukeOk, h);
  co_return KStatus::kOk;
}

// destroy(B = handle).
KTask SysObjDestroy(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.object_destroy);
  KernelObject* o = LookupTyped(ctx, RegB(ctx), static_cast<ObjType>(t->op_aux));
  if (o == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.DestroyObject(o);
  t->space->Uninstall(RegB(ctx));
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// rename(B = handle, C = numeric tag): names the object "obj-<C>".
KTask SysObjRename(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  KernelObject* o = LookupTyped(ctx, RegB(ctx), static_cast<ObjType>(t->op_aux));
  if (o == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  o->set_name("obj-" + std::to_string(RegC(ctx)));
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// reference(B = target handle, C = reference handle): points C at B
// ("point-a-reference-at", e.g. port_reference in the paper 4.3).
KTask SysObjReference(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  KernelObject* target = LookupTyped(ctx, RegB(ctx), static_cast<ObjType>(t->op_aux));
  KernelObject* refobj = t->space->Lookup(RegC(ctx));
  if (target == nullptr || refobj == nullptr || refobj->type() != ObjType::kReference) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  static_cast<Reference*>(refobj)->target = target;
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

namespace {

// Type-specific state serialization. Returns the word count (<= 16).
uint32_t SerializeState(Kernel& k, KernelObject* o, uint32_t out[16]) {
  switch (o->type()) {
    case ObjType::kMutex: {
      auto* m = static_cast<Mutex*>(o);
      out[0] = m->locked ? 1 : 0;
      out[1] = static_cast<uint32_t>(m->owner_tid);
      out[2] = static_cast<uint32_t>(m->owner_tid >> 32);
      return 3;
    }
    case ObjType::kCond: {
      out[0] = static_cast<uint32_t>(static_cast<Cond*>(o)->waiters.size());
      return 1;
    }
    case ObjType::kPort: {
      out[0] = static_cast<Port*>(o)->badge;
      return 1;
    }
    case ObjType::kPortset: {
      out[0] = static_cast<uint32_t>(static_cast<Portset*>(o)->ports.size());
      return 1;
    }
    case ObjType::kRegion: {
      auto* r = static_cast<Region*>(o);
      out[0] = r->base;
      out[1] = r->size;
      out[2] = r->prot;
      return 3;
    }
    case ObjType::kMapping: {
      auto* m = static_cast<Mapping*>(o);
      out[0] = m->base;
      out[1] = m->size;
      out[2] = m->offset;
      out[3] = m->prot;
      return 4;
    }
    case ObjType::kSpace: {
      auto* s = static_cast<Space*>(o);
      out[0] = static_cast<uint32_t>(s->mapped_pages());
      out[1] = 0;  // anon base (write-only through set_state)
      out[2] = 0;
      return 3;
    }
    case ObjType::kThread: {
      auto* t = static_cast<Thread*>(o);
      ThreadState s;
      if (!k.GetThreadState(t, &s)) {
        return 0;
      }
      ThreadStateToWords(s, out);
      return kThreadStateWords;
    }
    case ObjType::kReference: {
      auto* r = static_cast<Reference*>(o);
      out[0] = r->target != nullptr ? static_cast<uint32_t>(r->target->type()) : 0;
      out[1] = r->target != nullptr ? static_cast<uint32_t>(r->target->id()) : 0;
      return 2;
    }
  }
  return 0;
}

// Applies state words to an object. Returns a user error code.
uint32_t ApplyState(SysCtx& ctx, KernelObject* o, const uint32_t* in, uint32_t n) {
  Kernel& k = *ctx.kernel;
  switch (o->type()) {
    case ObjType::kMutex: {
      if (n < 3) {
        return kFlukeErrBadArgument;
      }
      auto* m = static_cast<Mutex*>(o);
      m->locked = in[0] != 0;
      m->owner_tid = static_cast<uint64_t>(in[1]) | (static_cast<uint64_t>(in[2]) << 32);
      return kFlukeOk;
    }
    case ObjType::kCond:
    case ObjType::kPortset:
    case ObjType::kReference:
      return kFlukeOk;  // no settable state
    case ObjType::kPort: {
      if (n < 1) {
        return kFlukeErrBadArgument;
      }
      static_cast<Port*>(o)->badge = in[0];
      return kFlukeOk;
    }
    case ObjType::kRegion: {
      if (n < 3) {
        return kFlukeErrBadArgument;
      }
      static_cast<Region*>(o)->prot = in[2] & kProtReadWrite;
      return kFlukeOk;
    }
    case ObjType::kMapping: {
      if (n < 4) {
        return kFlukeErrBadArgument;
      }
      static_cast<Mapping*>(o)->prot = in[3] & kProtReadWrite;
      return kFlukeOk;
    }
    case ObjType::kSpace: {
      // set_state(words): [keeper port handle (0 = keep), anon base,
      //                    anon size]. Handles resolve in the CALLER's
      //                    space, so a manager can arm a child space.
      auto* s = static_cast<Space*>(o);
      if (n >= 1 && in[0] != 0) {
        KernelObject* p = ctx.thread->space->Lookup(in[0]);
        if (p == nullptr || p->type() != ObjType::kPort) {
          return kFlukeErrBadHandle;
        }
        s->keeper = static_cast<Port*>(p);
      }
      if (n >= 3) {
        s->SetAnonRange(in[1], in[2]);
      }
      return kFlukeOk;
    }
    case ObjType::kThread: {
      if (n < kThreadStateWords) {
        return kFlukeErrBadArgument;
      }
      ThreadState s;
      ThreadStateFromWords(in, &s);
      return k.SetThreadState(static_cast<Thread*>(o), s) ? kFlukeOk : kFlukeErrBadArgument;
    }
  }
  return kFlukeErrBadType;
}

}  // namespace

// get_state(B = handle, C = buffer, D = capacity words) -> B = words written.
KTask SysObjGetState(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  KernelObject* o = LookupTyped(ctx, RegB(ctx), static_cast<ObjType>(t->op_aux));
  if (o == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  uint32_t words[16];
  const uint32_t n = SerializeState(k, o, words);
  if (n == 0 && o->type() == ObjType::kThread) {
    k.Finish(t, kFlukeErrWouldBlock);  // target is on-CPU (MP only)
    co_return KStatus::kOk;
  }
  if (RegD(ctx) < n) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  KStatus s = co_await WriteUserWords(ctx, RegC(ctx), words, n);
  if (s != KStatus::kOk) {
    k.Finish(t, kFlukeErrBadAddress);
    co_return KStatus::kOk;
  }
  k.FinishWith(t, kFlukeOk, n);
  co_return KStatus::kOk;
}

// set_state(B = handle, C = buffer, D = words).
KTask SysObjSetState(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  KernelObject* o = LookupTyped(ctx, RegB(ctx), static_cast<ObjType>(t->op_aux));
  if (o == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  const uint32_t n = std::min<uint32_t>(RegD(ctx), 16);
  uint32_t words[16] = {};
  KStatus s = co_await ReadUserWords(ctx, RegC(ctx), words, n);
  if (s != KStatus::kOk) {
    k.Finish(t, kFlukeErrBadAddress);
    co_return KStatus::kOk;
  }
  k.Finish(t, ApplyState(ctx, o, words, n));
  co_return KStatus::kOk;
}

// ---------------------------------------------------------------------------
// Type-specific short syscalls.
// ---------------------------------------------------------------------------

KTask SysMutexTrylock(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegB(ctx), ObjType::kMutex));
  if (m == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  if (m->locked) {
    k.Finish(t, kFlukeErrWouldBlock);
  } else {
    m->locked = true;
    m->owner_tid = t->id();
    k.Finish(t, kFlukeOk);
  }
  co_return KStatus::kOk;
}

KTask SysMutexUnlock(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegB(ctx), ObjType::kMutex));
  if (m == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  if (!m->locked) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  m->locked = false;
  m->owner_tid = 0;
  // Wake one waiter; it restarts mutex_lock and contends afresh.
  k.WakeOne(&m->waiters);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// Twin of SysMutexUnlock when nobody waits, so there is no wake to make.
bool FastMutexUnlock(Kernel& k, Thread* t, const SyscallDef& def) {
  SysCtx ctx{&k, t};
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegB(ctx), ObjType::kMutex));
  if (m == nullptr || !m->locked || !m->waiters.empty()) {
    return false;
  }
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysMutexUnlock(ctx)
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  m->locked = false;
  m->owner_tid = 0;
  k.Finish(t, kFlukeOk);
  return true;
}

KTask SysCondSignal(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* c = static_cast<Cond*>(LookupTyped(ctx, RegB(ctx), ObjType::kCond));
  if (c == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  // The waiter's registers were committed to mutex_lock before it slept, so
  // waking it sends it straight to the lock acquisition.
  k.WakeOne(&c->waiters);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

KTask SysCondBroadcast(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* c = static_cast<Cond*>(LookupTyped(ctx, RegB(ctx), ObjType::kCond));
  if (c == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.WakeAll(&c->waiters);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// region_protect(B = handle, C = prot).
KTask SysRegionProtect(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* r = static_cast<Region*>(LookupTyped(ctx, RegB(ctx), ObjType::kRegion));
  if (r == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  r->prot = RegC(ctx) & kProtReadWrite;
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// region_info(B = handle) -> B = size (base via get_state).
KTask SysRegionInfo(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  auto* r = static_cast<Region*>(LookupTyped(ctx, RegB(ctx), ObjType::kRegion));
  if (r == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.FinishWith(t, kFlukeOk, r->size);
  co_return KStatus::kOk;
}

KTask SysMappingInfo(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  auto* m = static_cast<Mapping*>(LookupTyped(ctx, RegB(ctx), ObjType::kMapping));
  if (m == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.FinishWith(t, kFlukeOk, m->size);
  co_return KStatus::kOk;
}

// portset_add(B = portset, C = port).
KTask SysPortsetAdd(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* ps = static_cast<Portset*>(LookupTyped(ctx, RegB(ctx), ObjType::kPortset));
  KernelObject* po = t->space->Lookup(RegC(ctx));
  if (ps == nullptr || po == nullptr || po->type() != ObjType::kPort) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  auto* p = static_cast<Port*>(po);
  if (p->member_of != nullptr) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  p->member_of = ps;
  ps->ports.push_back(p);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

KTask SysPortsetRemove(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* ps = static_cast<Portset*>(LookupTyped(ctx, RegB(ctx), ObjType::kPortset));
  KernelObject* po = t->space->Lookup(RegC(ctx));
  if (ps == nullptr || po == nullptr || po->type() != ObjType::kPort) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  auto* p = static_cast<Port*>(po);
  if (p->member_of != ps) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  p->member_of = nullptr;
  for (size_t i = 0; i < ps->ports.size(); ++i) {
    if (ps->ports[i] == p) {
      ps->ports.erase(ps->ports.begin() + i);
      break;
    }
  }
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

KTask SysThreadInterrupt(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* target = static_cast<Thread*>(LookupTyped(ctx, RegB(ctx), ObjType::kThread));
  if (target == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.InterruptThread(target);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// Twin of SysThreadInterrupt: it never blocks, whatever the target.
bool FastThreadInterrupt(Kernel& k, Thread* t, const SyscallDef& def) {
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysThreadInterrupt(ctx)
  SysCtx ctx{&k, t};
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* target = static_cast<Thread*>(LookupTyped(ctx, RegB(ctx), ObjType::kThread));
  if (target == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    return true;
  }
  k.InterruptThread(target);
  k.Finish(t, kFlukeOk);
  return true;
}

KTask SysThreadResume(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* target = static_cast<Thread*>(LookupTyped(ctx, RegB(ctx), ObjType::kThread));
  if (target == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  k.ResumeThread(target);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// console_putc(B = byte).
KTask SysConsolePutc(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.short_body);
  k.console.PutChar(static_cast<char>(RegB(ctx)));
  k.Finish(ctx.thread, kFlukeOk);
  co_return KStatus::kOk;
}

// ---------------------------------------------------------------------------
// Long syscalls: single-stage indefinite sleeps.
// ---------------------------------------------------------------------------

// Shared lock-acquisition loop (mutex_lock, and the relock half of
// cond_wait). The registers already name mutex_lock + handle, so every
// block point is a committed restart point.
KTask AcquireMutex(SysCtx& ctx, Mutex* m) {
  Thread* t = ctx.thread;
  for (;;) {
    if (!m->alive()) {
      co_return KStatus::kDead;
    }
    if (!m->locked) {
      m->locked = true;
      m->owner_tid = t->id();
      co_return KStatus::kOk;
    }
    co_await Block(ctx, &m->waiters);
    // (process model) woken by unlock: loop and contend again; the
    // interrupt model re-enters mutex_lock from the registers instead.
  }
}

KTask SysMutexLock(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegB(ctx), ObjType::kMutex));
  if (m == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  KStatus s = co_await AcquireMutex(ctx, m);
  k.Finish(t, s == KStatus::kOk ? kFlukeOk : kFlukeErrDead);
  co_return KStatus::kOk;
}

// Twin of SysMutexLock for a free mutex: AcquireMutex takes it without
// suspending. A contended lock declines -- WakeOne resumes its waiter's
// frame.
bool FastMutexLock(Kernel& k, Thread* t, const SyscallDef& def) {
  SysCtx ctx{&k, t};
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegB(ctx), ObjType::kMutex));
  if (m == nullptr || m->locked) {
    return false;
  }
  static const size_t f_acquire = ProbeFrameSize(AcquireMutex, static_cast<Mutex*>(nullptr));
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysMutexLock(ctx)
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  k.AccountFrameAlloc(t, f_acquire);  // co_await AcquireMutex(ctx, m)
  m->locked = true;
  m->owner_tid = t->id();
  k.AccountFrameFree(t, f_acquire);
  k.Finish(t, kFlukeOk);
  return true;
}

// clock_sleep(B = microseconds).
KTask SysClockSleep(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  const Time dur = static_cast<Time>(RegB(ctx)) * kNsPerUs;
  const uint64_t token = ++t->sleep_token;
  k.ArmSleepTimer(t, k.clock.now() + dur, token);
  co_await Block(ctx, nullptr);
  // Only reached in the process model on a wake that did not complete the
  // op (cannot happen for sleep, but keep the op well-formed).
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// Twin of SysClockSleep: arms the timer and blocks framelessly. The timer
// completes the wait; interrupt, stop and set_state cancel it.
bool FastClockSleep(Kernel& k, Thread* t, const SyscallDef& def) {
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysClockSleep(ctx)
  k.Charge(k.costs.short_body);
  const Time dur = static_cast<Time>(t->regs.gpr[kRegB]) * kNsPerUs;
  const uint64_t token = ++t->sleep_token;
  k.ArmSleepTimer(t, k.clock.now() + dur, token);
  k.CommitFastBlock(t, BlockKind::kWaitQueue, {def.frame_bytes});
  return true;
}

// thread_join(B = thread handle) -> B = exit code.
KTask SysThreadJoin(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  // Look up without the liveness filter: joining a dead thread is the
  // common completion path.
  KernelObject* o = t->space->LookupAnyState(RegB(ctx));
  if (o == nullptr || o->type() != ObjType::kThread) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  auto* target = static_cast<Thread*>(o);
  for (;;) {
    if (target->run_state == ThreadRun::kDead) {
      k.FinishWith(t, kFlukeOk, target->exit_code);
      co_return KStatus::kOk;
    }
    if (target->join_wait == nullptr) {
      target->join_wait = std::make_unique<WaitQueue>();
    }
    co_await Block(ctx, target->join_wait.get());
  }
}

KTask SysThreadStopSelf(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  // Commit completion first, then stop: on resume the thread continues
  // after the syscall with A == kFlukeOk.
  k.Finish(t, kFlukeOk);
  t->run_state = ThreadRun::kStopped;
  co_return KStatus::kOk;
}

// irq_wait(B = line): blocks until the line is raised. Used by user-mode
// drivers (and the Table 6 latency probe).
KTask SysIrqWait(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  const uint32_t line = RegB(ctx);
  if (line >= kNumIrqLines) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  t->irq_line = static_cast<int>(line);
  co_await Block(ctx, &k.irq_waiters[line]);
  // Completed by the IRQ dispatch path (CompleteBlockedOp); reaching here
  // in the process model means the wait was satisfied.
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// disk_wait() -> B = completed request id.
KTask SysDiskWait(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  for (;;) {
    uint64_t id = 0;
    if (k.disk.PopCompletion(&id)) {
      k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(id));
      co_return KStatus::kOk;
    }
    co_await Block(ctx, &k.disk_waiters);
  }
}

// console_getc() -> B = byte.
KTask SysConsoleGetc(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  for (;;) {
    const int c = k.console.GetChar();
    if (c >= 0) {
      k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(c));
      co_return KStatus::kOk;
    }
    co_await Block(ctx, &k.console_waiters);
  }
}

// portset_wait(B = portset/port handle) -> B = badge of a ready port.
// Waits without receiving (the receive is a separate entrypoint).
KTask SysPortsetWait(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  k.Charge(k.costs.short_body);
  for (;;) {
    KernelObject* o = t->space->Lookup(RegB(ctx));
    if (o == nullptr || (o->type() != ObjType::kPort && o->type() != ObjType::kPortset)) {
      k.Finish(t, kFlukeErrBadHandle);
      co_return KStatus::kOk;
    }
    auto ready_badge = [](KernelObject* obj) -> int64_t {
      auto port_ready = [](Port* p) {
        return !p->kmsgs.empty() || p->waiting_clients.Front() != nullptr;
      };
      if (obj->type() == ObjType::kPort) {
        auto* p = static_cast<Port*>(obj);
        return port_ready(p) ? static_cast<int64_t>(p->badge) : int64_t{-1};
      }
      for (Port* p : static_cast<Portset*>(obj)->ports) {
        if (p->alive() && port_ready(p)) {
          return static_cast<int64_t>(p->badge);
        }
      }
      return int64_t{-1};
    };
    const int64_t badge = ready_badge(o);
    if (badge >= 0) {
      k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(badge));
      co_return KStatus::kOk;
    }
    WaitQueue* q = o->type() == ObjType::kPort ? &static_cast<Port*>(o)->pollers
                                               : &static_cast<Portset*>(o)->pollers;
    co_await Block(ctx, q);
  }
}

// ---------------------------------------------------------------------------
// Non-IPC multi-stage syscalls.
// ---------------------------------------------------------------------------

// cond_wait(B = cond handle, C = mutex handle). Two stages: the wait, then
// the relock -- committed as mutex_lock before sleeping (paper 4.3).
KTask SysCondWait(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  auto* c = static_cast<Cond*>(LookupTyped(ctx, RegB(ctx), ObjType::kCond));
  auto* m = static_cast<Mutex*>(LookupTyped(ctx, RegC(ctx), ObjType::kMutex));
  if (c == nullptr || m == nullptr) {
    k.Finish(t, kFlukeErrBadHandle);
    co_return KStatus::kOk;
  }
  if (!m->locked) {
    k.Finish(t, kFlukeErrBadArgument);
    co_return KStatus::kOk;
  }
  // Release the mutex.
  m->locked = false;
  m->owner_tid = 0;
  k.WakeOne(&m->waiters);
  // COMMIT: if this thread is interrupted or woken it will retry the mutex
  // lock, not the whole condition wait.
  RegA(ctx) = kSysMutexLock;
  RegB(ctx) = RegC(ctx);
  co_await Block(ctx, &c->waiters);
  // (process model) signalled: reacquire the mutex mid-handler. The
  // interrupt model re-enters mutex_lock from the rewritten registers.
  KStatus s = co_await AcquireMutex(ctx, m);
  k.Finish(t, s == KStatus::kOk ? kFlukeOk : kFlukeErrDead);
  co_return KStatus::kOk;
}

// region_search(B = start address, C = length) -> B = region object id, or
// error kFlukeErrNotFound. Multi-stage: B/C advance as pages are scanned,
// so the operation can be interrupted and restarted at page granularity.
// There is NO explicit preemption point here (the paper adds one only to
// the IPC copy path), which is what gives the PP configurations their
// residual max latency in Table 6.
KTask SysRegionSearch(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  while (RegC(ctx) > 0) {
    ++k.stats.region_pages_scanned;
    const uint32_t addr = RegB(ctx);
    // Scan this page against the space's exported regions.
    for (Region* r : t->space->regions) {
      if (r->alive() && addr - r->base < r->size) {
        k.FinishWith(t, kFlukeOk, static_cast<uint32_t>(r->id()));
        co_return KStatus::kOk;
      }
    }
    co_await Work(ctx, k.costs.region_search_per_page);
    const uint32_t step = std::min(RegC(ctx), kPageSize - (addr & kPageMask));
    // COMMIT: advance the scan parameters in place.
    RegB(ctx) += step;
    RegC(ctx) -= step;
  }
  k.FinishWith(t, kFlukeErrNotFound, 0);
  co_return KStatus::kOk;
}

}  // namespace fluke
