#include "src/kern/ipc.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "src/kern/kernel.h"
#include "src/kern/space.h"
#include "src/kern/syscall_table.h"

namespace fluke {

namespace {

// Copy granularity: registers are committed after each chunk, so a chunk is
// the maximum work a fault or preemption can discard.
constexpr uint32_t kChunkWords = 512;  // 2 KiB

uint32_t WordsToPageEnd(uint32_t addr) { return (kPageSize - (addr & kPageMask)) / 4; }

bool BlockedInIpc(const Thread* t) {
  return t->run_state == ThreadRun::kBlocked &&
         (t->block_kind == BlockKind::kIpcWait || t->block_kind == BlockKind::kWaitQueue);
}

// Looks up register B as either a Reference-to-Port or a direct Port handle.
Port* LookupPortArg(Thread* t, Handle h) {
  KernelObject* o = t->space->Lookup(h);
  if (o == nullptr) {
    return nullptr;
  }
  if (o->type() == ObjType::kPort) {
    return static_cast<Port*>(o);
  }
  if (o->type() == ObjType::kReference) {
    auto* r = static_cast<Reference*>(o);
    if (r->target != nullptr && r->target->alive() && r->target->type() == ObjType::kPort) {
      return static_cast<Port*>(r->target);
    }
  }
  return nullptr;
}

}  // namespace

IpcStanceKind IpcStance(const Thread* t) {
  switch (t->regs.gpr[kRegA]) {
    case kSysIpcClientConnect:
    case kSysIpcClientConnectSend:
    case kSysIpcClientConnectSendOverReceive:
    case kSysIpcClientConnectOnewaySend:
      return IpcStance_kConnecting;
    case kSysIpcClientSend:
    case kSysIpcClientSendOverReceive:
    case kSysIpcServerSend:
    case kSysIpcServerSendOverReceive:
    case kSysIpcServerAckSend:
    case kSysIpcServerAckSendOverReceive:
    case kSysIpcServerAckSendWaitReceive:
    case kSysIpcServerSendWaitReceive:
      return IpcStance_kSending;
    case kSysIpcClientReceive:
    case kSysIpcServerReceive:
      return IpcStance_kReceiving;
    case kSysIpcWaitReceive:
    case kSysIpcReplyWaitReceive:
    case kSysIpcServerOnewayReceive:
    case kSysIpcServerAlertWait:
      return IpcStance_kWaiting;
    default:
      return IpcStance_kNone;
  }
}

uint32_t SendSuccessor(uint32_t sys, bool* disconnect) {
  *disconnect = false;
  switch (sys) {
    case kSysIpcClientSend:
    case kSysIpcServerSend:
    case kSysIpcServerAckSend:
      return 0;
    case kSysIpcClientSendOverReceive:
      return kSysIpcClientReceive;
    case kSysIpcServerSendOverReceive:
    case kSysIpcServerAckSendOverReceive:
      return kSysIpcServerReceive;
    case kSysIpcServerSendWaitReceive:
    case kSysIpcServerAckSendWaitReceive:
      *disconnect = true;
      return kSysIpcWaitReceive;
    default:
      return 0;
  }
}

void IpcDisconnect(Kernel& k, Thread* t) {
  Thread* peer = t->ipc_peer;
  t->ipc_peer = nullptr;
  t->regs.pr0 = 0;
  if (peer == nullptr) {
    return;
  }
  peer->ipc_peer = nullptr;
  peer->regs.pr0 = 0;
  if (BlockedInIpc(peer) && IpcStance(peer) != IpcStance_kNone) {
    // The peer was blocked mid-operation on this connection; complete it
    // with an error (its registers are at a commit point, so the error is
    // delivered at a well-defined stage boundary).
    k.CancelOpQueuesOnly(peer, /*counts_as_restart=*/false);
    k.Finish(peer, kFlukeErrDisconnected);
    k.MakeRunnable(peer);
  }
}

namespace {

// ---------------------------------------------------------------------------
// Completion/advance of a BLOCKED peer, by mutating its state only.
// ---------------------------------------------------------------------------

// Completes a blocked thread's current operation with `err` and wakes it.
void CompleteBlocked(Kernel& k, Thread* t, uint32_t err) { k.CompleteBlockedOp(t, err); }

// The blocked sender's send stage just finished: rewrite its entrypoint
// register to the successor stage, or complete the operation outright.
void AdvanceBlockedSender(Kernel& k, Thread* sender) {
  bool disconnect = false;
  const uint32_t succ = SendSuccessor(sender->regs.gpr[kRegA], &disconnect);
  if (succ == 0) {
    CompleteBlocked(k, sender, kFlukeOk);
    return;
  }
  sender->regs.gpr[kRegA] = succ;  // commit the stage transition in place
  if (disconnect) {
    IpcDisconnect(k, sender);
  }
  if (IpcStance(sender) == IpcStance_kWaiting) {
    // wait_receive needs to enqueue on its portset; wake the thread and let
    // the restart entrypoint do it.
    k.CancelOpQueuesOnly(sender);
    k.MakeRunnable(sender);
  }
  // Otherwise (now receiving) the thread stays blocked; the reply transfer
  // will be driven by the running peer against its advancing registers.
}

// Settles a BLOCKED peer whose stage was exhausted by the commit that just
// happened. This must run BEFORE any suspension point (FP work quantum, PP
// preemption point): in the interrupt model a suspension destroys the
// running thread's frame and restarts it from its registers, and the
// restart path must never find a peer stranded in a completed-but-
// unsettled stage (receiver full, or sender's message fully taken).
void SettleBlockedPeerAtCommit(Kernel& k, Thread* running, Thread* sender, Thread* recver) {
  if (recver != running && BlockedInIpc(recver) &&
      (recver->regs.gpr[kRegDI] == 0 || sender->regs.gpr[kRegD] == 0)) {
    // Receiver full, or the sender's message completed (message boundary).
    CompleteBlocked(k, recver, kFlukeOk);
  }
  if (sender != running && BlockedInIpc(sender) && sender->regs.gpr[kRegD] == 0) {
    AdvanceBlockedSender(k, sender);
  }
}

// ---------------------------------------------------------------------------
// The data transfer. Runs on ctx.thread (one of sender/recver); commits both
// threads' registers after every chunk. Faults are attributed to the space
// that faulted (Table 3); explicit preemption points fire every
// cfg.preempt_chunk_bytes (PP).
// ---------------------------------------------------------------------------

FaultSide SideOf(const Thread* t) {
  return t->ipc_is_server ? kFaultSideServer : kFaultSideClient;
}

KTask TransferData(SysCtx& ctx, Thread* sender, Thread* recver) {
  Kernel& k = *ctx.kernel;
  auto& sreg = sender->regs;
  auto& rreg = recver->regs;
  uint32_t pp_bytes = 0;
  uint32_t buf[kChunkWords];
  // Hoisted once: Record() checks enabled_ itself, but its arguments
  // (clock read, thread id) would still be evaluated per chunk, which is
  // measurable on the bulk-transfer hot loop. Tracing cannot be toggled
  // mid-transfer -- it only changes between Run() calls.
  const bool traced = k.trace.enabled();

  // Cached page translations for the copy loop. Chunks are 2 KiB but pages
  // are 4 KiB and large transfers walk each page twice, so re-deriving host
  // pointers per chunk is pure overhead. A cached run is only trusted after
  // revalidating against the space's page-table generation: any
  // MapPage/UnmapPage -- by this transfer's own fault resolution or by
  // whatever ran while we were suspended at a preemption point -- bumps
  // pt_gen and forces a fresh translation. While the generation is
  // unchanged the mapped frame cannot have been freed, so the pointer is
  // safe to dereference.
  uint8_t* scache_ptr = nullptr;
  uint32_t scache_start = 0, scache_len = 0;
  uint64_t scache_gen = 0;
  uint8_t* dcache_ptr = nullptr;
  uint32_t dcache_start = 0, dcache_len = 0;
  uint64_t dcache_gen = 0;
  auto cached_span = [](Space* sp, uint32_t addr, uint32_t bytes, uint32_t want,
                        uint8_t*& ptr, uint32_t& start, uint32_t& len,
                        uint64_t& gen) -> uint8_t* {
    if (ptr != nullptr && gen == sp->pt_gen() && addr >= start &&
        addr - start + bytes <= len) {
      return ptr + (addr - start);
    }
    // Translate to the end of the page so the next chunk on it hits.
    const Span s = sp->TranslateSpan(addr, kPageSize - (addr & kPageMask), want);
    if (s.len < bytes) {
      return nullptr;  // unmapped or under-protected: take the word loop
    }
    ptr = s.ptr;
    start = addr;
    len = s.len;
    gen = sp->pt_gen();
    return s.ptr;
  };

  while (sreg.gpr[kRegD] > 0 && rreg.gpr[kRegDI] > 0) {
    k.finj.Note(FaultHook::kIpcChunk);
    const uint32_t src = sreg.gpr[kRegC];
    const uint32_t dst = rreg.gpr[kRegSI];
    uint32_t words = std::min(sreg.gpr[kRegD], rreg.gpr[kRegDI]);
    words = std::min(words, kChunkWords);
    words = std::min(words, WordsToPageEnd(src));
    words = std::min(words, WordsToPageEnd(dst));
    if (words == 0) {
      // Misaligned buffer straddling a page at every word; fall back to one
      // word so progress is guaranteed.
      words = 1;
    }
    if (traced) {
      k.trace.Record(k.clock.now(), TraceKind::kIpcChunk, ctx.thread->id(), words);
    }

    // Page-lending path (non-preemptive configs only): when both sides are
    // page-aligned with a full page left, remap the sender's frame into the
    // receiver copy-on-write instead of copying 4 KiB. Gated to
    // PreemptMode::kNone because the page's two chunk commits then happen
    // with no possible suspension between them (the lend proves both
    // translations, so the chunks cannot fault), making the batched commit
    // below indistinguishable from two separate ones. Charges are exactly
    // the copy path's per-chunk charges; ChargeFpLocks is skipped because
    // it only charges under PreemptMode::kFull. A repeated send of the same
    // buffer is the steady state: the frames already match, SharePageFrom
    // returns immediately, and no remap or shootdown happens at all.
    // LendAllowed: under MP a lend would hand a copy-on-write frame to a
    // phase-A burst (whose break mid-burst races the frame allocator), so
    // MP sends take the copy path below -- virtual time identical.
    if (k.cfg.preempt == PreemptMode::kNone && (src & kPageMask) == 0 &&
        (dst & kPageMask) == 0 && sreg.gpr[kRegD] >= kPageSize / 4 &&
        rreg.gpr[kRegDI] >= kPageSize / 4 &&
        k.LendAllowed(recver->space, sender->space) &&
        recver->space->SharePageFrom(*sender->space, src, dst)) {
      ++k.stats.ipc_page_lends;
      if (traced) {
        k.trace.Record(k.clock.now(), TraceKind::kIpcPageLend, ctx.thread->id(), src);
      }
      for (uint32_t c = 0; c < kPageSize / (4 * kChunkWords); ++c) {
        k.Charge(k.costs.ipc_chunk_setup + 2ull * kChunkWords * k.costs.ipc_per_word);
        sreg.gpr[kRegC] += 4 * kChunkWords;
        sreg.gpr[kRegD] -= kChunkWords;
        rreg.gpr[kRegSI] += 4 * kChunkWords;
        rreg.gpr[kRegDI] -= kChunkWords;
        if (sreg.gpr[kRegD] == 0 || rreg.gpr[kRegDI] == 0) {
          SettleBlockedPeerAtCommit(k, ctx.thread, sender, recver);
        } else {
          pp_bytes += 4 * kChunkWords;
          if (pp_bytes >= k.cfg.preempt_chunk_bytes) {
            pp_bytes = 0;
            k.Charge(k.costs.preempt_point_check);
          }
        }
      }
      continue;
    }

    // Fast path: both sides translate with sufficient rights (the common
    // case after warm-up) -- one TLB-backed translation per side and one
    // memcpy per chunk. Cost-identical to the word loop; only host time
    // differs. The setup and per-word charges are folded into one Charge:
    // nothing observes the clock between them on this path.
    {
      const uint32_t bytes = 4 * words;
      uint8_t* sp = cached_span(sender->space, src, bytes, kProtRead,
                                scache_ptr, scache_start, scache_len, scache_gen);
      uint8_t* dp = sp == nullptr
                        ? nullptr
                        : cached_span(recver->space, dst, bytes, kProtWrite,
                                      dcache_ptr, dcache_start, dcache_len, dcache_gen);
      if (sp != nullptr && dp != nullptr) {
        std::memcpy(dp, sp, bytes);
        k.Charge(k.costs.ipc_chunk_setup + 2ull * words * k.costs.ipc_per_word);
        k.ChargeFpLocks();  // per-chunk: both spaces' pmap access is locked
        sreg.gpr[kRegC] += 4 * words;
        sreg.gpr[kRegD] -= words;
        rreg.gpr[kRegSI] += 4 * words;
        rreg.gpr[kRegDI] -= words;
        if (sreg.gpr[kRegD] == 0 || rreg.gpr[kRegDI] == 0) {
          // A side completed; mid-message chunks cannot satisfy any of the
          // settle conditions (all require D == 0 or DI == 0).
          SettleBlockedPeerAtCommit(k, ctx.thread, sender, recver);
        }
        // Preemption opportunities only while work remains: suspending
        // after the FINAL commit would let an interrupt-model restart
        // re-enter the send stage with D == 0, which must stay reserved
        // for genuine zero-length messages.
        if (sreg.gpr[kRegD] > 0 && rreg.gpr[kRegDI] > 0) {
          if (k.cfg.preempt == PreemptMode::kNone) {
            // Non-preemptive config: Work(0) charges nothing and
            // PreemptPoint only charges its check cost -- neither can
            // suspend. Charging directly keeps the chunk loop free of
            // co_awaits, so its locals stay out of the coroutine frame.
            pp_bytes += 4 * words;
            if (pp_bytes >= k.cfg.preempt_chunk_bytes) {
              pp_bytes = 0;
              k.Charge(k.costs.preempt_point_check);
            }
          } else {
            co_await Work(ctx, 0);  // FP preemption opportunity
            pp_bytes += 4 * words;
            if (pp_bytes >= k.cfg.preempt_chunk_bytes) {
              pp_bytes = 0;
              co_await PreemptPoint(ctx);
            }
          }
        }
        continue;
      }
    }

    // Slow path (unresolved page or insufficient protection on either
    // side): charge the chunk setup up front as before, then copy word by
    // word with faulting semantics.
    k.Charge(k.costs.ipc_chunk_setup);
    k.ChargeFpLocks();  // per-chunk: both spaces' pmap access is locked
    Time uncommitted = Cycles(k.costs.ipc_chunk_setup);

    // --- Read phase (faults attributed to the sender's side) ---
    bool fault = false;
    uint32_t fault_addr = 0;
    for (uint32_t i = 0; i < words; ++i) {
      if (!sender->space->ReadWord(src + 4 * i, &buf[i], &fault_addr)) {
        KStatus s = co_await ResolveFault(ctx, sender->space, fault_addr, /*is_write=*/false,
                                          SideOf(sender), /*count_ipc=*/true, uncommitted);
        if (s != KStatus::kOk) {
          co_return s;
        }
        fault = true;
        break;
      }
      k.Charge(k.costs.ipc_per_word);
      uncommitted += Cycles(k.costs.ipc_per_word);
    }
    if (fault) {
      continue;  // registers unchanged: retry the chunk from the commit point
    }

    // --- Write phase (faults attributed to the receiver's side) ---
    for (uint32_t i = 0; i < words; ++i) {
      if (!recver->space->WriteWord(dst + 4 * i, buf[i], &fault_addr)) {
        KStatus s = co_await ResolveFault(ctx, recver->space, fault_addr, /*is_write=*/true,
                                          SideOf(recver), /*count_ipc=*/true, uncommitted);
        if (s != KStatus::kOk) {
          co_return s;
        }
        fault = true;
        break;
      }
      k.Charge(k.costs.ipc_per_word);
      uncommitted += Cycles(k.costs.ipc_per_word);
    }
    if (fault) {
      continue;
    }

    // --- Commit: advance both threads' parameter registers in place ---
    sreg.gpr[kRegC] += 4 * words;
    sreg.gpr[kRegD] -= words;
    rreg.gpr[kRegSI] += 4 * words;
    rreg.gpr[kRegDI] -= words;
    SettleBlockedPeerAtCommit(k, ctx.thread, sender, recver);

    if (sreg.gpr[kRegD] > 0 && rreg.gpr[kRegDI] > 0) {
      // FP preemption opportunity (no cost when not FP).
      co_await Work(ctx, 0);
      // PP: the single explicit preemption point on the copy path.
      pp_bytes += 4 * words;
      if (pp_bytes >= k.cfg.preempt_chunk_bytes) {
        pp_bytes = 0;
        co_await PreemptPoint(ctx);
      }
    }
  }
  co_return KStatus::kOk;
}

// After a transfer driven by the running thread, settle the *blocked* peer's
// stage. Returns true if the running thread's receive stage is complete
// because the peer's send stage ended (message boundary).
bool SettlePeerAfterTransfer(Kernel& k, Thread* running, Thread* peer) {
  bool message_complete = false;
  if (!BlockedInIpc(peer)) {
    return false;
  }
  const IpcStanceKind stance = IpcStance(peer);
  if (stance == IpcStance_kSending && peer->regs.gpr[kRegD] == 0) {
    // Peer's send stage exhausted: its message is complete.
    message_complete = true;
    AdvanceBlockedSender(k, peer);
  } else if (stance == IpcStance_kReceiving && peer->regs.gpr[kRegDI] == 0) {
    // Peer's receive buffer is full.
    CompleteBlocked(k, peer, kFlukeOk);
  } else if (stance == IpcStance_kReceiving && running->regs.gpr[kRegD] == 0 &&
             IpcStance(running) == IpcStance_kSending) {
    // The running sender finished its message: complete the blocked
    // receiver at the message boundary.
    CompleteBlocked(k, peer, kFlukeOk);
  }
  return message_complete;
}

// ---------------------------------------------------------------------------
// Connect phase.
// ---------------------------------------------------------------------------

void PairClientServer(Kernel& k, Thread* client, Thread* server, Port* port) {
  client->ipc_peer = server;
  server->ipc_peer = client;
  client->ipc_is_server = false;
  server->ipc_is_server = true;
  client->port_badge = port->badge;
  server->port_badge = port->badge;
  // Pseudo-registers: exported "connected" marker + badge (paper 4.4:
  // kernel-implemented pseudo-registers holding intermediate IPC state).
  client->regs.pr0 = 1;
  server->regs.pr0 = 1;
  client->regs.pr1 = port->badge;
  server->regs.pr1 = port->badge;
  k.Charge(k.costs.ipc_rendezvous);
}

// Commits a just-connected client's entrypoint register to its post-connect
// stage. Returns 0 if the operation is complete (pure connect).
uint32_t ConnectSuccessor(uint32_t sys) {
  switch (sys) {
    case kSysIpcClientConnect:
      return 0;
    case kSysIpcClientConnectSend:
      return kSysIpcClientSend;
    case kSysIpcClientConnectSendOverReceive:
      return kSysIpcClientSendOverReceive;
    case kSysIpcClientConnectOnewaySend:
      return kSysIpcClientOnewaySend;
    default:
      return 0;
  }
}

// A running server accepted a queued (blocked) client.
void AdvanceBlockedClientAfterAccept(Kernel& k, Thread* client) {
  const uint32_t succ = ConnectSuccessor(client->regs.gpr[kRegA]);
  if (succ == 0) {
    CompleteBlocked(k, client, kFlukeOk);
    return;
  }
  client->regs.gpr[kRegA] = succ;  // commit; the client stays blocked,
                                   // now in sending stance
}

// Client side: establish a connection (blocking until a server accepts).
KTask DoConnect(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  for (;;) {
    if (t->ipc_peer != nullptr) {
      co_return KStatus::kOk;  // connected (possibly while we were queued)
    }
    Port* port = LookupPortArg(t, t->regs.gpr[kRegB]);
    if (port == nullptr) {
      co_return KStatus::kBadHandle;
    }
    k.Charge(k.costs.ipc_connect);
    if (k.finj.FailConnect()) {
      // Injected connection-resource failure: surfaces to the client as
      // kFlukeErrNoMemory, a clean retryable error.
      k.trace.Record(k.clock.now(), TraceKind::kFaultInject, t->id(), 2);
      co_return KStatus::kNoMemory;
    }
    Thread* server = port->servers.Dequeue();
    if (server == nullptr && port->member_of != nullptr) {
      server = port->member_of->servers.Dequeue();
    }
    if (server != nullptr) {
      server->block_kind = BlockKind::kIpcWait;  // now blocked on the connection
      PairClientServer(k, t, server, port);
      // The server was blocked in wait_receive: commit it to the receive
      // stage of this connection and leave it blocked; this client's send
      // stage (if any) will feed it.
      server->regs.gpr[kRegA] = kSysIpcServerReceive;
      server->regs.gpr[kRegB] = port->badge;
      co_return KStatus::kOk;
    }
    // No server ready: queue on the port and block. The registers already
    // name this connect entrypoint, which is the restart point.
    port->waiting_clients.PushBack(t);
    t->queued_on_port = port;
    t->block_kind = BlockKind::kIpcWait;
    // Wake portset_wait-style pollers: the port is now "ready".
    k.WakeAll(&port->pollers);
    if (port->member_of != nullptr) {
      k.WakeAll(&port->member_of->pollers);
    }
    co_await Block(ctx, nullptr);
    // (process model) resumed: either we were paired -- ipc_peer set, loop
    // exits -- or the wait was cancelled and we re-queue.
  }
}

// ---------------------------------------------------------------------------
// Send / receive phases (running-thread side).
// ---------------------------------------------------------------------------

KTask DoSendPhase(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  for (;;) {
    if (t->regs.gpr[kRegD] == 0) {
      // A zero-length send is a pure message boundary (transfers never
      // suspend between their final commit and the stage advance, so
      // reaching here always means a genuine empty message): complete a
      // blocked peer receiver with nothing delivered.
      Thread* peer = t->ipc_peer;
      if (peer != nullptr && BlockedInIpc(peer) && IpcStance(peer) == IpcStance_kReceiving) {
        CompleteBlocked(k, peer, kFlukeOk);
      }
      co_return KStatus::kOk;  // send stage complete
    }
    Thread* peer = t->ipc_peer;
    if (peer == nullptr || !peer->alive()) {
      co_return KStatus::kNotConnected;
    }
    if (BlockedInIpc(peer) && IpcStance(peer) == IpcStance_kReceiving &&
        peer->regs.gpr[kRegDI] > 0) {
      KStatus s = co_await TransferData(ctx, t, peer);
      if (s != KStatus::kOk) {
        co_return s;
      }
      SettlePeerAfterTransfer(k, t, peer);
      continue;  // re-evaluate: either done or peer can't take more
    }
    // Peer not ready to receive: block at the committed restart point.
    t->block_kind = BlockKind::kIpcWait;
    co_await Block(ctx, nullptr);
  }
}

KTask DoReceivePhase(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  for (;;) {
    if (t->ipc_alerted) {
      t->ipc_alerted = false;
      co_return KStatus::kCancelled;  // surfaced as kFlukeErrInterrupted
    }
    if (t->regs.gpr[kRegDI] == 0) {
      co_return KStatus::kOk;  // buffer full
    }
    Thread* peer = t->ipc_peer;
    if (peer == nullptr || !peer->alive()) {
      co_return KStatus::kNotConnected;
    }
    if (BlockedInIpc(peer) && IpcStance(peer) == IpcStance_kSending) {
      if (peer->regs.gpr[kRegD] > 0) {
        KStatus s = co_await TransferData(ctx, peer, t);
        if (s != KStatus::kOk) {
          co_return s;
        }
      }
      if (peer->regs.gpr[kRegD] == 0) {
        // Message boundary: the peer's send stage completed.
        SettlePeerAfterTransfer(k, t, peer);
        co_return KStatus::kOk;
      }
      // Our buffer must be full (transfer stopped on DI == 0).
      continue;
    }
    t->block_kind = BlockKind::kIpcWait;
    co_await Block(ctx, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Wait phase (server side): accept a connection or take a kernel message.
// `out_finished` semantics: the op completed (kmsg delivered) vs. a client
// was accepted (caller proceeds to the receive stage).
// ---------------------------------------------------------------------------

// Delivers a kernel message into the server's SI/DI buffer. Never consumes
// the message until fully delivered (hard faults requeue it at the front so
// the restart re-takes it).
KTask DeliverKmsg(SysCtx& ctx, Port* port) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  for (;;) {
    if (port->kmsgs.empty()) {
      co_return KStatus::kOk;  // lost a race with another server; caller re-scans
    }
    KernelMsg msg = port->kmsgs.front();
    port->kmsgs.pop_front();
    const uint32_t base = t->regs.gpr[kRegSI];
    const uint32_t cap = t->regs.gpr[kRegDI];
    const uint32_t n = std::min(msg.len, cap);
    bool faulted = false;
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t fa = 0;
      if (!t->space->WriteWord(base + 4 * i, msg.words[i], &fa)) {
        // Put the message back before possibly losing our frame to a hard
        // fault (interrupt model): the restart re-takes it.
        port->kmsgs.push_front(msg);
        KStatus s = co_await ResolveFault(ctx, t->space, fa, /*is_write=*/true,
                                          kFaultSideServer, /*count_ipc=*/false, 0);
        if (s != KStatus::kOk) {
          co_return s;
        }
        faulted = true;
        break;
      }
      k.Charge(k.costs.ipc_per_word);
    }
    if (faulted) {
      continue;  // re-take the (re-queued) message
    }
    // Commit the delivery.
    t->regs.gpr[kRegSI] += 4 * n;
    t->regs.gpr[kRegDI] -= n;
    if (msg.victim != nullptr) {
      t->exception_victim = msg.victim;
    }
    k.FinishWith(t, kFlukeOk, msg.badge);
    co_return KStatus::kDead;  // sentinel: "operation fully completed"
  }
}

// Returns the port (self or member) with a pending kernel message, or null.
Port* PortWithKmsg(KernelObject* obj) {
  if (obj->type() == ObjType::kPort) {
    auto* p = static_cast<Port*>(obj);
    return p->kmsgs.empty() ? nullptr : p;
  }
  auto* ps = static_cast<Portset*>(obj);
  for (Port* p : ps->ports) {
    if (p->alive() && !p->kmsgs.empty()) {
      return p;
    }
  }
  return nullptr;
}

Port* PortWithClient(KernelObject* obj) {
  if (obj->type() == ObjType::kPort) {
    auto* p = static_cast<Port*>(obj);
    return p->waiting_clients.Front() == nullptr ? nullptr : p;
  }
  auto* ps = static_cast<Portset*>(obj);
  for (Port* p : ps->ports) {
    if (p->alive() && p->waiting_clients.Front() != nullptr) {
      return p;
    }
  }
  return nullptr;
}

WaitQueue* ServersQueueOf(KernelObject* obj) {
  if (obj->type() == ObjType::kPort) {
    return &static_cast<Port*>(obj)->servers;
  }
  return &static_cast<Portset*>(obj)->servers;
}

// kDead sentinel: op fully completed (kmsg). kOk: client accepted, register
// A already committed to kSysIpcServerReceive.
KTask DoWaitPhase(SysCtx& ctx, bool accept_clients) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  for (;;) {
    KernelObject* obj = t->space->Lookup(t->regs.gpr[kRegB]);
    if (obj == nullptr ||
        (obj->type() != ObjType::kPort && obj->type() != ObjType::kPortset)) {
      co_return KStatus::kBadHandle;
    }
    if (Port* p = PortWithKmsg(obj)) {
      KStatus s = co_await DeliverKmsg(ctx, p);
      if (s == KStatus::kDead) {
        co_return KStatus::kDead;  // completed
      }
      if (s != KStatus::kOk) {
        co_return s;
      }
      continue;  // raced; re-scan
    }
    if (accept_clients) {
      if (Port* p = PortWithClient(obj)) {
        Thread* client = p->waiting_clients.PopFront();
        client->queued_on_port = nullptr;
        PairClientServer(k, client, t, p);
        AdvanceBlockedClientAfterAccept(k, client);
        // Commit ourselves to the receive stage of this connection.
        t->regs.gpr[kRegA] = kSysIpcServerReceive;
        t->regs.gpr[kRegB] = p->badge;
        co_return KStatus::kOk;
      }
    }
    co_await Block(ctx, ServersQueueOf(obj));
  }
}

// ---------------------------------------------------------------------------
// Oneway datagrams.
// ---------------------------------------------------------------------------

KTask DoOnewaySend(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  // Oneway IPC is port-addressed and connectionless; register B names the
  // target port (directly or via a Reference).
  Port* port = LookupPortArg(t, t->regs.gpr[kRegB]);
  if (port == nullptr) {
    co_return KStatus::kBadHandle;
  }
  KernelMsg msg;
  msg.badge = port->badge;
  const uint32_t n = std::min<uint32_t>(t->regs.gpr[kRegD], 8);
  for (uint32_t i = 0; i < n;) {
    uint32_t fa = 0;
    if (!t->space->ReadWord(t->regs.gpr[kRegC] + 4 * i, &msg.words[i], &fa)) {
      KStatus s = co_await ResolveFault(ctx, t->space, fa, /*is_write=*/false, kFaultSideClient,
                                        /*count_ipc=*/false, 0);
      if (s != KStatus::kOk) {
        co_return s;
      }
      continue;  // retry this word
    }
    k.Charge(k.costs.ipc_per_word);
    ++i;
  }
  msg.len = n;
  k.DeliverKernelMsg(port, msg);
  co_return KStatus::kOk;
}

uint32_t ToUserError(KStatus s) {
  switch (s) {
    case KStatus::kOk:
      return kFlukeOk;
    case KStatus::kBadHandle:
      return kFlukeErrBadHandle;
    case KStatus::kBadType:
      return kFlukeErrBadType;
    case KStatus::kBadAddress:
    case KStatus::kNoPager:
      return kFlukeErrBadAddress;
    case KStatus::kBadArgument:
      return kFlukeErrBadArgument;
    case KStatus::kNotConnected:
      return kFlukeErrNotConnected;
    case KStatus::kAlreadyConnected:
      return kFlukeErrAlreadyConnected;
    case KStatus::kCancelled:
      return kFlukeErrInterrupted;
    case KStatus::kDead:
      return kFlukeErrDead;
    case KStatus::kNoMemory:
      return kFlukeErrNoMemory;
    default:
      return kFlukeErrBadArgument;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// The engine: interprets the thread's entrypoint register until the
// operation completes or blocks. Stage commits rewrite register A in place,
// so a restart (interrupt model) or a resume (process model) both land in
// the right stage.
// ---------------------------------------------------------------------------

KTask SysIpcEngine(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  Thread* t = ctx.thread;
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);

  for (;;) {
    const uint32_t sys = t->regs.gpr[kRegA];
    switch (sys) {
      // --- Client connect phase ---
      case kSysIpcClientConnect:
      case kSysIpcClientConnectSend:
      case kSysIpcClientConnectSendOverReceive: {
        if (t->ipc_peer != nullptr) {
          k.Finish(t, kFlukeErrAlreadyConnected);
          co_return KStatus::kOk;
        }
        KStatus s = co_await DoConnect(ctx);
        if (s != KStatus::kOk) {
          k.Finish(t, ToUserError(s));
          co_return KStatus::kOk;
        }
        const uint32_t succ = ConnectSuccessor(sys);
        if (succ == 0) {
          k.Finish(t, kFlukeOk);
          co_return KStatus::kOk;
        }
        t->regs.gpr[kRegA] = succ;  // commit
        break;
      }

      // --- Send stages ---
      case kSysIpcClientSend:
      case kSysIpcClientSendOverReceive:
      case kSysIpcServerSend:
      case kSysIpcServerSendOverReceive:
      case kSysIpcServerAckSend:
      case kSysIpcServerAckSendOverReceive:
      case kSysIpcServerAckSendWaitReceive:
      case kSysIpcServerSendWaitReceive: {
        // Ack variants first complete a pending exception reply.
        if ((sys == kSysIpcServerAckSend || sys == kSysIpcServerAckSendOverReceive ||
             sys == kSysIpcServerAckSendWaitReceive) &&
            t->exception_victim != nullptr) {
          Thread* victim = t->exception_victim;
          t->exception_victim = nullptr;
          k.CompleteFaultWait(victim);
          bool disconnect = false;
          const uint32_t succ = SendSuccessor(sys, &disconnect);
          // Exception replies carry no data payload.
          if (succ == 0 || succ == kSysIpcWaitReceive) {
            if (succ == 0) {
              k.Finish(t, kFlukeOk);
              co_return KStatus::kOk;
            }
            t->regs.gpr[kRegA] = succ;
            break;
          }
          t->regs.gpr[kRegA] = succ;
          break;
        }
        KStatus s = co_await DoSendPhase(ctx);
        if (s != KStatus::kOk) {
          k.Finish(t, ToUserError(s));
          co_return KStatus::kOk;
        }
        bool disconnect = false;
        const uint32_t succ = SendSuccessor(sys, &disconnect);
        if (disconnect) {
          IpcDisconnect(k, t);
        }
        if (succ == 0) {
          k.Charge(k.costs.ipc_finish);
          k.Finish(t, kFlukeOk);
          co_return KStatus::kOk;
        }
        t->regs.gpr[kRegA] = succ;  // commit the stage transition
        break;
      }

      // --- Receive stages ---
      case kSysIpcClientReceive:
      case kSysIpcServerReceive: {
        KStatus s = co_await DoReceivePhase(ctx);
        k.Charge(k.costs.ipc_finish);
        k.Finish(t, ToUserError(s));
        co_return KStatus::kOk;
      }

      // --- Server wait stages ---
      case kSysIpcWaitReceive: {
        KStatus s = co_await DoWaitPhase(ctx, /*accept_clients=*/true);
        if (s == KStatus::kDead) {
          co_return KStatus::kOk;  // kmsg delivered; op finished inside
        }
        if (s != KStatus::kOk) {
          k.Finish(t, ToUserError(s));
          co_return KStatus::kOk;
        }
        break;  // accepted: A committed to kSysIpcServerReceive
      }
      case kSysIpcServerOnewayReceive: {
        KStatus s = co_await DoWaitPhase(ctx, /*accept_clients=*/false);
        if (s == KStatus::kDead) {
          co_return KStatus::kOk;
        }
        k.Finish(t, ToUserError(s == KStatus::kOk ? KStatus::kBadArgument : s));
        co_return KStatus::kOk;
      }
      case kSysIpcReplyWaitReceive: {
        // Zero-data reply: complete a pending exception, or signal the
        // message boundary to a blocked peer receiver; then disconnect and
        // wait for the next request.
        if (t->exception_victim != nullptr) {
          Thread* victim = t->exception_victim;
          t->exception_victim = nullptr;
          k.CompleteFaultWait(victim);
        } else if (t->ipc_peer != nullptr) {
          Thread* peer = t->ipc_peer;
          if (BlockedInIpc(peer) && IpcStance(peer) == IpcStance_kReceiving) {
            CompleteBlocked(k, peer, kFlukeOk);
          }
          IpcDisconnect(k, t);
        }
        t->regs.gpr[kRegA] = kSysIpcWaitReceive;  // commit
        break;
      }

      // --- Alerts ---
      case kSysIpcClientAlert: {
        Thread* peer = t->ipc_peer;
        if (peer == nullptr) {
          k.Finish(t, kFlukeErrNotConnected);
          co_return KStatus::kOk;
        }
        if (BlockedInIpc(peer) && (IpcStance(peer) == IpcStance_kReceiving ||
                                   peer->regs.gpr[kRegA] == kSysIpcServerAlertWait)) {
          CompleteBlocked(k, peer, peer->regs.gpr[kRegA] == kSysIpcServerAlertWait
                                       ? kFlukeOk
                                       : kFlukeErrInterrupted);
        } else {
          peer->ipc_alerted = true;
        }
        k.Finish(t, kFlukeOk);
        co_return KStatus::kOk;
      }
      case kSysIpcServerAlertWait: {
        if (t->ipc_alerted) {
          t->ipc_alerted = false;
          k.Finish(t, kFlukeOk);
          co_return KStatus::kOk;
        }
        t->block_kind = BlockKind::kIpcWait;
        co_await Block(ctx, nullptr);
        break;  // re-check on resume/restart
      }

      // --- Oneway datagrams (connect_oneway_send is a fused
      //     connect+send+disconnect, i.e. exactly a datagram) ---
      case kSysIpcClientOnewaySend:
      case kSysIpcClientConnectOnewaySend: {
        KStatus s = co_await DoOnewaySend(ctx);
        k.Finish(t, ToUserError(s));
        co_return KStatus::kOk;
      }

      // --- User-initiated exception IPC to the space keeper ---
      case kSysIpcExceptionSend: {
        Space* space = t->space;
        if (space->keeper == nullptr || !space->keeper->alive()) {
          k.Finish(t, kFlukeErrNoPager);
          co_return KStatus::kOk;
        }
        k.Charge(k.costs.fault_msg_build);
        KernelMsg msg;
        msg.words[kFaultMsgKind] = 2;  // user exception
        msg.words[kFaultMsgThread] = static_cast<uint32_t>(t->id());
        msg.words[kFaultMsgAddr] = t->regs.gpr[kRegC];
        msg.words[kFaultMsgWrite] = t->regs.gpr[kRegD];
        msg.len = kFaultMsgWords;
        msg.victim = t;
        msg.badge = space->keeper->badge;
        t->fault_deliver_time = k.clock.now();
        t->fault_count_ipc = false;
        t->fault_from_exception_send = true;
        t->block_kind = BlockKind::kFaultWait;
        k.DeliverKernelMsg(space->keeper, msg);
        co_await Block(ctx, nullptr);
        // The keeper's reply completes this op via CompleteFaultWait (which
        // recognizes exception_send); if we resume here (process model after
        // a spurious wake), just finish.
        k.Finish(t, kFlukeOk);
        co_return KStatus::kOk;
      }

      default:
        k.Finish(t, kFlukeErrBadArgument);
        co_return KStatus::kOk;
    }
  }
}

// ---------------------------------------------------------------------------
// Short disconnect entrypoints.
// ---------------------------------------------------------------------------

KTask SysIpcClientDisconnect(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.short_body);
  IpcDisconnect(k, ctx.thread);
  k.Finish(ctx.thread, kFlukeOk);
  co_return KStatus::kOk;
}

KTask SysIpcServerDisconnect(SysCtx& ctx) {
  Kernel& k = *ctx.kernel;
  k.Charge(k.costs.short_body);
  Thread* t = ctx.thread;
  if (t->exception_victim != nullptr) {
    // Dropping a fault without remedy: fail the victim.
    Thread* victim = t->exception_victim;
    t->exception_victim = nullptr;
    if (victim->run_state == ThreadRun::kBlocked &&
        victim->block_kind == BlockKind::kFaultWait) {
      victim->block_kind = BlockKind::kNone;
      k.Finish(victim, kFlukeErrNoPager);
      k.MakeRunnable(victim);
    }
  }
  IpcDisconnect(k, t);
  k.Finish(t, kFlukeOk);
  co_return KStatus::kOk;
}

// ---------------------------------------------------------------------------
// Frameless twins (SyscallDef::fast). Each replays, line for line, the path
// SysIpcEngine and its child coroutines would take under the same gates --
// every charge in order, the FP lock from a real KLockGuard, and each frame
// the route would create accounted synthetically (sizes probed once), so
// Table 7, the schedule and the final state are unchanged
// (tests/fastpath_equivalence_test.cc). A twin that blocks does so through
// CommitFastBlock, and only where a completion or a cancel is the sole end
// of the wait: a wake would resume a frame the twin never created.
// ---------------------------------------------------------------------------

// Direct-handoff send, for the six reliable-IPC send entrypoints. When the
// receiver is already blocked in its receive stage -- the steady state of an
// RPC round trip -- the send collapses to: copy the message, complete the
// blocked peer, and either finish or block in the receive stage of a
// *SendOverReceive successor.
//
// Gates (checked before ANY mutation; declining falls back to the engine):
//  * no pending exception reply to ack, and no alert for a successor
//    receive stage to surface;
//  * transfer shorter than one chunk AND one preemption interval, so the
//    slow path's chunk loop would run without preemption-point charges;
//  * whole message fits the receiver's buffer (sender's stage completes,
//    never blocks mid-message);
//  * both buffers word-aligned and fully translated with sufficient rights
//    (the slow path's memcpy route; translation itself only touches the
//    TLB, which is host-side state);
//  * under FP, one chunk: a second would follow a Work() preemption point.
bool FastIpcSend(Kernel& k, Thread* t, const SyscallDef& def) {
  const uint32_t sys = def.num;
  if ((sys == kSysIpcServerAckSend || sys == kSysIpcServerAckSendOverReceive) &&
      t->exception_victim != nullptr) {
    return false;  // ack must complete the pending exception reply
  }
  if (t->ipc_alerted) {
    return false;  // a successor receive stage must surface the alert
  }
  Thread* peer = t->ipc_peer;
  if (peer == nullptr || !peer->alive() || !BlockedInIpc(peer) ||
      IpcStance(peer) != IpcStance_kReceiving || peer->regs.gpr[kRegDI] == 0) {
    return false;
  }
  const uint32_t d = t->regs.gpr[kRegD];
  if (d > peer->regs.gpr[kRegDI] || d > kChunkWords ||
      4ull * d > k.cfg.preempt_chunk_bytes) {
    return false;
  }

  // Pre-validate the copy: simulate TransferData's chunking (message fits
  // one chunk's worth of words but may still split on page boundaries) and
  // require every piece to translate. 2 KiB crosses at most one page
  // boundary per side, so four chunks always suffice.
  struct ChunkPlan {
    uint8_t* sp;
    uint8_t* dp;
    uint32_t words;
  };
  ChunkPlan plan[4];
  int nchunks = 0;
  if (d > 0) {
    uint32_t src = t->regs.gpr[kRegC];
    uint32_t dst = peer->regs.gpr[kRegSI];
    if (((src | dst) & 3u) != 0) {
      return false;  // misaligned: the word loop's fidelity isn't worth it
    }
    uint32_t rem = d;
    uint32_t di = peer->regs.gpr[kRegDI];
    while (rem > 0) {
      uint32_t words = std::min(rem, di);
      words = std::min(words, kChunkWords);
      words = std::min(words, WordsToPageEnd(src));
      words = std::min(words, WordsToPageEnd(dst));
      if (words == 0 || nchunks == 4) {
        return false;
      }
      const uint32_t bytes = 4 * words;
      const Span ss =
          t->space->TranslateSpan(src, kPageSize - (src & kPageMask), kProtRead);
      if (ss.len < bytes) {
        return false;
      }
      const Span ds =
          peer->space->TranslateSpan(dst, kPageSize - (dst & kPageMask), kProtWrite);
      if (ds.len < bytes) {
        return false;
      }
      plan[nchunks++] = ChunkPlan{ss.ptr, ds.ptr, words};
      src += bytes;
      dst += bytes;
      rem -= words;
      di -= words;
    }
  }
  if (k.cfg.preempt == PreemptMode::kFull && nchunks > 1) {
    return false;
  }

  static const size_t f_send = ProbeFrameSize(DoSendPhase);
  static const size_t f_recv = ProbeFrameSize(DoReceivePhase);
  static const size_t f_transfer =
      ProbeFrameSize(TransferData, static_cast<Thread*>(nullptr), static_cast<Thread*>(nullptr));

  // --- Committed: from here on, replicate the slow path exactly. ---
  // Reachable traced: a trace-only armed run keeps the fast path
  // (Kernel::TraceOnlyInstrumentation), so the handoff marks itself with
  // this instant and emits the same chunk/flow events the engine route
  // would.
  k.trace.Record(k.clock.now(), TraceKind::kIpcFastHandoff, t->id(), d);
  ++k.stats.ipc_fast_handoffs;
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysIpcEngine(ctx)
  SysCtx ctx{&k, t};
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  k.AccountFrameAlloc(t, f_send);  // co_await DoSendPhase(ctx)
  if (d == 0) {
    // Zero-length send: pure message boundary for the blocked receiver.
    k.CompleteBlockedOp(peer, kFlukeOk);
  } else {
    k.AccountFrameAlloc(t, f_transfer);  // co_await TransferData(ctx, t, peer)
    for (int c = 0; c < nchunks; ++c) {
      k.trace.Record(k.clock.now(), TraceKind::kIpcChunk, t->id(), plan[c].words);
      std::memcpy(plan[c].dp, plan[c].sp, 4 * plan[c].words);
      k.Charge(k.costs.ipc_chunk_setup + 2ull * plan[c].words * k.costs.ipc_per_word);
      k.ChargeFpLocks();  // per-chunk: both spaces' pmap access is locked
      t->regs.gpr[kRegC] += 4 * plan[c].words;
      t->regs.gpr[kRegD] -= plan[c].words;
      peer->regs.gpr[kRegSI] += 4 * plan[c].words;
      peer->regs.gpr[kRegDI] -= plan[c].words;
    }
    // Final commit (D == 0): SettleBlockedPeerAtCommit completes the blocked
    // receiver at the message boundary.
    k.CompleteBlockedOp(peer, kFlukeOk);
    k.AccountFrameFree(t, f_transfer);
  }
  k.AccountFrameFree(t, f_send);  // DoSendPhase co_returned kOk

  bool disconnect = false;
  const uint32_t succ = SendSuccessor(sys, &disconnect);  // never disconnects here
  (void)disconnect;
  if (succ != 0) {
    t->regs.gpr[kRegA] = succ;       // commit the stage transition
    k.AccountFrameAlloc(t, f_recv);  // co_await DoReceivePhase(ctx)
    if (t->regs.gpr[kRegDI] != 0) {
      // The peer (just completed) can't feed us: block at the committed
      // restart point, exactly like `co_await Block(ctx, nullptr)`.
      k.CommitFastBlock(t, BlockKind::kIpcWait, {f_recv, def.frame_bytes}, &lock);
      return true;
    }
    // Degenerate receive: zero-length buffer completes immediately.
    k.AccountFrameFree(t, f_recv);
  }
  k.Charge(k.costs.ipc_finish);
  k.Finish(t, kFlukeOk);
  return true;
}

// Pure ipc_client_connect: pairs with a waiting server and completes, or
// queues on the port and blocks framelessly. Only an accepting server (which
// completes it), a cancel or a port destroy ends that wait.
bool FastIpcConnect(Kernel& k, Thread* t, const SyscallDef& def) {
  if (t->ipc_peer != nullptr) {
    return false;
  }
  Port* port = LookupPortArg(t, t->regs.gpr[kRegB]);
  if (port == nullptr) {
    return false;
  }
  static const size_t f_connect = ProbeFrameSize(DoConnect);
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysIpcEngine(ctx)
  SysCtx ctx{&k, t};
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  k.AccountFrameAlloc(t, f_connect);  // co_await DoConnect(ctx)
  k.Charge(k.costs.ipc_connect);
  Thread* server = port->servers.Dequeue();
  if (server == nullptr && port->member_of != nullptr) {
    server = port->member_of->servers.Dequeue();
  }
  if (server == nullptr) {
    port->waiting_clients.PushBack(t);
    t->queued_on_port = port;
    k.WakeAll(&port->pollers);
    if (port->member_of != nullptr) {
      k.WakeAll(&port->member_of->pollers);
    }
    k.CommitFastBlock(t, BlockKind::kIpcWait, {f_connect, def.frame_bytes}, &lock);
    return true;
  }
  server->block_kind = BlockKind::kIpcWait;
  PairClientServer(k, t, server, port);
  server->regs.gpr[kRegA] = kSysIpcServerReceive;
  server->regs.gpr[kRegB] = port->badge;
  k.AccountFrameFree(t, f_connect);  // DoConnect co_returned kOk
  k.Finish(t, kFlukeOk);
  return true;
}

// ipc_wait_receive with a pure-connect client queued: accept and complete
// that client, then block framelessly in the receive stage, where only the
// client's send (a completion), its disconnect or a cancel can end the wait.
// With no client queued it declines: a kernel message resumes a wait-phase
// frame through WakeServer.
bool FastIpcWaitReceive(Kernel& k, Thread* t, const SyscallDef& def) {
  if (t->ipc_alerted || t->regs.gpr[kRegDI] == 0) {
    return false;  // the receive stage would complete at once
  }
  KernelObject* obj = t->space->Lookup(t->regs.gpr[kRegB]);
  if (obj == nullptr || (obj->type() != ObjType::kPort && obj->type() != ObjType::kPortset) ||
      PortWithKmsg(obj) != nullptr) {
    return false;
  }
  Port* p = PortWithClient(obj);
  if (p == nullptr || p->waiting_clients.Front()->regs.gpr[kRegA] != kSysIpcClientConnect) {
    return false;
  }
  static const size_t f_wait = ProbeFrameSize(DoWaitPhase, true);
  static const size_t f_recv = ProbeFrameSize(DoReceivePhase);
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = SysIpcEngine(ctx)
  SysCtx ctx{&k, t};
  KLockGuard lock(ctx);
  k.Charge(k.costs.short_body);
  k.AccountFrameAlloc(t, f_wait);  // co_await DoWaitPhase(ctx, true)
  Thread* client = p->waiting_clients.PopFront();
  client->queued_on_port = nullptr;
  PairClientServer(k, client, t, p);
  AdvanceBlockedClientAfterAccept(k, client);  // pure connect: completes it
  t->regs.gpr[kRegA] = kSysIpcServerReceive;
  t->regs.gpr[kRegB] = p->badge;
  k.AccountFrameFree(t, f_wait);
  k.AccountFrameAlloc(t, f_recv);  // co_await DoReceivePhase(ctx)
  k.CommitFastBlock(t, BlockKind::kIpcWait, {f_recv, def.frame_bytes}, &lock);
  return true;
}

// ipc_client_disconnect and ipc_server_disconnect. The server's declines
// while an exception victim is pending (the handler must fail it); the
// client's does too, which only sends that rare case down the engine.
bool FastIpcDisconnect(Kernel& k, Thread* t, const SyscallDef& def) {
  if (t->exception_victim != nullptr) {
    return false;
  }
  k.AccountFrameAlloc(t, def.frame_bytes);  // t->op = def.handler(ctx)
  k.Charge(k.costs.short_body);
  IpcDisconnect(k, t);
  k.Finish(t, kFlukeOk);
  return true;
}

}  // namespace fluke
