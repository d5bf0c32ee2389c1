#include "src/kern/ktask.h"

#include <cstdio>
#include <cstdlib>
#include <exception>

#include "src/kern/kernel.h"
#include "src/kern/objects.h"

namespace fluke {

// ---------------------------------------------------------------------------
// Frame-byte accounting. The dispatcher sets the current (kernel, thread)
// around every handler spawn/resume/destroy; promise allocations are
// attributed to that thread. Single host thread, so plain globals suffice.
// ---------------------------------------------------------------------------

namespace {
Kernel* g_acct_kernel = nullptr;
Thread* g_acct_thread = nullptr;
size_t* g_frame_probe = nullptr;  // live FrameProbeScope target, or null
}  // namespace

void SetFrameAccounting(Kernel* k, Thread* t) {
  g_acct_kernel = k;
  g_acct_thread = t;
}

void GetFrameAccounting(Kernel** k, Thread** t) {
  *k = g_acct_kernel;
  *t = g_acct_thread;
}

FrameProbeScope::FrameProbeScope()
    : saved_kernel_(g_acct_kernel), saved_thread_(g_acct_thread), saved_probe_(g_frame_probe) {
  g_acct_kernel = nullptr;  // a probe allocation must never hit Table 7
  g_acct_thread = nullptr;
  g_frame_probe = &bytes_;
}

FrameProbeScope::~FrameProbeScope() {
  g_acct_kernel = saved_kernel_;
  g_acct_thread = saved_thread_;
  g_frame_probe = saved_probe_;
}

void* KTask::promise_type::operator new(std::size_t n) {
  if (g_frame_probe != nullptr) {
    *g_frame_probe = n;
  }
  if (g_acct_kernel != nullptr) {
    g_acct_kernel->AccountFrameAlloc(g_acct_thread, n);
  }
  return std::malloc(n);
}

void KTask::promise_type::operator delete(void* p, std::size_t n) {
  if (g_acct_kernel != nullptr) {
    g_acct_kernel->AccountFrameFree(g_acct_thread, n);
  }
  std::free(p);
}

void KTask::promise_type::unhandled_exception() {
  // Kernel handlers are exception-free by construction; an escape here is a
  // bug, and continuing would corrupt kernel state.
  std::fprintf(stderr, "fluke: exception escaped a kernel operation\n");
  std::terminate();
}

// ---------------------------------------------------------------------------
// BlockAwaiter: park the thread. What happens to the coroutine frame is the
// dispatcher's (execution model's) decision.
// ---------------------------------------------------------------------------

void BlockAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  Thread* t = ctx->thread;
  Kernel* k = ctx->kernel;
  k->Charge(k->costs.wait_enqueue);
  k->ChargeFpLocks();  // wait-queue lock
  t->resume_point = h;
  t->op_status = KStatus::kBlocked;
  t->run_state = ThreadRun::kBlocked;
  if (t->block_kind == BlockKind::kNone) {
    t->block_kind = BlockKind::kWaitQueue;
  }
  if (queue != nullptr) {
    queue->Enqueue(t);
  }
  // Returning (void) hands control back to the dispatcher's resume() call.
}

// ---------------------------------------------------------------------------
// WorkAwaiter: charge kernel work; an FP preemption opportunity.
// ---------------------------------------------------------------------------

bool WorkAwaiter::await_ready() noexcept {
  Kernel* k = ctx->kernel;
  k->Charge(cycles);
  if (k->cfg.preempt != PreemptMode::kFull) {
    return true;
  }
  // Fully preemptible kernel: every work quantum is an interrupt window.
  k->PollInterrupts();
  return !k->PreemptPending(ctx->thread);
}

void WorkAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  Thread* t = ctx->thread;
  t->resume_point = h;
  t->op_status = KStatus::kPreempted;
  // The dispatcher requeues the thread; FP exists only in the process model,
  // so the frame is retained and resumed mid-handler later.
}

// ---------------------------------------------------------------------------
// PreemptPointAwaiter: the PP configurations' explicit preemption point
// (paper: a single point on the IPC data-copy path, checked every 8 KiB).
// ---------------------------------------------------------------------------

bool PreemptPointAwaiter::await_ready() noexcept {
  Kernel* k = ctx->kernel;
  k->Charge(k->costs.preempt_point_check);
  if (k->cfg.preempt != PreemptMode::kPartial) {
    return true;  // NP ignores the point; FP already preempts at Work()
  }
  // The explicit preemption point: poll pending interrupts, yield if a
  // higher-priority thread became runnable.
  k->PollInterrupts();
  return !k->PreemptPending(ctx->thread);
}

void PreemptPointAwaiter::await_suspend(std::coroutine_handle<> h) noexcept {
  Thread* t = ctx->thread;
  t->resume_point = h;
  t->op_status = KStatus::kPreempted;
  // Process model: frame kept, resumed at this point later.
  // Interrupt model: the dispatcher destroys the frame; the committed user
  // registers restart the operation where it left off.
}

}  // namespace fluke
