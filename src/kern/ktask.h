// Kernel-operation coroutines: the execution-model layer.
//
// Every syscall handler is a coroutine returning KTask. This is where the
// paper's two execution models meet one source base:
//
//  * PROCESS MODEL -- when a handler blocks (co_await ctx.Block(...)), the
//    coroutine frame is retained by the thread. The frame IS the thread's
//    kernel stack: locals live across the sleep and the handler resumes
//    mid-stream when the thread wakes.
//
//  * INTERRUPT MODEL -- when a handler blocks, the dispatcher destroys the
//    coroutine frame (RAII unwinds any kernel state, exactly like
//    "unwinding the kernel stack"). The thread's committed user registers
//    name a restart entrypoint; waking the thread simply re-executes the
//    syscall. The registers are the continuation (paper section 5.1).
//
// Handlers are written once; the invariant they must maintain is the atomic
// API's commit discipline: BEFORE any await that can suspend, the thread's
// user registers must describe a consistent restart point. The handlers in
// syscalls.cc and ipc.cc observe this discipline; the property tests in
// tests/ verify it by cancelling operations at every possible block point.
//
// Frame allocations are instrumented (operator new/delete on the promise)
// so Table 7 can report measured kernel-stack bytes per thread.

#ifndef SRC_KERN_KTASK_H_
#define SRC_KERN_KTASK_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>

#include "src/base/status.h"
#include "src/kern/fwd.h"

namespace fluke {

// Context of the in-progress kernel operation. Lives inside the Thread (not
// on the dispatcher's host stack) because process-model frames outlive a
// single dispatch.
struct SysCtx {
  Kernel* kernel = nullptr;
  Thread* thread = nullptr;
};

class KTask {
 public:
  struct promise_type {
    KStatus value = KStatus::kOk;
    std::coroutine_handle<> continuation;  // parent coroutine, if nested

    KTask get_return_object() {
      return KTask(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept {
        auto& p = h.promise();
        // Transfer control back to the awaiting parent, or to the resumer
        // (the dispatcher) for a top-level task.
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_value(KStatus v) { value = v; }
    void unhandled_exception();

    // Frame-byte accounting for Table 7 (defined in ktask.cc).
    static void* operator new(std::size_t n);
    static void operator delete(void* p, std::size_t n);
  };

  using Handle = std::coroutine_handle<promise_type>;

  KTask() = default;
  explicit KTask(Handle h) : h_(h) {}
  KTask(KTask&& o) noexcept : h_(o.h_) { o.h_ = {}; }
  KTask& operator=(KTask&& o) noexcept {
    Reset();
    h_ = o.h_;
    o.h_ = {};
    return *this;
  }
  KTask(const KTask&) = delete;
  KTask& operator=(const KTask&) = delete;
  ~KTask() { Reset(); }

  bool valid() const { return static_cast<bool>(h_); }
  bool done() const { return h_.done(); }
  KStatus result() const { return h_.promise().value; }
  Handle handle() const { return h_; }

  // Destroys the frame (and, transitively, any suspended child frames held
  // in its locals). Used by the interrupt model on every block and by
  // cancellation in both models.
  void Reset() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  // Releases ownership without destroying (dispatcher bookkeeping).
  Handle Release() {
    Handle h = h_;
    h_ = {};
    return h;
  }

  // Awaiting a child KTask starts it via symmetric transfer and yields its
  // KStatus result.
  struct ChildAwaiter {
    Handle child;
    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
      child.promise().continuation = parent;
      return child;
    }
    KStatus await_resume() const noexcept { return child.promise().value; }
  };
  ChildAwaiter operator co_await() const& noexcept { return ChildAwaiter{h_}; }

 private:
  Handle h_;
};

// ---------------------------------------------------------------------------
// Thread-level suspension awaitables. Each one parks the whole coroutine
// chain and returns control to the dispatcher; what happens to the frame is
// the execution model's decision (see dispatch.cc).
// ---------------------------------------------------------------------------

// Blocks the current thread on a wait queue. The handler must have committed
// a consistent restart state to the thread's registers first.
struct BlockAwaiter {
  SysCtx* ctx;
  WaitQueue* queue;  // may be null: bare suspension (stop/fault wait states)
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) noexcept;  // ktask.cc
  void await_resume() const noexcept {}
};

// Charges `cycles` of kernel work; under full preemption this is a
// preemption opportunity (the dispatcher may requeue the thread and resume
// the frame later).
struct WorkAwaiter {
  SysCtx* ctx;
  uint64_t cycles;
  bool await_ready() noexcept;                             // ktask.cc
  void await_suspend(std::coroutine_handle<> h) noexcept;  // ktask.cc
  void await_resume() const noexcept {}
};

// Sets the (kernel, thread) pair to which coroutine-frame allocations are
// attributed. Called by the dispatcher around spawn/resume/destroy.
void SetFrameAccounting(Kernel* k, Thread* t);

// Reads the current attribution pair, so code that destroys ANOTHER
// thread's frames mid-dispatch (peer completion/cancellation) can restore
// the running thread's attribution afterwards instead of leaving frame
// events of the still-running handler charged to the completed peer.
void GetFrameAccounting(Kernel** k, Thread** t);

// Frame-size probing for the fast-path dispatch (dispatch.cc/ipc.cc): the
// bytes a handler's coroutine frame would occupy, discovered by creating
// the initially-suspended frame once (the body never runs) and destroying
// it. While a scope is live, frame accounting is suppressed and every
// promise allocation records its size into the scope instead, so probing
// never perturbs Table 7. Fast handlers charge the probed sizes through
// AccountFrameAlloc/Free synthetically, keeping frame stats bit-identical
// to the slow path without paying for real allocations.
class FrameProbeScope {
 public:
  FrameProbeScope();
  ~FrameProbeScope();
  FrameProbeScope(const FrameProbeScope&) = delete;
  FrameProbeScope& operator=(const FrameProbeScope&) = delete;
  size_t bytes() const { return bytes_; }

 private:
  size_t bytes_ = 0;
  Kernel* saved_kernel_;
  Thread* saved_thread_;
  size_t* saved_probe_;
};

// Probes the frame size of a handler or a child coroutine, called with a
// dummy context and `args` (see FrameProbeScope).
template <typename... Params, typename... Args>
size_t ProbeFrameSize(KTask (*fn)(SysCtx&, Params...), Args... args) {
  FrameProbeScope probe;
  SysCtx dummy;
  {
    // initial_suspend is suspend_always: this allocates the frame without
    // running the body, and the temporary's destructor frees it.
    KTask task = fn(dummy, args...);
  }
  return probe.bytes();
}

// An explicit preemption point (partial-preemption configurations). The
// handler must have committed restart state: in the interrupt model the
// frame is destroyed and the thread restarts from its registers.
struct PreemptPointAwaiter {
  SysCtx* ctx;
  bool await_ready() noexcept;                             // ktask.cc
  void await_suspend(std::coroutine_handle<> h) noexcept;  // ktask.cc
  void await_resume() const noexcept {}
};

}  // namespace fluke

#endif  // SRC_KERN_KTASK_H_
