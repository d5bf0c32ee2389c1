// The Fluke kernel object types (paper Table 2) and the thread control block.
//
// All nine primitive types -- Mutex, Cond, Mapping, Region, Port, Portset,
// Space, Thread, Reference -- derive from KernelObject and support the
// common operations (create, destroy, rename, reference, get_state,
// set_state) through the syscall layer. Space lives in space.h; the rest
// are defined here. The Kernel owns every object (kernel.h); everything
// else, handle tables and references included, holds borrowed pointers.

#ifndef SRC_KERN_OBJECTS_H_
#define SRC_KERN_OBJECTS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/api/abi.h"
#include "src/base/intrusive_list.h"
#include "src/hal/clock.h"
#include "src/kern/fwd.h"
#include "src/kern/ktask.h"
#include "src/kern/timerwheel.h"
#include "src/uvm/program.h"

namespace fluke {

class KernelObject {
 public:
  KernelObject(ObjType type, uint64_t id) : type_(type), id_(id) {}
  virtual ~KernelObject() = default;

  KernelObject(const KernelObject&) = delete;
  KernelObject& operator=(const KernelObject&) = delete;

  ObjType type() const { return type_; }
  uint64_t id() const { return id_; }
  bool alive() const { return alive_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  // Marks the object dead. Type-specific teardown (waking waiters, breaking
  // links) is done by Kernel::DestroyObject before this is called.
  void MarkDead() { alive_ = false; }

 private:
  ObjType type_;
  uint64_t id_;
  bool alive_ = true;
  std::string name_;
};

// ---------------------------------------------------------------------------
// Thread.
// ---------------------------------------------------------------------------

enum class ThreadRun : int {
  kEmbryo = 0,  // created, never started
  kRunnable,
  kRunning,
  kBlocked,  // on a WaitQueue (or bare fault/stop wait)
  kStopped,  // suspended by thread_stop_self / state manipulation
  kDead,
};

const char* ThreadRunName(ThreadRun s);

// Why a blocked thread is blocked -- purely informational/bookkeeping; the
// user-visible state is entirely in the registers.
enum class BlockKind : int {
  kNone = 0,
  kWaitQueue,  // generic wait queue (mutex, cond, server receive, ...)
  kIpcWait,    // IPC rendezvous: waiting for the peer (or for an accept)
  kFaultWait,  // awaiting a hard-fault remedy from a user-mode manager
  kStopSelf,   // thread_stop_self
};

struct Thread final : public KernelObject {
  Thread(uint64_t id, Space* space, ProgramRef program)
      : KernelObject(ObjType::kThread, id), space(space), program(std::move(program)) {}

  // --- Identity / code ---
  Space* space;
  ProgramRef program;
  UserRegisters regs;

  // --- Scheduling ---
  int priority = 4;  // 0..7, higher runs first
  ThreadRun run_state = ThreadRun::kEmbryo;
  // Home CPU: index of the per-CPU run queue this thread is made runnable
  // on. Follows the space's affinity domain (Kernel::HomeCpuOf); updated by
  // the kernel on domain merges. Always 0 at num_cpus == 1.
  int home_cpu = 0;
  ListNode rq_node;             // run-queue linkage
  uint32_t slice_ticks = 0;     // remaining timeslice
  Time wake_time = 0;           // when last made runnable (latency probe)
  bool latency_probe = false;   // record wake->run latencies (Table 6);
                                // set via Kernel::SetLatencyProbe
  ListNode probe_node;          // Kernel::latency_probes_ linkage
  bool legacy = false;          // pseudo-kernel thread (section 5.6)

  // --- In-progress kernel operation ---
  SysCtx ctx;                     // stable storage: handlers hold &ctx
  KTask op;                       // top-level frame (process model keeps it)
  std::coroutine_handle<> resume_point;  // innermost suspended frame
  KStatus op_status = KStatus::kOk;
  uint32_t op_sys = 0;        // entrypoint currently executing
  uint32_t op_aux = 0;        // table aux (object type for common ops)
  uint32_t self_handle = 0;   // this thread's handle in its own space
  uint64_t sleep_token = 0;   // invalidates stale clock_sleep wakeups
  // Armed timeout, if any (owned by Kernel::timers). Cancelling the op
  // frees the wheel entry immediately via Kernel::CancelSleepTimer.
  TimerWheel::Entry* timer_entry = nullptr;

  // --- Blocking ---
  WaitQueue* waiting_on = nullptr;
  BlockKind block_kind = BlockKind::kNone;
  ListNode wq_node;

  // --- Fault state (valid while block_kind == kFaultWait or when the
  //     thread last faulted) ---
  uint32_t fault_addr = 0;
  bool fault_write = false;
  int fault_side = 0;           // FaultSide, for Table 3 attribution
  bool fault_count_ipc = false;  // attribute to the IPC fault table
  Time fault_deliver_time = 0;   // when the exception IPC was delivered
  bool fault_from_exception_send = false;  // fault-wait is a user exception IPC
  bool restart_pending = false;  // stat: next syscall entry is a restart
  // Bounded-retry count for transient frame exhaustion on the user fault
  // path (reset on every successful resolve).
  uint32_t oom_retries = 0;
  // Set on threads re-created by a forced extraction (fault injection);
  // completion of such a thread counts as a passed restart audit.
  bool forced_restart = false;

  // --- IPC connection (stored in the TCB, paper section 4.3) ---
  Thread* ipc_peer = nullptr;      // connected peer thread
  bool ipc_is_server = false;      // role on the current connection
  Thread* exception_victim = nullptr;  // fault-IPC victim this server must answer
  Port* queued_on_port = nullptr;  // port this client is queued on, if any
  ListNode port_node;
  uint32_t port_badge = 0;  // badge of the port we connected through
  bool ipc_alerted = false;

  // --- Exit / join ---
  uint32_t exit_code = 0;
  std::unique_ptr<WaitQueue> join_wait;  // created lazily (thread.cc)

  // --- Device waits ---
  int irq_line = -1;  // line this thread is blocked on (irq_wait)

  // --- Kernel-stack accounting (Table 7) ---
  uint64_t kstack_bytes = 0;  // live coroutine-frame bytes
  uint64_t kstack_bytes_peak = 0;
  bool blocked_bytes_counted = false;
  // Process-model frameless block (Kernel::CommitFastBlock): the thread is
  // blocked with kstack_bytes accounted synthetically but no real retained
  // frame, so only a completion or a cancel may end it, and that path
  // releases the bytes itself instead of via op.Reset(). frameless_lock:
  // the frame it stands for holds an FP KLockGuard, whose release the same
  // path charges.
  bool frameless_block = false;
  bool frameless_lock = false;

  // --- Open trace spans (host-side observability; see src/kern/trace.h).
  //     Nonzero only while the trace buffer is enabled; invisible to
  //     DumpKernel and the equivalence sweeps. ---
  uint64_t trace_sys_span = 0;     // syscall-lifetime span
  uint64_t trace_block_span = 0;   // block->wake span
  uint64_t trace_remedy_span = 0;  // fault-remedy span (open across hard faults)
  Time trace_sys_t0 = 0;           // span start times, for the histograms
  Time trace_block_t0 = 0;

  bool HasRetainedFrame() const { return op.valid(); }
};

// ---------------------------------------------------------------------------
// WaitQueue: FIFO queue of blocked threads.
// ---------------------------------------------------------------------------

class WaitQueue {
 public:
  bool empty() const { return list_.empty(); }
  size_t size() const { return list_.size(); }

  void Enqueue(Thread* t) {
    list_.PushBack(t);
    t->waiting_on = this;
  }

  Thread* Dequeue() {
    Thread* t = list_.PopFront();
    if (t != nullptr) {
      t->waiting_on = nullptr;
    }
    return t;
  }

  void Remove(Thread* t) {
    list_.Remove(t);
    t->waiting_on = nullptr;
  }

  Thread* Front() const { return list_.Front(); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    list_.ForEach(fn);
  }

 private:
  IntrusiveList<Thread, &Thread::wq_node> list_;
};

// ---------------------------------------------------------------------------
// Synchronization objects.
// ---------------------------------------------------------------------------

class Mutex final : public KernelObject {
 public:
  explicit Mutex(uint64_t id) : KernelObject(ObjType::kMutex, id) {}

  bool locked = false;
  uint64_t owner_tid = 0;  // informational; exported/restored via get/set_state
  WaitQueue waiters;
};

class Cond final : public KernelObject {
 public:
  explicit Cond(uint64_t id) : KernelObject(ObjType::kCond, id) {}

  WaitQueue waiters;
};

// ---------------------------------------------------------------------------
// IPC objects.
// ---------------------------------------------------------------------------

// A kernel-synthesized message (exception/page-fault IPC, oneway sends).
struct KernelMsg {
  uint32_t words[8] = {};
  uint32_t len = 0;
  Thread* victim = nullptr;  // faulting thread awaiting a reply, if any
  uint32_t badge = 0;
};

class Port final : public KernelObject {
 public:
  explicit Port(uint64_t id) : KernelObject(ObjType::kPort, id) {}

  uint32_t badge = 0;           // delivered to servers on accept
  WaitQueue servers;            // threads blocked in server receive on this port
  WaitQueue pollers;            // threads in portset_wait-style polling
  IntrusiveList<Thread, &Thread::port_node> waiting_clients;
  std::deque<KernelMsg> kmsgs;  // pending kernel-synthesized messages
  Portset* member_of = nullptr;
};

class Portset final : public KernelObject {
 public:
  explicit Portset(uint64_t id) : KernelObject(ObjType::kPortset, id) {}

  WaitQueue servers;
  WaitQueue pollers;
  std::vector<Port*> ports;
};

// ---------------------------------------------------------------------------
// Memory objects (the import/export hierarchy).
// ---------------------------------------------------------------------------

// Region: an exportable range of a source space's address space.
class Region final : public KernelObject {
 public:
  explicit Region(uint64_t id) : KernelObject(ObjType::kRegion, id) {}

  Space* source = nullptr;
  uint32_t base = 0;
  uint32_t size = 0;
  uint32_t prot = kProtReadWrite;
};

// Mapping: imports (part of) a Region into a destination space.
class Mapping final : public KernelObject {
 public:
  explicit Mapping(uint64_t id) : KernelObject(ObjType::kMapping, id) {}

  Space* dest = nullptr;
  uint32_t base = 0;    // in dest
  uint32_t size = 0;
  Region* src = nullptr;
  uint32_t offset = 0;  // into the region
  uint32_t prot = kProtReadWrite;
};

// Reference: a cross-object handle; most often points at a Port for
// initiating client-side IPC. Minted by create (or by the host), then
// pointed with reference().
class Reference final : public KernelObject {
 public:
  explicit Reference(uint64_t id) : KernelObject(ObjType::kReference, id) {}

  // Borrowed; the target may since have been destroyed (check alive()).
  KernelObject* target = nullptr;
};

}  // namespace fluke

#endif  // SRC_KERN_OBJECTS_H_
