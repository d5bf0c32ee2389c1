// Kernel event tracing: causal spans, flows, and point events.
//
// A fixed-capacity power-of-two ring buffer of timestamped kernel events.
// Three event shapes share one record type:
//
//   * Point events ("instants"): Record() -- context switches, faults,
//     IPC chunks, page lends, fault injections, checkpoints.
//   * Spans: BeginSpan()/EndSpan() bracket an interval on one thread's
//     timeline (syscall lifetime, block->wake, fault remedy, idle). Span
//     ids are assigned monotonically and are never reused, so a Begin/End
//     pair is linked by id even after the ring wraps away one side.
//   * Flows: Flow() emits a FlowOut on the causing thread and a FlowIn on
//     the woken thread at the same timestamp, sharing a flow id -- this is
//     how an IPC send span is linked to the matching receive completion
//     across threads in the exported trace.
//
// Off by default and costless when off: every entry point checks enabled_
// first, and the dispatcher only reaches the hook sites at all in its
// Instrumented instantiation (see dispatch.cc). Tracing alone does NOT
// force the coroutine slow path: the fast-path handlers carry the same
// span/flow hooks as the engine route, so a trace-only armed run keeps the
// direct-handoff and trivial-completion fast paths (what makes the stream
// affordable at c1m scale). Fault plans and checkpointing still force the
// slow path. The stream is bit-identical across the interpreter engines
// and across repeated MP runs -- tests assert equality of the FNV-1a digest
// over the stream (src/kern/profile.h).
//
// An optional TraceSink observes every pushed event in stream order; the
// binary writer (src/kern/trace_binary.h) attaches here so a full-fidelity
// stream can outlive the ring on c1m-scale runs.
//
// The fluke_run CLI exposes the tracer as --trace (human-readable Dump()),
// --trace-out=FILE (Chrome/Perfetto JSON, src/kern/trace_export.h) and
// --trace-bin=FILE (compact binary, src/kern/trace_binary.h).

#ifndef SRC_KERN_TRACE_H_
#define SRC_KERN_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/hal/clock.h"

namespace fluke {

enum class TraceKind : uint8_t {
  kSyscallEnter = 0,  // span: syscall lifetime (a=sys, b=1 for a restart epoch)
  kSyscallExit,       // span end (a=sys, b=result; 0xFFFFFFFF = cancelled)
  kSyscallRestart,    // instant: interrupt-model re-entry of a blocked op
  kContextSwitch,
  kBlock,  // span begin: block->wake (a=sys, b=block kind)
  kWake,   // span end of kBlock (b: 0=woken, 1=cancelled, 2=thread exit)
  kSoftFault,
  kHardFault,
  kPreempt,  // kernel preemption (PP point or FP quantum)
  kThreadExit,
  // --- Added with the observability layer (PR 5) ---
  kIpcChunk,        // instant: one IPC transfer chunk committed (a=words)
  kIpcPageLend,     // instant: whole-page CoW lend instead of copy (a=src va)
  kIpcFastHandoff,  // instant: direct-handoff fast path committed a send
  kFaultInject,     // instant: injector fired (a: 0=extract, 1=crash, 2=connect)
  kCheckpoint,      // instant: space captured (b=0) or restored (b=1)
  kFaultRemedy,     // span: fault remedy (a=addr; end b: 0=soft, 2=hard, ...)
  kIdle,            // span on tid 0: no runnable thread, clock advancing
  kIpcFlow,         // flow out/in pair: causal wake (IPC handoff etc.)
  // --- Added with incremental checkpointing (PR 8) ---
  kCkptMark,   // instant: mark phase flipped a space's pages (a=space, b=pages)
  kCkptDrain,  // instant: drain tick captured owed pages (a=pages, b=left)
  kCkptSave,   // instant: save-on-write captured a page (a=space, b=pagenum)
};

const char* TraceKindName(TraceKind k);

// Phase of a record, mirroring the Chrome trace_event phases the exporter
// maps onto (B/E slices, s/f flows, i instants).
enum class TracePhase : uint8_t {
  kInstant = 0,
  kBegin,
  kEnd,
  kFlowOut,
  kFlowIn,
};

struct TraceEvent {
  Time when = 0;
  uint64_t span_id = 0;  // span id (Begin/End) or flow id (FlowOut/FlowIn)
  uint64_t thread_id = 0;
  TraceKind kind = TraceKind::kSyscallEnter;
  TracePhase phase = TracePhase::kInstant;
  uint32_t a = 0;  // kind-specific: syscall number, fault address, ...
  uint32_t b = 0;  // kind-specific: result, block kind, ...
};

// Observes every event pushed into an enabled TraceBuffer, in stream order
// (exactly the order and fields the ring stores, before any wrap loss).
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void OnEvent(const TraceEvent& e) = 0;
};

class TraceBuffer {
 public:
  explicit TraceBuffer(size_t capacity = 4096) { SetCapacity(capacity); }

  void Enable() { enabled_ = true; }
  void Disable() { enabled_ = false; }
  bool enabled() const { return enabled_; }

  // Rounds up to a power of two (so the ring index is a mask, and wrap
  // order stays exact) and clears the buffer. Minimum 2.
  void SetCapacity(size_t capacity);
  size_t capacity() const { return capacity_; }

  // Point event.
  void Record(Time when, TraceKind kind, uint64_t tid, uint32_t a = 0, uint32_t b = 0) {
    if (!enabled_) {
      return;
    }
    Push(when, kind, TracePhase::kInstant, 0, tid, a, b);
  }

  // Opens a span and returns its id (monotonic, nonzero). Returns 0 when
  // tracing is off -- callers store the id and EndSpan() ignores id 0, so
  // span bracketing needs no enabled() checks of its own.
  uint64_t BeginSpan(Time when, TraceKind kind, uint64_t tid, uint32_t a = 0, uint32_t b = 0) {
    if (!enabled_) {
      return 0;
    }
    const uint64_t id = ++last_span_id_;
    Push(when, kind, TracePhase::kBegin, id, tid, a, b);
    return id;
  }

  void EndSpan(Time when, TraceKind kind, uint64_t span_id, uint64_t tid, uint32_t a = 0,
               uint32_t b = 0) {
    if (!enabled_ || span_id == 0) {
      return;
    }
    Push(when, kind, TracePhase::kEnd, span_id, tid, a, b);
  }

  // Causal link: emits a FlowOut on `from_tid` and a FlowIn on `to_tid` at
  // the same timestamp with a shared flow id. Returns the id (0 when off).
  // `a` carries a kind-specific flag on both halves (the kernel passes 1
  // when the wake crosses CPUs, 0 otherwise -- see Kernel::TraceFlowTo).
  uint64_t Flow(Time when, uint64_t from_tid, uint64_t to_tid, uint32_t a = 0) {
    if (!enabled_) {
      return 0;
    }
    const uint64_t id = ++last_flow_id_;
    Push(when, TraceKind::kIpcFlow, TracePhase::kFlowOut, id, from_tid, a, 0);
    Push(when, TraceKind::kIpcFlow, TracePhase::kFlowIn, id, to_tid, a, 0);
    return id;
  }

  // Events in chronological order (oldest first; the ring may have dropped
  // earlier ones -- see dropped()).
  std::vector<TraceEvent> Snapshot() const;

  // Number of events ever recorded (including overwritten ones).
  uint64_t total_recorded() const { return next_; }
  // Number of events the ring has overwritten (lost to truncation).
  uint64_t dropped() const { return next_ > events_.size() ? next_ - events_.size() : 0; }
  size_t size() const { return events_.size(); }
  void Clear() {
    events_.clear();
    next_ = 0;
    last_span_id_ = 0;
    last_flow_id_ = 0;
  }

  // Renders the snapshot as one line per event.
  std::string Dump() const;

  // Attaches a sink that sees every pushed event (nullptr detaches). The
  // sink outlives ring truncation, so a streaming writer loses nothing even
  // with a small ring.
  void SetSink(TraceSink* sink) { sink_ = sink; }
  TraceSink* sink() const { return sink_; }

 private:
  void Push(Time when, TraceKind kind, TracePhase phase, uint64_t span_id, uint64_t tid,
            uint32_t a, uint32_t b) {
    const TraceEvent e{when, span_id, tid, kind, phase, a, b};
    if (events_.size() < capacity_) {
      events_.push_back(e);
    } else {
      events_[next_ & mask_] = e;
    }
    ++next_;
    if (sink_ != nullptr) {
      sink_->OnEvent(e);
    }
  }

  size_t capacity_ = 0;
  size_t mask_ = 0;
  bool enabled_ = false;
  TraceSink* sink_ = nullptr;
  std::vector<TraceEvent> events_;
  uint64_t next_ = 0;
  uint64_t last_span_id_ = 0;
  uint64_t last_flow_id_ = 0;
};

}  // namespace fluke

#endif  // SRC_KERN_TRACE_H_
