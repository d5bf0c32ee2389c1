// User-level checkpointing through exportable kernel state.
//
// The paper's motivating application (section 4.1, and Tullmann et al.'s
// "User-level Checkpointing Through Exportable Kernel State"): because every
// thread's complete state is promptly and correctly exportable -- even while
// it is blocked mid-way through a multi-stage system call -- an ordinary
// user-mode process can checkpoint a task, destroy it, re-create it
// (possibly on another kernel: migration), and the result is
// indistinguishable from the original.
//
// One image format serves a single task and a whole machine: a task
// checkpoint (CaptureSpace) is a one-space MachineImage, restored like any
// other by RestoreMachine. It carries the space's threads (full register
// state + priority), memory pages, anonymous range, and the objects in its
// handle table -- mutexes, conds, and ports it holds or references, which
// restore as new ports -- preserving handle numbering so baked-in program
// immediates stay valid. A task whose thread holds a live IPC connection to
// a thread in another space is refused (the real Fluke checkpointer
// quiesces or reconstructs connections through user-level protocols; see
// DESIGN.md).

#ifndef SRC_WORKLOADS_CHECKPOINT_H_
#define SRC_WORKLOADS_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/kern/kernel.h"
#include "src/kern/state.h"

namespace fluke {

// ---------------------------------------------------------------------------
// Machine images and incremental concurrent checkpointing.
//
// A MachineImage captures a machine -- every live space (CaptureMachine) or
// one task (CaptureSpace), with every captured thread (and its live
// IPC-connection TCB fields) and the IPC objects (ports, portsets,
// references) the rpc/c1m workloads wire across spaces. It comes
// in two flavors: full (base_generation == 0, data for every resident page)
// and delta (data only for pages dirtied since the parent image, chained by
// generation number and parent digest -- see workloads/restart_log.h for
// the chain loader).
//
// Deliberate scope limits (checked at capture; structured errors, never
// asserts): single CPU, no Mappings/Regions/keeper ports, no undelivered
// fault IPC (KernelMsg with a victim), no legacy threads. Dead objects in
// handle tables are captured as kEmpty and restored as null References --
// join-on-zombie across a checkpoint is not preserved (DESIGN.md).
// ---------------------------------------------------------------------------

struct MachineImage {
  uint32_t generation = 1;
  // 0 = full image; otherwise the generation of the image this delta chains
  // to (must be generation - 1 when loaded through the restart log).
  uint32_t base_generation = 0;
  uint64_t parent_digest = 0;  // ImageDigest of the serialized parent (delta)
  Time clock_ns = 0;           // virtual time at the capture instant

  enum class ObjKind : int {
    kEmpty = 0,
    kSpaceSelf,
    kThreadSelf,  // thread whose self slot this is (global thread index)
    kThreadRef,   // another thread installed directly (c1m master's handles)
    kMutex,
    kCond,
    kPort,      // port object installed directly (global port key)
    kPortRef,   // Reference to a port (global port key)
    kPortset,   // portset object installed directly (global portset key)
  };
  struct ObjImage {
    ObjKind kind = ObjKind::kEmpty;
    int index = -1;  // thread index / port key / portset key, per kind
    bool mutex_locked = false;
    int mutex_owner_thread = -1;  // global thread index, or -1
  };
  struct ResidentPage {
    uint32_t vaddr = 0;
    uint32_t prot = 0;
  };
  struct PageImage {
    uint32_t vaddr = 0;
    uint32_t prot = 0;
    std::vector<uint8_t> data;  // kPageSize bytes
  };
  struct SpaceImage {
    std::string name;
    std::string program_name;
    uint32_t anon_base = 0;
    uint32_t anon_size = 0;
    // Every page mapped at the capture instant (delta images need the full
    // directory to represent unmaps; for a full image this equals `pages`).
    std::vector<ResidentPage> resident;
    std::vector<PageImage> pages;   // data-carrying pages
    std::vector<ObjImage> objects;  // handle slots, in order
  };
  std::vector<SpaceImage> spaces;

  struct KMsgImage {
    uint32_t words[8] = {};
    uint32_t len = 0;
    uint32_t badge = 0;
  };
  struct PortImage {
    uint32_t badge = 0;
    std::vector<KMsgImage> kmsgs;  // undelivered kernel-synthesized messages
  };
  std::vector<PortImage> ports;  // keyed by discovery order (space, slot)

  struct PortsetImage {
    std::vector<uint32_t> member_ports;  // port keys, membership order
  };
  std::vector<PortsetImage> portsets;

  struct ThreadImage {
    uint32_t space_index = 0;
    ThreadState state;
    std::string program_name;
    bool was_runnable = false;  // runnable/blocked/running (vs stopped/embryo)
    int ipc_peer = -1;          // global thread index of the connected peer
    bool ipc_is_server = false;
    uint32_t port_badge = 0;
  };
  std::vector<ThreadImage> threads;  // global order: space order, then TCB order

  size_t TotalPages() const {
    size_t n = 0;
    for (const SpaceImage& s : spaces) {
      n += s.pages.size();
    }
    return n;
  }
};

// A concurrent capture in progress. Begin() runs the serial mark phase
// (metadata snapshot + flip every page to checkpoint-CoW) and records the
// modeled pause in stats.ckpt_pause_hist; the caller then keeps running the
// kernel while the dispatch loop drains pages, and calls Finish() once
// done() (or forces completion first with Kernel::CkptDrainAll). Abort()
// detaches without producing an image.
class ConcurrentCkpt {
 public:
  ~ConcurrentCkpt() { Abort(); }

  // `delta` captures only pages dirtied since the previous capture (refused
  // unless this kernel has completed a capture before, and refused while two
  // live spaces share a name: the merge pairs spaces by name). `stw` is the
  // stop-the-world cost model: the recorded pause covers copying every page
  // rather than marking it (used by CaptureMachine; the image itself is
  // identical either way).
  bool Begin(Kernel& k, bool delta, std::string* error, bool stw = false);
  bool active() const { return kernel_ != nullptr; }
  bool done() const { return session_.done(); }
  MachineImage Finish();
  void Abort();

 private:
  MachineImage img_;
  CkptSession session_;
  Kernel* kernel_ = nullptr;
  bool delta_ = false;
};

// Stop-the-world machine capture: mark + drain everything at one instant,
// recording the full copy cost as the pause. The resulting image is
// byte-identical to what a ConcurrentCkpt begun at the same instant
// produces after draining -- that equivalence is the concurrent
// checkpointer's correctness witness (tests/ckpt_concurrent_test.cc).
bool CaptureMachine(Kernel& k, bool delta, MachineImage* out, std::string* error);

// Captures `space` from `k` as a one-space full MachineImage, refusing with
// `error` set -- and nothing stopped -- what CaptureMachine would refuse for
// that space alone (a live IPC connection to another space included). On
// success the space's threads are stopped (transparent rollback: their
// registers are committed restart points) and left stopped. Opens no
// concurrent-capture session: the image is byte-identical to CaptureMachine's
// of a machine holding just this space, and moves no ckpt_* counter.
bool CaptureSpace(Kernel& k, Space& space, MachineImage* out, std::string* error);

// Convenience: destroys every thread of `space` (after capture).
void DestroySpaceThreads(Kernel& k, Space& space);

// Restores a full (merged) machine image into `k`, a fresh kernel or a
// running one (a task restored beside live spaces), with every object new
// and handle numbering preserved per space. Programs are resolved by name
// through `programs`; threads are created stopped and `start` resumes those
// that were runnable. A clock behind the capture instant moves forward to
// it. Structured errors, never asserts; on failure partially-restored
// objects remain but no thread has been started.
struct MachineRestoreResult {
  bool ok = true;
  std::string error;
  std::vector<Space*> spaces;
  std::vector<Thread*> threads;  // global order, matching img.threads
};
MachineRestoreResult RestoreMachine(Kernel& k, const MachineImage& img,
                                    const ProgramRegistry& programs, bool start = true);

// Merges a delta chain, oldest first (chain[0] must be a full image), into
// one full image carrying the newest generation's metadata and resident
// set. Consumes the chain: page data moves into the result. A delta's spaces
// pair with their parent's by name, so every image past a full one must
// name its spaces uniquely (ConcurrentCkpt::Begin refuses such a delta).
// Returns false with `error` set on a malformed chain (generation gap,
// base/full mismatch, duplicate space names, missing page data). Digest
// validation is the loader's job (workloads/restart_log.h); this checks
// structure only.
bool MergeImageChain(std::vector<MachineImage> chain, MachineImage* out, std::string* error);

}  // namespace fluke

#endif  // SRC_WORKLOADS_CHECKPOINT_H_
