// Space: an address space plus the objects it holds.
//
// Per the paper, a Space "associates memory and threads". Each space owns a
// handle table (handles are small integers standing in for Fluke's
// virtual-address object handles -- see DESIGN.md), a page table mapping
// virtual pages to physical frames, and a list of Mappings that import
// memory exported by Regions of other spaces. Fault resolution walks the
// mapping hierarchy: a fault whose page can be derived from an ancestor
// space's page table is a SOFT fault; one that bottoms out unresolved is a
// HARD fault delivered as an exception IPC to the space's keeper port
// (a user-mode memory manager), or zero-filled by the kernel inside the
// space's anonymous range when it has no keeper.

#ifndef SRC_KERN_SPACE_H_
#define SRC_KERN_SPACE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/kern/ckpt.h"
#include "src/kern/objects.h"
#include "src/kern/stats.h"
#include "src/kern/tlb.h"
#include "src/mem/phys.h"
#include "src/uvm/interp.h"

namespace fluke {

using Handle = uint32_t;
inline constexpr Handle kInvalidHandle = 0;

struct Pte {
  FrameId frame = kInvalidFrame;
  uint32_t prot = kProtNone;
  // Copy-on-write: the frame is lent between exactly the PTEs that carry
  // this flag (IPC page lending). Any write access must privatize the frame
  // first (Space::CowBreak); cow pages are never cached in the software TLB
  // so the break cannot be bypassed by a cached translation.
  bool cow = false;
  // Owed to an in-progress checkpoint (src/kern/ckpt.h): any mutation must
  // first save the old contents into the checkpoint session
  // (Space::CkptSaveMarked). Marked pages are never cached in the software
  // TLB, so the save cannot be bypassed by a cached translation.
  bool ckpt_marked = false;
  // Written since the last checkpoint mark phase (delta-checkpoint
  // tracking). Defaults to true so fresh mappings are always captured.
  // While dirty tracking is on, clean pages are never cached in the TLB so
  // the first write always reaches the dirty hook.
  bool dirty = true;
};

// Outcome of a soft-fault resolution attempt.
struct SoftFaultResult {
  bool resolved = false;
  int levels_walked = 0;   // mapping-hierarchy depth traversed
  bool zero_filled = false;  // satisfied from the kernel anon range
  // Resolution failed only because frame allocation failed (injected or a
  // genuinely full pool); retrying after backoff may succeed.
  bool out_of_frames = false;
};

class Space final : public KernelObject, public MemoryBus {
 public:
  Space(uint64_t id, PhysMemory* phys) : KernelObject(ObjType::kSpace, id), phys_(phys) {}
  ~Space() override;

  // --- Handle table ---
  // Slots borrow their objects: the Kernel owns every object (kernel.h), so
  // a handle resolves to an object without taking ownership.
  Handle Install(KernelObject* obj);
  // Returns the object for a handle, or null if invalid/dead.
  KernelObject* Lookup(Handle h) const;
  // Like Lookup but also returns dead (zombie) objects, e.g. for join.
  KernelObject* LookupAnyState(Handle h) const;
  // Typed lookup; null when the handle is invalid or names a different type.
  template <typename T>
  T* LookupAs(Handle h, ObjType want) const {
    KernelObject* o = Lookup(h);
    return (o != nullptr && o->type() == want) ? static_cast<T*>(o) : nullptr;
  }
  void Uninstall(Handle h);
  size_t handle_count() const;

  // --- Page table ---
  bool PagePresent(uint32_t vaddr) const;
  const Pte* FindPte(uint32_t vaddr) const;
  void MapPage(uint32_t vaddr, FrameId frame, uint32_t prot);
  void UnmapPage(uint32_t vaddr);
  // Host-side convenience: allocate + map + optionally fill a page.
  FrameId ProvidePage(uint32_t vaddr, uint32_t prot = kProtReadWrite);

  // --- Copy-on-write page lending (IPC bulk-transfer fast path) ---
  // Maps the frame backing `from`'s page at src_vaddr into this space at
  // dst_vaddr and marks both PTEs copy-on-write, instead of copying 4 KiB.
  // Returns false (caller must fall back to copying) unless the source page
  // is readable, the destination page is writable, and neither frame is
  // shared through the mapping hierarchy (refcount > 1 without cow). A
  // repeat lend of an already-lent page is a no-op returning true.
  bool SharePageFrom(Space& from, uint32_t src_vaddr, uint32_t dst_vaddr);
  // Breaks copy-on-write at vaddr if set (copying the frame when it is still
  // shared). True if the page is now privately writable-safe; false only on
  // frame exhaustion. No-op (true) when the page is absent or not cow.
  bool EnsurePrivateFrame(uint32_t vaddr);

  // --- Mapping hierarchy ---
  void AddMapping(Mapping* m) { mappings_.push_back(m); }
  void RemoveMapping(Mapping* m);
  const std::vector<Mapping*>& mappings() const { return mappings_; }
  // Tries to resolve a fault at `vaddr` by walking the mapping hierarchy or
  // the anonymous range. On success the PTE is installed.
  SoftFaultResult TryResolveSoft(uint32_t vaddr, bool want_write);

  // Kernel-backed anonymous memory range (zero-fill on demand). A space with
  // a keeper port typically has no anon range, so its faults go to the
  // keeper; the root/manager spaces use anon memory directly.
  void SetAnonRange(uint32_t base, uint32_t size) {
    anon_base_ = base;
    anon_size_ = size;
  }
  bool InAnonRange(uint32_t vaddr) const {
    return vaddr - anon_base_ < anon_size_;
  }

  // --- Keeper (memory manager / exception handler port) ---
  Port* keeper = nullptr;

  // --- Program run by threads of this space (by default) ---
  ProgramRef program;

  // --- Regions exported over this space (maintained by the kernel;
  //     searched by region_search) ---
  std::vector<Region*> regions;

  // This space's handle in its own handle table (space_self).
  uint32_t self_handle = 0;

  // --- MemoryBus (user-instruction and kernel-copy access path) ---
  bool ReadByte(uint32_t vaddr, uint8_t* out, uint32_t* fault_addr) override;
  bool WriteByte(uint32_t vaddr, uint8_t value, uint32_t* fault_addr) override;
  bool ReadWord(uint32_t vaddr, uint32_t* out, uint32_t* fault_addr) override;
  bool WriteWord(uint32_t vaddr, uint32_t value, uint32_t* fault_addr) override;
  Span TranslateSpan(uint32_t vaddr, uint32_t len, uint32_t want_prot) override {
    return TranslateSpanConst(vaddr, len, want_prot);
  }

  // Host-side helpers for tests and workload setup (bypass faulting).
  bool HostRead(uint32_t vaddr, void* out, uint32_t len) const;
  bool HostWrite(uint32_t vaddr, const void* data, uint32_t len);

  // --- Concurrent checkpointing (src/kern/ckpt.h) ---
  // Attaches this space to an in-progress capture session as spaces[index];
  // CkptMark then records every page to capture (all pages, or only dirty
  // ones for a delta) and flips it to checkpoint-CoW. Detach after Finish.
  void CkptAttach(CkptSession* session, uint32_t index) {
    ckpt_session_ = session;
    ckpt_space_index_ = index;
  }
  void CkptDetach() { ckpt_session_ = nullptr; }
  bool CkptAttached() const { return ckpt_session_ != nullptr; }
  // Enables per-page dirty tracking (sticky; delta checkpoints need it from
  // the first full image on). Flushes the TLB so clean pages stop being
  // write-cached.
  void SetDirtyTracking();
  bool dirty_tracking() const { return dirty_track_; }
  // The serial mark phase for this space: appends one CkptPage record per
  // page to capture, sets ckpt_marked, clears dirty. Returns pages marked.
  size_t CkptMark(bool delta);
  // Drains one still-uncaptured record: copies the page and clears its mark.
  void CkptCapturePage(CkptPage& rec);
  // Saves the old contents of a still-marked page into the session record
  // and clears the mark; called from every PTE/content mutation path.
  void CkptSaveMarked(uint32_t page, Pte& pte);

  // Replaces the object a live handle slot points at, preserving the slot
  // number (checkpoint restore: forward references are installed as
  // placeholders and patched once the target exists).
  void ReplaceHandle(Handle h, KernelObject* obj);

  // --- Software TLB (src/kern/tlb.h) ---
  // Wired by Kernel::CreateSpace; counters land in KernelStats::tlb_*.
  void ConfigureTlb(bool enabled, KernelStats* stats) {
    tlb_enabled_ = enabled;
    stats_ = stats;
  }
  void TlbFlushAll();

  PhysMemory* phys() const { return phys_; }
  size_t mapped_pages() const { return pages_.size(); }

  // Page-table generation: bumped on every MapPage/UnmapPage. Callers that
  // cache host pointers across potential suspension points (the IPC bulk
  // copy) revalidate against this instead of re-translating; any mapping or
  // protection change -- including by another thread while the caller was
  // suspended -- changes the generation.
  uint64_t pt_gen() const { return pt_gen_; }

  // Introspection for checkpointing and tests.
  const std::unordered_map<uint32_t, Pte>& page_table() const { return pages_; }
  const std::vector<KernelObject*>& handle_table() const { return handles_; }
  uint32_t anon_base() const { return anon_base_; }
  uint32_t anon_size() const { return anon_size_; }

  // Threads currently bound to this space (maintained by the kernel).
  std::vector<Thread*> threads;

  // --- CPU affinity domain (maintained by Kernel::HomeCpuOf/MergeAffinity;
  //     see kernel.h). Spaces connected by Mappings form a domain homed on
  //     one CPU, so user accesses to their shared frames all come from
  //     that CPU's lane. aff_rep is a union-find parent
  //     (null = this space is its domain's representative); aff_home and
  //     aff_members are meaningful only on the representative. ---
  Space* aff_rep = nullptr;
  int aff_home = 0;
  std::vector<Space*> aff_members;

 private:
  bool CowBreak(uint32_t vaddr, Pte& pte);
  uint8_t* PageData(uint32_t vaddr, uint32_t want_prot, uint32_t* fault_addr) const;
  Span TranslateSpanConst(uint32_t vaddr, uint32_t len, uint32_t want_prot) const;
  void TlbInvalidatePage(uint32_t page);

  PhysMemory* phys_;
  std::vector<KernelObject*> handles_{nullptr};  // slot 0 invalid
  std::vector<Handle> free_slots_;  // dead handle slots available for reuse
  size_t live_handles_ = 0;         // non-null slots (O(1) handle_count)
  std::unordered_map<uint32_t, Pte> pages_;  // keyed by vaddr >> kPageShift
  std::vector<Mapping*> mappings_;
  uint32_t anon_base_ = 0;
  uint32_t anon_size_ = 0;
  uint64_t pt_gen_ = 0;

  // In-progress checkpoint capture (null when none) and this space's slot in
  // it; see CkptAttach.
  CkptSession* ckpt_session_ = nullptr;
  uint32_t ckpt_space_index_ = 0;
  bool dirty_track_ = false;

  // Translation cache. Mutable: filling it from a read path is caching, not
  // a semantic mutation of the space.
  mutable Tlb tlb_;
  bool tlb_enabled_ = true;
  KernelStats* stats_ = nullptr;  // hit/miss/flush counters (may be null)
};

}  // namespace fluke

#endif  // SRC_KERN_SPACE_H_
