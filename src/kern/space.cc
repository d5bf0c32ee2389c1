#include "src/kern/space.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace fluke {

Space::~Space() {
  TlbFlushAll();
  for (auto& [page, pte] : pages_) {
    if (pte.frame != kInvalidFrame) {
      phys_->Unref(pte.frame);
    }
  }
}

Handle Space::Install(KernelObject* obj) {
  ++live_handles_;
  // Reuse a dead slot if available; otherwise grow.
  while (!free_slots_.empty()) {
    const Handle h = free_slots_.back();
    free_slots_.pop_back();
    if (h < handles_.size() && handles_[h] == nullptr) {
      handles_[h] = obj;
      return h;
    }
  }
  handles_.push_back(obj);
  return static_cast<Handle>(handles_.size() - 1);
}

KernelObject* Space::Lookup(Handle h) const {
  if (h == kInvalidHandle || h >= handles_.size() || handles_[h] == nullptr) {
    return nullptr;
  }
  KernelObject* o = handles_[h];
  return o->alive() ? o : nullptr;
}

KernelObject* Space::LookupAnyState(Handle h) const {
  if (h == kInvalidHandle || h >= handles_.size()) {
    return nullptr;
  }
  return handles_[h];
}

void Space::Uninstall(Handle h) {
  if (h != kInvalidHandle && h < handles_.size() && handles_[h] != nullptr) {
    handles_[h] = nullptr;
    free_slots_.push_back(h);
    --live_handles_;
  }
}

size_t Space::handle_count() const { return live_handles_; }

void Space::ReplaceHandle(Handle h, KernelObject* obj) {
  assert(h != kInvalidHandle && h < handles_.size() && handles_[h] != nullptr);
  handles_[h] = obj;
}

void Space::SetDirtyTracking() {
  if (dirty_track_) {
    return;
  }
  dirty_track_ = true;
  // Clean pages must stop being cached so their first write reaches the
  // dirty hook; cached span pointers revalidate against pt_gen.
  ++pt_gen_;
  TlbFlushAll();
}

size_t Space::CkptMark(bool delta) {
  assert(ckpt_session_ != nullptr);
  CkptSpaceCapture& sc = ckpt_session_->spaces[ckpt_space_index_];
  size_t marked = 0;
  for (auto& [page, pte] : pages_) {
    if (delta && !pte.dirty) {
      continue;
    }
    pte.ckpt_marked = true;
    pte.dirty = false;
    CkptPage rec;
    rec.pagenum = page;
    rec.prot = pte.prot;
    sc.pages.push_back(std::move(rec));
    ++marked;
  }
  // Deterministic drain/image order independent of hash-map iteration.
  std::sort(sc.pages.begin(), sc.pages.end(),
            [](const CkptPage& a, const CkptPage& b) { return a.pagenum < b.pagenum; });
  sc.index.clear();
  for (size_t i = 0; i < sc.pages.size(); ++i) {
    sc.index.emplace(sc.pages[i].pagenum, i);
  }
  ckpt_session_->pending += marked;
  // Marked pages must never be served from the TLB: any cached write
  // pointer would bypass the save-on-write hook.
  ++pt_gen_;
  TlbFlushAll();
  return marked;
}

void Space::CkptCapturePage(CkptPage& rec) {
  auto it = pages_.find(rec.pagenum);
  // An uncaptured record implies the PTE still exists and is still marked:
  // every path that unmaps, remaps or writes the page saves it first.
  assert(it != pages_.end() && it->second.ckpt_marked);
  const uint8_t* src = phys_->Data(it->second.frame);
  rec.data.assign(src, src + kPageSize);
  rec.captured = true;
  it->second.ckpt_marked = false;  // page becomes TLB-cacheable again lazily
  --ckpt_session_->pending;
}

void Space::CkptSaveMarked(uint32_t page, Pte& pte) {
  pte.ckpt_marked = false;
  if (ckpt_session_ == nullptr) {
    return;  // stale mark after a detached session; nothing is owed
  }
  CkptSpaceCapture& sc = ckpt_session_->spaces[ckpt_space_index_];
  auto it = sc.index.find(page);
  if (it == sc.index.end()) {
    return;
  }
  CkptPage& rec = sc.pages[it->second];
  if (rec.captured) {
    return;
  }
  const uint8_t* src = phys_->Data(pte.frame);
  rec.data.assign(src, src + kPageSize);
  rec.captured = true;
  --ckpt_session_->pending;
  ++ckpt_session_->cow_saves;
  if (stats_ != nullptr) {
    ++stats_->ckpt_cow_saves;
  }
}

bool Space::PagePresent(uint32_t vaddr) const {
  return pages_.count(vaddr >> kPageShift) != 0;
}

const Pte* Space::FindPte(uint32_t vaddr) const {
  auto it = pages_.find(vaddr >> kPageShift);
  return it == pages_.end() ? nullptr : &it->second;
}

void Space::MapPage(uint32_t vaddr, FrameId frame, uint32_t prot) {
  ++pt_gen_;
  TlbInvalidatePage(vaddr >> kPageShift);  // shootdown: remap or prot change
  phys_->Ref(frame);  // ref first: replacing a page with itself must not free it
  auto it = pages_.find(vaddr >> kPageShift);
  if (it != pages_.end()) {
    if (it->second.ckpt_marked) {
      // Replacing a page an in-progress checkpoint still owes: save the old
      // contents first (covers remedy installs, remaps and prot changes).
      CkptSaveMarked(vaddr >> kPageShift, it->second);
    }
    if (it->second.frame != kInvalidFrame) {
      phys_->Unref(it->second.frame);
    }
    it->second = Pte{frame, prot};  // dirty defaults true: content changed
  } else {
    pages_.emplace(vaddr >> kPageShift, Pte{frame, prot});
  }
}

void Space::UnmapPage(uint32_t vaddr) {
  ++pt_gen_;
  TlbInvalidatePage(vaddr >> kPageShift);  // shootdown: no stale translation
  auto it = pages_.find(vaddr >> kPageShift);
  if (it != pages_.end()) {
    if (it->second.ckpt_marked) {
      CkptSaveMarked(vaddr >> kPageShift, it->second);
    }
    if (it->second.frame != kInvalidFrame) {
      phys_->Unref(it->second.frame);
    }
    pages_.erase(it);
  }
}

void Space::TlbInvalidatePage(uint32_t page) {
  if (tlb_.InvalidatePage(page) && stats_ != nullptr) {
    ++stats_->tlb_flushes;
  }
}

void Space::TlbFlushAll() {
  const uint32_t discarded = tlb_.FlushAll();
  if (stats_ != nullptr) {
    stats_->tlb_flushes += discarded;
  }
}

FrameId Space::ProvidePage(uint32_t vaddr, uint32_t prot) {
  FrameId f = phys_->Alloc();
  if (f == kInvalidFrame) {
    return kInvalidFrame;
  }
  MapPage(vaddr, f, prot);
  phys_->Unref(f);  // MapPage took its own reference; drop Alloc's
  return f;
}

void Space::RemoveMapping(Mapping* m) {
  mappings_.erase(std::remove(mappings_.begin(), mappings_.end(), m), mappings_.end());
}

SoftFaultResult Space::TryResolveSoft(uint32_t vaddr, bool want_write) {
  SoftFaultResult r;
  const uint32_t want = want_write ? kProtWrite : kProtRead;

  // Walk the mapping hierarchy: mapping -> region -> source space, possibly
  // recursing through the source space's own mappings.
  struct Level {
    Space* space;
    uint32_t addr;
    uint32_t prot;  // effective protection accumulated along the chain
  };
  Level cur{this, vaddr, kProtReadWrite};
  for (int depth = 0; depth < 8; ++depth) {
    if (depth > 0) {
      // Does the current level's page table have the page?
      const Pte* pte = cur.space->FindPte(cur.addr);
      if (pte != nullptr) {
        const uint32_t eff = pte->prot & cur.prot;
        if ((eff & want) != want) {
          return r;  // reachable but protection forbids the access
        }
        // Install into the faulting space.
        UnmapPage(vaddr);
        MapPage(vaddr, pte->frame, eff);
        r.resolved = true;
        r.levels_walked = depth;
        return r;
      }
      // Note: an ancestor's anonymous range does NOT let the kernel invent
      // a page on the faulting space's behalf -- providing backing pages for
      // an exported region is the owning space's (manager's) job, so the
      // fault stays hard and goes to the keeper. Only the faulting space's
      // own anon range (depth 0, below) is kernel-filled, and explicit
      // mappings take priority over it.
    }

    // Find a mapping at this level covering the address.
    Mapping* found = nullptr;
    for (Mapping* m : cur.space->mappings()) {
      if (m->alive() && cur.addr - m->base < m->size) {
        found = m;
        break;
      }
    }
    if (found == nullptr || found->src == nullptr || !found->src->alive()) {
      if (depth == 0 && cur.space->InAnonRange(cur.addr)) {
        // Unmapped fault inside the faulting space's own anonymous range:
        // kernel zero-fill.
        FrameId f = ProvidePage(vaddr, kProtReadWrite);
        if (f == kInvalidFrame) {
          r.out_of_frames = true;  // retryable frame exhaustion
          return r;
        }
        if ((kProtReadWrite & want) != want) {
          return r;
        }
        r.resolved = true;
        r.zero_filled = true;
        return r;
      }
      return r;  // hard fault
    }
    Region* reg = found->src;
    const uint32_t region_off = (cur.addr - found->base) + found->offset;
    if (region_off >= reg->size || reg->source == nullptr) {
      return r;
    }
    cur = Level{reg->source, reg->base + region_off, cur.prot & found->prot & reg->prot};
  }
  return r;  // hierarchy too deep: treat as hard
}

uint8_t* Space::PageData(uint32_t vaddr, uint32_t want_prot, uint32_t* fault_addr) const {
  const uint32_t page = vaddr >> kPageShift;
  if (tlb_enabled_) {
    const TlbEntry& e = tlb_.Slot(page);
    if (e.tag == page) {
      // Hit. The entry mirrors the PTE exactly (every PTE mutation
      // invalidates it), so a protection mismatch here is a real fault.
      if (stats_ != nullptr) {
        ++stats_->tlb_hits;
      }
      if ((e.prot & want_prot) != want_prot) {
        *fault_addr = vaddr;
        return nullptr;
      }
      return e.data + (vaddr & kPageMask);
    }
    if (stats_ != nullptr) {
      ++stats_->tlb_misses;
    }
  }
  auto it = pages_.find(page);
  if (it == pages_.end()) {
    *fault_addr = vaddr;
    return nullptr;
  }
  if ((want_prot & kProtWrite) != 0 && (it->second.prot & want_prot) == want_prot) {
    // Permitted write to the page: satisfy an in-progress checkpoint first
    // (save the pre-write contents) and record the page dirty for delta
    // tracking. Host-side bookkeeping, not a semantic mutation of the
    // simulated address space, hence the const_cast from this const walk.
    Pte& pte = const_cast<Pte&>(it->second);
    if (pte.ckpt_marked) {
      const_cast<Space*>(this)->CkptSaveMarked(page, pte);
    }
    pte.dirty = true;
  }
  uint8_t* base = phys_->Data(it->second.frame);
  if (tlb_enabled_ && !it->second.ckpt_marked && (it->second.dirty || !dirty_track_)) {
    // Fill even when the access is about to prot-fault: the entry still
    // mirrors the PTE, and the next permitted access hits. Checkpoint-marked
    // pages are never cached (a hit would bypass the save-on-write hook),
    // and under dirty tracking clean pages are never cached (a hit would
    // bypass the dirty hook).
    tlb_.Fill(page, it->second.prot, base);
  }
  if ((it->second.prot & want_prot) != want_prot) {
    *fault_addr = vaddr;
    return nullptr;
  }
  return base + (vaddr & kPageMask);
}

Span Space::TranslateSpanConst(uint32_t vaddr, uint32_t len, uint32_t want_prot) const {
  if (len == 0) {
    return {};
  }
  uint32_t fault_addr = 0;
  uint8_t* p = PageData(vaddr, want_prot, &fault_addr);
  if (p == nullptr) {
    return {};
  }
  const uint32_t in_page = kPageSize - (vaddr & kPageMask);
  return Span{p, std::min(len, in_page)};
}

bool Space::ReadByte(uint32_t vaddr, uint8_t* out, uint32_t* fault_addr) {
  const uint8_t* p = PageData(vaddr, kProtRead, fault_addr);
  if (p == nullptr) {
    return false;
  }
  *out = *p;
  return true;
}

bool Space::WriteByte(uint32_t vaddr, uint8_t value, uint32_t* fault_addr) {
  uint8_t* p = PageData(vaddr, kProtWrite, fault_addr);
  if (p == nullptr) {
    return false;
  }
  *p = value;
  return true;
}

bool Space::ReadWord(uint32_t vaddr, uint32_t* out, uint32_t* fault_addr) {
  if ((vaddr & kPageMask) + 4 <= kPageSize) {
    const uint8_t* p = PageData(vaddr, kProtRead, fault_addr);
    if (p == nullptr) {
      return false;
    }
    std::memcpy(out, p, 4);
    return true;
  }
  // Page-straddling word: byte at a time.
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    uint8_t b = 0;
    if (!ReadByte(vaddr + i, &b, fault_addr)) {
      return false;
    }
    v |= static_cast<uint32_t>(b) << (8 * i);
  }
  *out = v;
  return true;
}

bool Space::WriteWord(uint32_t vaddr, uint32_t value, uint32_t* fault_addr) {
  if ((vaddr & kPageMask) + 4 <= kPageSize) {
    uint8_t* p = PageData(vaddr, kProtWrite, fault_addr);
    if (p == nullptr) {
      return false;
    }
    std::memcpy(p, &value, 4);
    return true;
  }
  for (int i = 0; i < 4; ++i) {
    if (!WriteByte(vaddr + i, static_cast<uint8_t>(value >> (8 * i)), fault_addr)) {
      return false;
    }
  }
  return true;
}

// The host helpers deliberately ignore page protection (want_prot ==
// kProtNone), matching their historical raw-page-table behavior: they exist
// for test and workload setup, not simulated accesses.

bool Space::HostRead(uint32_t vaddr, void* out, uint32_t len) const {
  uint8_t* dst = static_cast<uint8_t*>(out);
  for (uint32_t i = 0; i < len;) {
    const Span s = TranslateSpanConst(vaddr + i, len - i, kProtNone);
    if (s.len == 0) {
      return false;
    }
    std::memcpy(dst + i, s.ptr, s.len);
    i += s.len;
  }
  return true;
}

bool Space::HostWrite(uint32_t vaddr, const void* data, uint32_t len) {
  const uint8_t* src = static_cast<const uint8_t*>(data);
  for (uint32_t i = 0; i < len;) {
    const uint32_t addr = vaddr + i;
    // Prot-blind translation below bypasses PageData's write hook, so an
    // in-progress checkpoint and the dirty bit are handled explicitly here.
    auto pit = pages_.find(addr >> kPageShift);
    if (pit != pages_.end()) {
      if (pit->second.ckpt_marked) {
        CkptSaveMarked(addr >> kPageShift, pit->second);
      }
      pit->second.dirty = true;
    }
    Span s = TranslateSpanConst(addr, len - i, kProtNone);
    if (s.len == 0) {
      if (ProvidePage(addr, kProtReadWrite) == kInvalidFrame) {
        return false;
      }
      s = TranslateSpanConst(addr, len - i, kProtNone);
      if (s.len == 0) {
        return false;
      }
    }
    std::memcpy(s.ptr, src + i, s.len);
    i += s.len;
  }
  return true;
}

}  // namespace fluke
