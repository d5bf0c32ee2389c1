#include "src/workloads/checkpoint.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>
#include <cassert>

namespace fluke {

void DestroySpaceThreads(Kernel& k, Space& space) {
  for (Thread* t : space.threads) {
    k.DestroyThread(t);
  }
}

// ---------------------------------------------------------------------------
// Machine-wide capture (PR 8).
// ---------------------------------------------------------------------------

namespace {

// Builds the machine-wide metadata snapshot -- spaces, resident page
// directories, handle tables, and the global thread/port/portset tables --
// without disturbing any thread (no StopThread: registers of a non-running
// thread are always a committed restart point). Page *data* is not captured
// here; that is the mark/drain protocol's job. Returns false with a
// structured error on anything outside the checkpointable subset.
bool CaptureMachineMeta(Kernel& k, const std::vector<Space*>& live, MachineImage* img,
                        std::string* error) {
  img->clock_ns = k.clock.now();

  // Global thread table: space order, then TCB order, skipping zombies.
  std::unordered_map<const Thread*, int> thread_idx;
  for (size_t si = 0; si < live.size(); ++si) {
    for (Thread* t : live[si]->threads) {
      if (t->run_state == ThreadRun::kDead) {
        continue;
      }
      if (t->legacy) {
        *error = "legacy threads are not checkpointable";
        return false;
      }
      if (t->exception_victim != nullptr) {
        *error = "undelivered fault IPC (server owes a reply)";
        return false;
      }
      thread_idx.emplace(t, static_cast<int>(img->threads.size()));
      MachineImage::ThreadImage ti;
      ti.space_index = static_cast<uint32_t>(si);
      if (!k.GetThreadState(t, &ti.state)) {
        *error = "cannot capture a thread while it is on a CPU";
        return false;
      }
      ti.program_name = t->program != nullptr ? t->program->name() : "";
      ti.was_runnable = t->run_state == ThreadRun::kRunnable ||
                        t->run_state == ThreadRun::kBlocked ||
                        t->run_state == ThreadRun::kRunning;
      ti.ipc_is_server = t->ipc_is_server;
      ti.port_badge = t->port_badge;
      img->threads.push_back(std::move(ti));
    }
  }
  // IPC links second pass (a peer may sit later in the global order).
  {
    size_t g = 0;
    for (Space* s : live) {
      for (Thread* t : s->threads) {
        if (t->run_state == ThreadRun::kDead) {
          continue;
        }
        if (t->ipc_peer != nullptr) {
          auto it = thread_idx.find(t->ipc_peer);
          if (it == thread_idx.end()) {
            *error = "ipc peer is not a captured thread";
            return false;
          }
          img->threads[g].ipc_peer = it->second;
        }
        ++g;
      }
    }
  }

  // Ports and portsets get small-integer keys in discovery order (space
  // order, slot order, portset-member order) -- deterministic, so the same
  // machine always serializes to the same bytes.
  std::unordered_map<const Port*, int> port_key;
  std::unordered_map<const Portset*, int> pset_key;
  bool bad = false;
  auto ensure_port = [&](Port* p) -> int {
    auto [it, fresh] = port_key.emplace(p, static_cast<int>(img->ports.size()));
    if (fresh) {
      MachineImage::PortImage pi;
      pi.badge = p->badge;
      for (const KernelMsg& m : p->kmsgs) {
        if (m.victim != nullptr) {
          *error = "undelivered fault IPC (queued message has a victim)";
          bad = true;
          break;
        }
        MachineImage::KMsgImage mi;
        std::memcpy(mi.words, m.words, sizeof(mi.words));
        mi.len = m.len;
        mi.badge = m.badge;
        pi.kmsgs.push_back(mi);
      }
      img->ports.push_back(std::move(pi));
    }
    return it->second;
  };

  for (size_t si = 0; si < live.size(); ++si) {
    Space* s = live[si];
    if (!s->mappings().empty() || !s->regions.empty()) {
      *error = "spaces with Mappings or Regions are not checkpointable";
      return false;
    }
    if (s->keeper != nullptr) {
      *error = "spaces with a keeper port are not checkpointable";
      return false;
    }
    MachineImage::SpaceImage sp;
    sp.name = s->name();
    sp.program_name = s->program != nullptr ? s->program->name() : "";
    sp.anon_base = s->anon_base();
    sp.anon_size = s->anon_size();
    for (const auto& [page, pte] : s->page_table()) {
      sp.resident.push_back({page << kPageShift, pte.prot});
    }
    std::sort(sp.resident.begin(), sp.resident.end(),
              [](const auto& a, const auto& b) { return a.vaddr < b.vaddr; });

    const auto& handles = s->handle_table();
    for (size_t slot = 1; slot < handles.size(); ++slot) {
      MachineImage::ObjImage oi;
      KernelObject* o = handles[slot];
      if (o != nullptr && o->alive()) {
        switch (o->type()) {
          case ObjType::kMutex: {
            const auto* m = static_cast<const Mutex*>(o);
            oi.kind = MachineImage::ObjKind::kMutex;
            oi.mutex_locked = m->locked;
            if (m->locked) {
              for (const auto& [t, idx] : thread_idx) {
                if (t->id() == m->owner_tid) {
                  oi.mutex_owner_thread = idx;
                  break;
                }
              }
            }
            break;
          }
          case ObjType::kCond:
            oi.kind = MachineImage::ObjKind::kCond;
            break;
          case ObjType::kSpace:
            if (o != s || s->self_handle != slot) {
              *error = "cross-space space handle is not checkpointable";
              return false;
            }
            oi.kind = MachineImage::ObjKind::kSpaceSelf;
            break;
          case ObjType::kThread: {
            auto* t = static_cast<Thread*>(o);
            if (t->run_state == ThreadRun::kDead) {
              break;  // zombie slot -> kEmpty (join across a checkpoint is lost)
            }
            auto it = thread_idx.find(t);
            if (it == thread_idx.end()) {
              *error = "thread handle to an uncaptured thread";
              return false;
            }
            oi.kind = (t->space == s && t->self_handle == slot)
                          ? MachineImage::ObjKind::kThreadSelf
                          : MachineImage::ObjKind::kThreadRef;
            oi.index = it->second;
            break;
          }
          case ObjType::kPort:
            oi.kind = MachineImage::ObjKind::kPort;
            oi.index = ensure_port(static_cast<Port*>(o));
            break;
          case ObjType::kPortset: {
            auto* ps = static_cast<Portset*>(o);
            auto [it, fresh] = pset_key.emplace(ps, static_cast<int>(img->portsets.size()));
            if (fresh) {
              MachineImage::PortsetImage pi;
              for (Port* member : ps->ports) {
                pi.member_ports.push_back(static_cast<uint32_t>(ensure_port(member)));
              }
              img->portsets.push_back(std::move(pi));
            }
            oi.kind = MachineImage::ObjKind::kPortset;
            oi.index = it->second;
            break;
          }
          case ObjType::kReference: {
            const auto* ref = static_cast<const Reference*>(o);
            KernelObject* target = ref->target;
            if (target == nullptr || !target->alive()) {
              break;  // dangling reference -> kEmpty
            }
            if (target->type() != ObjType::kPort) {
              *error = "reference to a non-port object is not checkpointable";
              return false;
            }
            oi.kind = MachineImage::ObjKind::kPortRef;
            oi.index = ensure_port(static_cast<Port*>(target));
            break;
          }
          default:
            *error = "unsupported object kind in a handle table";
            return false;
        }
        if (bad) {
          return false;
        }
      }
      sp.objects.push_back(oi);
    }
    img->spaces.push_back(std::move(sp));
  }
  return true;
}

}  // namespace

bool ConcurrentCkpt::Begin(Kernel& k, bool delta, std::string* error, bool stw) {
  std::string scratch;
  if (error == nullptr) {
    error = &scratch;
  }
  assert(kernel_ == nullptr && "Begin on an active capture");
  if (k.cfg.num_cpus > 1) {
    *error = "machine checkpointing requires num_cpus == 1";
    return false;
  }
  if (k.ckpt_session() != nullptr) {
    *error = "a capture is already in progress";
    return false;
  }
  if (delta && k.stats.ckpt_generations == 0) {
    *error = "delta checkpoint without a prior full image";
    return false;
  }
  std::vector<Space*> live;
  std::unordered_set<std::string_view> names;
  for (Space* s : k.spaces()) {
    if (s->alive()) {
      live.push_back(s);
      // A delta's spaces pair with their parent's by name at merge time.
      if (delta && !names.insert(s->name()).second) {
        *error = "delta checkpoint of live spaces that share the name \"" + s->name() + "\"";
        return false;
      }
    }
  }
  img_ = MachineImage{};
  if (!CaptureMachineMeta(k, live, &img_, error)) {
    img_ = MachineImage{};
    return false;
  }

  // Serial mark phase: flip every page to capture to checkpoint-CoW. This is
  // the only part of the capture that is "inside" the stop window; its
  // modeled cost is what ckpt_pause_hist measures. The stop-the-world cost
  // model instead charges a full page copy per page -- same image, much
  // longer pause.
  session_ = CkptSession{};
  session_.spaces.resize(live.size());
  size_t marked = 0;
  for (size_t i = 0; i < live.size(); ++i) {
    session_.spaces[i].space = live[i];
    live[i]->SetDirtyTracking();
    live[i]->CkptAttach(&session_, static_cast<uint32_t>(i));
    const size_t n = live[i]->CkptMark(delta);
    marked += n;
    if (k.trace.enabled()) {
      k.trace.Record(k.clock.now(), TraceKind::kCkptMark, 0,
                     static_cast<uint32_t>(live[i]->id()), static_cast<uint32_t>(n));
    }
  }
  k.CkptAttachSession(&session_);
  k.stats.ckpt_mark_pages += marked;
  const uint64_t per_page = stw ? k.costs.ckpt_copy_page : k.costs.ckpt_mark_page;
  k.stats.ckpt_pause_hist.Add(Cycles(k.costs.ckpt_begin + marked * per_page));
  kernel_ = &k;
  delta_ = delta;
  if (delta) {
    // Provisional chain position; the restart-log layer assigns the real
    // generation numbers and the parent digest after serialization.
    img_.generation = 2;
    img_.base_generation = 1;
  }
  return true;
}

MachineImage ConcurrentCkpt::Finish() {
  assert(kernel_ != nullptr && "Finish without Begin");
  assert(session_.done() && "Finish before the drain completed");
  Kernel& k = *kernel_;
  size_t pages = 0;
  for (size_t i = 0; i < session_.spaces.size(); ++i) {
    CkptSpaceCapture& sc = session_.spaces[i];
    for (CkptPage& rec : sc.pages) {
      assert(rec.captured);
      MachineImage::PageImage pi;
      pi.vaddr = rec.pagenum << kPageShift;
      pi.prot = rec.prot;
      pi.data = std::move(rec.data);
      img_.spaces[i].pages.push_back(std::move(pi));
    }
    pages += sc.pages.size();
    sc.space->CkptDetach();
  }
  k.CkptDetachSession();
  kernel_ = nullptr;
  if (delta_) {
    k.stats.ckpt_pages_delta += pages;
  } else {
    k.stats.ckpt_pages_full += pages;
  }
  ++k.stats.ckpt_generations;
  return std::move(img_);
}

void ConcurrentCkpt::Abort() {
  if (kernel_ == nullptr) {
    return;
  }
  Kernel& k = *kernel_;
  k.CkptDrainAll();  // clears every outstanding mark bit
  for (CkptSpaceCapture& sc : session_.spaces) {
    sc.space->CkptDetach();
  }
  k.CkptDetachSession();
  kernel_ = nullptr;
}

bool CaptureMachine(Kernel& k, bool delta, MachineImage* out, std::string* error) {
  ConcurrentCkpt c;
  if (!c.Begin(k, delta, error, /*stw=*/true)) {
    return false;
  }
  k.CkptDrainAll();
  *out = c.Finish();
  return true;
}

bool CaptureSpace(Kernel& k, Space& space, MachineImage* out, std::string* error) {
  *out = MachineImage{};
  if (!CaptureMachineMeta(k, {&space}, out, error)) {
    *out = MachineImage{};
    return false;
  }
  k.trace.Record(k.clock.now(), TraceKind::kCheckpoint, 0,
                 static_cast<uint32_t>(space.id()), 0);
  // Stop every thread. A blocked thread rolls back transparently to its
  // committed restart point -- the registers the metadata already holds.
  for (Thread* t : space.threads) {
    if (t->run_state != ThreadRun::kDead) {
      k.StopThread(t);
    }
  }
  // Memory: every resident page, read through the span-translation path
  // (one TLB-backed translation + one copy per page), the same fast path
  // the IPC bulk copy uses.
  MachineImage::SpaceImage& sp = out->spaces.front();
  sp.pages.reserve(sp.resident.size());
  for (const MachineImage::ResidentPage& rp : sp.resident) {
    const Span s = space.TranslateSpan(rp.vaddr, kPageSize, kProtNone);
    assert(s.len == kPageSize);
    sp.pages.push_back({rp.vaddr, rp.prot, std::vector<uint8_t>(s.ptr, s.ptr + s.len)});
  }
  return true;
}

MachineRestoreResult RestoreMachine(Kernel& k, const MachineImage& img,
                                    const ProgramRegistry& programs, bool start) {
  MachineRestoreResult r;
  auto fail = [&r](std::string why) -> MachineRestoreResult& {
    r.ok = false;
    r.error = std::move(why);
    return r;
  };
  if (k.cfg.num_cpus > 1) {
    return fail("machine restore requires num_cpus == 1");
  }
  if (img.base_generation != 0) {
    return fail("cannot restore an unmerged delta image");
  }
  for (const auto& ti : img.threads) {
    if (ti.space_index >= img.spaces.size()) {
      return fail("thread references a missing space");
    }
  }
  // Restore the capture-instant virtual time, so timestamps in the restored
  // run continue from where the image was taken.
  if (img.clock_ns > k.clock.now()) {
    k.ChargeNs(img.clock_ns - k.clock.now());
  }

  // Ports and portsets are created up front: handle tables may hold
  // references to ports that live in a space restored later (the rpc
  // client's Reference precedes the server space's port slot).
  std::vector<Port*> ports;
  for (const auto& pi : img.ports) {
    Port* p = k.NewPort(pi.badge);
    for (const auto& mi : pi.kmsgs) {
      KernelMsg m;
      std::memcpy(m.words, mi.words, sizeof(m.words));
      m.len = mi.len;
      m.badge = mi.badge;
      p->kmsgs.push_back(m);  // direct: no server exists yet to wake
    }
    ports.push_back(p);
  }
  std::vector<Portset*> psets;
  for (size_t i = 0; i < img.portsets.size(); ++i) {
    psets.push_back(k.NewPortset());
  }

  r.threads.resize(img.threads.size(), nullptr);
  struct ThreadRefFixup {
    Space* space;
    Handle slot;
    int index;
  };
  std::vector<ThreadRefFixup> thread_fixups;
  std::vector<std::pair<Mutex*, int>> owner_fixups;

  for (size_t si = 0; si < img.spaces.size(); ++si) {
    const auto& sp = img.spaces[si];
    Space* space = k.CreateSpace(sp.name);
    k.trace.Record(k.clock.now(), TraceKind::kCheckpoint, 0,
                   static_cast<uint32_t>(space->id()), 1);
    space->SetAnonRange(sp.anon_base, sp.anon_size);
    space->program = sp.program_name.empty() ? nullptr : programs.Find(sp.program_name);
    r.spaces.push_back(space);

    // Memory first (threads may be blocked mid-operation on it). Frame
    // allocation may fail transiently (injected exhaustion, a scavenger
    // catching up); retry a bounded number of times, then give up cleanly.
    for (const auto& pi : sp.pages) {
      if (pi.data.size() != kPageSize) {
        return fail("page image with a bad size");
      }
      FrameId f = kInvalidFrame;
      for (uint32_t tries = 0; f == kInvalidFrame && tries <= kOomRetryLimit; ++tries) {
        if (tries != 0) {
          ++k.stats.oom_backoffs;
          k.Charge(k.costs.oom_backoff);
        }
        f = space->ProvidePage(pi.vaddr, pi.prot);
      }
      if (f == kInvalidFrame) {
        return fail("out of frames restoring page");
      }
      std::memcpy(k.phys.Data(f), pi.data.data(), kPageSize);
    }

    // Handle table strictly in slot order (slot = index + 1), so every
    // baked-in handle immediate stays valid. CreateSpace filled slot 1.
    if (sp.objects.empty() || sp.objects[0].kind != MachineImage::ObjKind::kSpaceSelf) {
      return fail("image slot 1 is not the space-self slot");
    }
    for (size_t i = 1; i < sp.objects.size(); ++i) {
      const auto& oi = sp.objects[i];
      const Handle want = static_cast<Handle>(i + 1);
      Handle got = kInvalidHandle;
      switch (oi.kind) {
        case MachineImage::ObjKind::kSpaceSelf:
          return fail("duplicate space-self slot");
        case MachineImage::ObjKind::kThreadSelf: {
          if (oi.index < 0 || static_cast<size_t>(oi.index) >= img.threads.size() ||
              r.threads[oi.index] != nullptr) {
            return fail("thread-self slot references a missing or duplicate thread");
          }
          const auto& ti = img.threads[oi.index];
          if (ti.space_index != si) {
            return fail("thread-self slot in the wrong space");
          }
          ProgramRef prog =
              ti.program_name.empty() ? nullptr : programs.Find(ti.program_name);
          Thread* t = k.CreateThread(space, prog);  // installs the self slot
          got = t->self_handle;
          if (!k.SetThreadState(t, ti.state)) {
            return fail("restored thread rejected its state");
          }
          r.threads[oi.index] = t;
          break;
        }
        case MachineImage::ObjKind::kThreadRef: {
          if (oi.index < 0 || static_cast<size_t>(oi.index) >= img.threads.size()) {
            return fail("thread reference to a missing thread");
          }
          if (r.threads[oi.index] != nullptr) {
            got = k.Install(space, r.threads[oi.index]);
          } else {
            // Forward reference: the thread's own space comes later in the
            // image. Install a placeholder to hold the slot, patch below.
            got = k.Install(space, k.NewReference(nullptr));
            thread_fixups.push_back({space, want, oi.index});
          }
          break;
        }
        case MachineImage::ObjKind::kMutex: {
          Mutex* m = k.NewMutex();
          m->locked = oi.mutex_locked;
          got = k.Install(space, m);
          if (oi.mutex_locked && oi.mutex_owner_thread >= 0) {
            owner_fixups.emplace_back(m, oi.mutex_owner_thread);
          }
          break;
        }
        case MachineImage::ObjKind::kCond:
          got = k.Install(space, k.NewCond());
          break;
        case MachineImage::ObjKind::kPort:
          if (oi.index < 0 || static_cast<size_t>(oi.index) >= ports.size()) {
            return fail("port slot references a missing port");
          }
          got = k.Install(space, ports[oi.index]);
          break;
        case MachineImage::ObjKind::kPortRef:
          if (oi.index < 0 || static_cast<size_t>(oi.index) >= ports.size()) {
            return fail("port reference to a missing port");
          }
          got = k.Install(space, k.NewReference(ports[oi.index]));
          break;
        case MachineImage::ObjKind::kPortset:
          if (oi.index < 0 || static_cast<size_t>(oi.index) >= psets.size()) {
            return fail("portset slot references a missing portset");
          }
          got = k.Install(space, psets[oi.index]);
          break;
        case MachineImage::ObjKind::kEmpty:
          got = k.Install(space, k.NewReference(nullptr));
          break;
      }
      if (got != want) {
        return fail("handle-slot drift while restoring objects");
      }
    }
  }

  // Fixup passes, now that every object exists.
  for (const auto& fx : thread_fixups) {
    if (r.threads[fx.index] == nullptr) {
      return fail("thread reference to a thread with no self slot");
    }
    fx.space->ReplaceHandle(fx.slot, r.threads[fx.index]);
  }
  for (size_t j = 0; j < img.portsets.size(); ++j) {
    for (uint32_t key : img.portsets[j].member_ports) {
      if (key >= ports.size()) {
        return fail("portset member references a missing port");
      }
      ports[key]->member_of = psets[j];
      psets[j]->ports.push_back(ports[key]);
    }
  }
  for (auto& [m, idx] : owner_fixups) {
    if (static_cast<size_t>(idx) < r.threads.size() && r.threads[idx] != nullptr) {
      m->owner_tid = r.threads[idx]->id();
    }
  }
  // Live IPC connections: the link lives in the TCB (paper section 4.3), so
  // a blocked thread's restart op (e.g. a keep-connection send-over-receive)
  // finds its rendezvous partner exactly as the original would have.
  for (size_t g = 0; g < img.threads.size(); ++g) {
    const auto& ti = img.threads[g];
    Thread* t = r.threads[g];
    if (t == nullptr) {
      return fail("captured thread has no self slot in its space");
    }
    t->ipc_is_server = ti.ipc_is_server;
    t->port_badge = ti.port_badge;
    if (ti.ipc_peer >= 0) {
      if (static_cast<size_t>(ti.ipc_peer) >= r.threads.size() ||
          r.threads[ti.ipc_peer] == nullptr) {
        return fail("ipc peer missing from the restored machine");
      }
      t->ipc_peer = r.threads[ti.ipc_peer];
    }
  }

  if (start) {
    for (size_t g = 0; g < img.threads.size(); ++g) {
      if (img.threads[g].was_runnable) {
        k.ResumeThread(r.threads[g]);
      }
    }
  }
  return r;
}

bool MergeImageChain(std::vector<MachineImage> chain, MachineImage* out, std::string* error) {
  if (chain.empty()) {
    *error = "empty image chain";
    return false;
  }
  if (chain[0].base_generation != 0) {
    *error = "chain does not start with a full image";
    return false;
  }
  auto duplicate = [error](const std::string& name) {
    *error = "duplicate space name \"" + name + "\" in a delta chain";
    return false;
  };
  for (size_t ci = 1; ci < chain.size(); ++ci) {
    MachineImage& base = chain[ci - 1];
    MachineImage& d = chain[ci];
    if (d.base_generation == 0) {
      *error = "unexpected full image inside a delta chain";
      return false;
    }
    if (d.base_generation != base.generation) {
      *error = "generation gap in delta chain";
      return false;
    }
    // The delta's metadata (spaces, threads, objects, resident directories)
    // is authoritative; page data comes from the delta where present --
    // pages dirtied since the parent -- and from the accumulated base
    // otherwise. The resident directory filters out pages unmapped since.
    // Each page is moved at most once: a lookup that finds none is missing
    // data, never a moved-from page.
    std::unordered_map<std::string_view, MachineImage::SpaceImage*> prev;
    for (auto& s : base.spaces) {
      if (!prev.emplace(s.name, &s).second) {
        return duplicate(s.name);
      }
    }
    std::unordered_set<std::string_view> seen;
    for (auto& s : d.spaces) {
      if (!seen.insert(s.name).second) {
        return duplicate(s.name);
      }
      std::unordered_map<uint32_t, MachineImage::PageImage*> have;
      for (auto& p : s.pages) {
        have.emplace(p.vaddr, &p);
      }
      std::unordered_map<uint32_t, MachineImage::PageImage*> older;
      auto pit = prev.find(s.name);
      if (pit != prev.end()) {
        for (auto& p : pit->second->pages) {
          older.emplace(p.vaddr, &p);
        }
      }
      std::vector<MachineImage::PageImage> full;
      full.reserve(s.resident.size());
      for (const auto& rp : s.resident) {
        auto hit = have.find(rp.vaddr);
        if (hit != have.end()) {
          full.push_back(std::move(*hit->second));
          have.erase(hit);
          continue;
        }
        auto bit = older.find(rp.vaddr);
        if (bit == older.end()) {
          *error = "delta chain missing page data for a resident page";
          return false;
        }
        full.push_back(std::move(*bit->second));
        full.back().prot = rp.prot;
        older.erase(bit);
      }
      s.pages = std::move(full);
    }
    d.base_generation = 0;
    d.parent_digest = 0;
  }
  *out = std::move(chain.back());
  return true;
}

}  // namespace fluke
