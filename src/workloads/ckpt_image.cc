#include "src/workloads/ckpt_image.h"

#include <algorithm>

#include "src/base/wire.h"

namespace fluke {

namespace {

using wire::Reader;

template <class W>
void PutThreadState(W& w, const ThreadState& s) {
  uint32_t words[kThreadStateWords];
  ThreadStateToWords(s, words);
  for (uint32_t word : words) {
    w.U32(word);
  }
}

bool GetThreadState(Reader& r, ThreadState* s) {
  uint32_t words[kThreadStateWords];
  for (uint32_t& w : words) {
    if (!r.U32(&w)) {
      return false;
    }
  }
  ThreadStateFromWords(words, s);
  return true;
}

// Page data travels in chunks of this many pages, each followed by a CRC32
// over the chunk's serialized bytes. The whole-stream trailer already
// rejects any corruption; the per-chunk CRCs localize it, so a loader (or a
// future partial-fetch transport) can name the damaged extent.
constexpr uint32_t kPagesPerChunk = 64;

// The stream: header, metadata sections, then each space's pages in
// chunks, each chunk followed by its CRC, then the whole-stream CRC.
template <class W>
void EmitMachine(const MachineImage& img, W& w) {
  w.U32(kCkptMagic);
  w.U32(kCkptVersion3);
  w.U32(img.base_generation != 0 ? 1u : 0u);  // flags: bit0 = delta
  w.U32(img.generation);
  w.U32(img.base_generation);
  w.U64(img.parent_digest);
  w.U64(static_cast<uint64_t>(img.clock_ns));

  w.U32(static_cast<uint32_t>(img.spaces.size()));
  for (const auto& s : img.spaces) {
    w.Str(s.name);
    w.Str(s.program_name);
    w.U32(s.anon_base);
    w.U32(s.anon_size);
    w.U32(static_cast<uint32_t>(s.resident.size()));
    for (const auto& rp : s.resident) {
      w.U32(rp.vaddr);
      w.U32(rp.prot);
    }
    w.U32(static_cast<uint32_t>(s.objects.size()));
    for (const auto& o : s.objects) {
      w.U32(static_cast<uint32_t>(o.kind));
      w.U32(static_cast<uint32_t>(o.index));
      w.U32(o.mutex_locked ? 1 : 0);
      w.U32(static_cast<uint32_t>(o.mutex_owner_thread));
    }
  }

  w.U32(static_cast<uint32_t>(img.ports.size()));
  for (const auto& p : img.ports) {
    w.U32(p.badge);
    w.U32(static_cast<uint32_t>(p.kmsgs.size()));
    for (const auto& m : p.kmsgs) {
      for (uint32_t word : m.words) {
        w.U32(word);
      }
      w.U32(m.len);
      w.U32(m.badge);
    }
  }
  w.U32(static_cast<uint32_t>(img.portsets.size()));
  for (const auto& ps : img.portsets) {
    w.U32(static_cast<uint32_t>(ps.member_ports.size()));
    for (uint32_t key : ps.member_ports) {
      w.U32(key);
    }
  }

  w.U32(static_cast<uint32_t>(img.threads.size()));
  for (const auto& t : img.threads) {
    w.U32(t.space_index);
    PutThreadState(w, t.state);
    w.Str(t.program_name);
    w.U32(t.was_runnable ? 1 : 0);
    w.U32(static_cast<uint32_t>(t.ipc_peer));
    w.U32(t.ipc_is_server ? 1 : 0);
    w.U32(t.port_badge);
  }

  for (const auto& s : img.spaces) {
    w.U32(static_cast<uint32_t>(s.pages.size()));
    size_t chunk_start = w.size();
    uint32_t in_chunk = 0;
    for (size_t i = 0; i < s.pages.size(); ++i) {
      const auto& p = s.pages[i];
      w.U32(p.vaddr);
      w.U32(p.prot);
      w.Bytes(p.data.data(), p.data.size());
      if (++in_chunk == kPagesPerChunk || i + 1 == s.pages.size()) {
        w.Crc32Since(chunk_start);
        chunk_start = w.size();
        in_chunk = 0;
      }
    }
  }
  w.Crc32Since(0);
}

}  // namespace

uint64_t ImageDigest(const std::vector<uint8_t>& bytes) {
  return wire::Xxh64(bytes.data(), bytes.size());
}

std::vector<uint8_t> SerializeMachine(const MachineImage& img) {
  return wire::Encode([&img](auto& w) { EmitMachine(img, w); });
}

bool DeserializeImage(const std::vector<uint8_t>& bytes, MachineImage* out,
                      std::string* error) {
  *out = MachineImage{};
  Reader r(bytes, error);
  uint32_t magic = 0, version = 0, flags = 0;
  if (!r.U32(&magic) || !r.U32(&version)) {
    return false;
  }
  if (magic != kCkptMagic) {
    return r.Fail("bad magic");
  }
  if (version != kCkptVersion3) {
    return r.Fail("unsupported version");
  }
  if (!r.U32(&flags)) {
    return false;
  }
  if (flags > 1) {
    return r.Fail("bad flags");
  }
  uint64_t clock = 0;
  if (!r.U32(&out->generation) || !r.U32(&out->base_generation) ||
      !r.U64(&out->parent_digest) || !r.U64(&clock)) {
    return false;
  }
  out->clock_ns = static_cast<Time>(clock);
  const bool delta = out->base_generation != 0;
  if (delta != (flags == 1)) {
    return r.Fail("delta flag disagrees with base generation");
  }
  if (out->generation == 0 || (delta && out->base_generation >= out->generation)) {
    return r.Fail("bad generation numbers");
  }

  uint32_t n = 0;
  if (!r.U32(&n) || n > 4096) {
    return r.Fail("bad space count");
  }
  out->spaces.resize(n);
  for (auto& s : out->spaces) {
    if (!r.Str(&s.name) || !r.Str(&s.program_name) || !r.U32(&s.anon_base) ||
        !r.U32(&s.anon_size)) {
      return false;
    }
    if ((s.anon_base & kPageMask) != 0 || (s.anon_size & kPageMask) != 0) {
      return r.Fail("unaligned anonymous range");
    }
    if (!r.U32(&n) || n > (1u << 20)) {
      return r.Fail("bad resident count");
    }
    s.resident.resize(n);
    for (size_t i = 0; i < s.resident.size(); ++i) {
      auto& rp = s.resident[i];
      if (!r.U32(&rp.vaddr) || !r.U32(&rp.prot)) {
        return false;
      }
      if ((rp.vaddr & kPageMask) != 0) {
        return r.Fail("unaligned resident page address");
      }
      if (i > 0 && rp.vaddr <= s.resident[i - 1].vaddr) {
        return r.Fail("resident directory out of order");
      }
    }
    if (!r.U32(&n) || n > 100000) {
      return r.Fail("bad object count");
    }
    s.objects.resize(n);
    for (auto& o : s.objects) {
      uint32_t kind = 0, index = 0, locked = 0, owner = 0;
      if (!r.U32(&kind) || !r.U32(&index) || !r.U32(&locked) || !r.U32(&owner)) {
        return false;
      }
      if (kind > static_cast<uint32_t>(MachineImage::ObjKind::kPortset)) {
        return r.Fail("bad object kind");
      }
      o.kind = static_cast<MachineImage::ObjKind>(kind);
      o.index = static_cast<int>(index);
      o.mutex_locked = locked != 0;
      o.mutex_owner_thread = static_cast<int>(owner);
    }
  }

  if (!r.U32(&n) || n > 100000) {
    return r.Fail("bad port count");
  }
  out->ports.resize(n);
  for (auto& p : out->ports) {
    if (!r.U32(&p.badge)) {
      return false;
    }
    if (!r.U32(&n) || n > 100000) {
      return r.Fail("bad kmsg count");
    }
    p.kmsgs.resize(n);
    for (auto& m : p.kmsgs) {
      for (uint32_t& w : m.words) {
        if (!r.U32(&w)) {
          return false;
        }
      }
      if (!r.U32(&m.len) || !r.U32(&m.badge)) {
        return false;
      }
      if (m.len > 8) {
        return r.Fail("bad kmsg length");
      }
    }
  }
  if (!r.U32(&n) || n > 4096) {
    return r.Fail("bad portset count");
  }
  out->portsets.resize(n);
  for (auto& ps : out->portsets) {
    if (!r.U32(&n) || n > 100000) {
      return r.Fail("bad portset member count");
    }
    ps.member_ports.resize(n);
    for (uint32_t& key : ps.member_ports) {
      if (!r.U32(&key)) {
        return false;
      }
      if (key >= out->ports.size()) {
        return r.Fail("portset member out of range");
      }
    }
  }

  if (!r.U32(&n) || n > 100000) {
    return r.Fail("bad thread count");
  }
  out->threads.resize(n);
  for (auto& t : out->threads) {
    uint32_t runnable = 0, peer = 0, server = 0;
    if (!r.U32(&t.space_index) || !GetThreadState(r, &t.state) ||
        !r.Str(&t.program_name) || !r.U32(&runnable) || !r.U32(&peer) ||
        !r.U32(&server) || !r.U32(&t.port_badge)) {
      return false;
    }
    if (t.space_index >= out->spaces.size()) {
      return r.Fail("thread space index out of range");
    }
    t.was_runnable = runnable != 0;
    t.ipc_peer = static_cast<int>(peer);
    if (t.ipc_peer != -1 &&
        (t.ipc_peer < 0 || static_cast<size_t>(t.ipc_peer) >= out->threads.size())) {
      return r.Fail("ipc peer out of range");
    }
    t.ipc_is_server = server != 0;
  }

  for (auto& s : out->spaces) {
    if (!r.U32(&n) || n > (1u << 20)) {
      return r.Fail("bad page count");
    }
    s.pages.resize(n);
    size_t chunk_start = r.pos();
    uint32_t in_chunk = 0;
    for (size_t i = 0; i < s.pages.size(); ++i) {
      auto& p = s.pages[i];
      if (!r.U32(&p.vaddr) || !r.U32(&p.prot) || !r.Bytes(&p.data, kPageSize)) {
        return false;
      }
      if ((p.vaddr & kPageMask) != 0) {
        return r.Fail("unaligned page address");
      }
      if (i > 0 && p.vaddr <= s.pages[i - 1].vaddr) {
        return r.Fail("pages out of order");
      }
      if (++in_chunk == kPagesPerChunk || i + 1 == s.pages.size()) {
        const size_t chunk_end = r.pos();
        uint32_t crc_stored = 0;
        if (!r.U32(&crc_stored)) {
          return false;
        }
        if (wire::Crc32(bytes.data() + chunk_start, chunk_end - chunk_start) != crc_stored) {
          return r.Fail("page chunk checksum mismatch");
        }
        chunk_start = r.pos();
        in_chunk = 0;
      }
    }
  }

  const size_t payload_end = r.pos();
  uint32_t crc_stored = 0;
  if (!r.U32(&crc_stored)) {
    return false;
  }
  if (!r.AtEnd()) {
    return r.Fail("trailing bytes");
  }
  if (wire::Crc32(bytes.data(), payload_end) != crc_stored) {
    return r.Fail("checksum mismatch");
  }

  // Cross-checks the restorer relies on. RestoreMachine re-verifies with an
  // error return, but a well-formed stream never trips them.
  std::vector<bool> thread_claimed(out->threads.size(), false);
  for (size_t si = 0; si < out->spaces.size(); ++si) {
    const auto& s = out->spaces[si];
    // Every data page must be in the resident directory (the delta-merge
    // correctness condition), checked by merging the two sorted walks.
    size_t ri = 0;
    for (const auto& p : s.pages) {
      while (ri < s.resident.size() && s.resident[ri].vaddr < p.vaddr) {
        ++ri;
      }
      if (ri == s.resident.size() || s.resident[ri].vaddr != p.vaddr) {
        return r.Fail("data page missing from the resident directory");
      }
    }
    for (size_t i = 0; i < s.objects.size(); ++i) {
      const auto& o = s.objects[i];
      switch (o.kind) {
        case MachineImage::ObjKind::kSpaceSelf:
          if (i != 0) {
            return r.Fail("space-self outside slot 1");
          }
          break;
        case MachineImage::ObjKind::kThreadSelf:
          if (o.index < 0 || static_cast<size_t>(o.index) >= out->threads.size()) {
            return r.Fail("thread-self slot references a missing thread");
          }
          if (out->threads[static_cast<size_t>(o.index)].space_index != si) {
            return r.Fail("thread-self slot in the wrong space");
          }
          if (thread_claimed[static_cast<size_t>(o.index)]) {
            return r.Fail("two slots claim one thread");
          }
          thread_claimed[static_cast<size_t>(o.index)] = true;
          break;
        case MachineImage::ObjKind::kThreadRef:
          if (o.index < 0 || static_cast<size_t>(o.index) >= out->threads.size()) {
            return r.Fail("thread reference to a missing thread");
          }
          break;
        case MachineImage::ObjKind::kMutex:
          if (o.mutex_locked && o.mutex_owner_thread != -1 &&
              (o.mutex_owner_thread < 0 ||
               static_cast<size_t>(o.mutex_owner_thread) >= out->threads.size())) {
            return r.Fail("mutex owner out of range");
          }
          break;
        case MachineImage::ObjKind::kPort:
        case MachineImage::ObjKind::kPortRef:
          if (o.index < 0 || static_cast<size_t>(o.index) >= out->ports.size()) {
            return r.Fail("port index out of range");
          }
          break;
        case MachineImage::ObjKind::kPortset:
          if (o.index < 0 || static_cast<size_t>(o.index) >= out->portsets.size()) {
            return r.Fail("portset index out of range");
          }
          break;
        default:
          break;
      }
    }
    if (!s.objects.empty() && s.objects[0].kind != MachineImage::ObjKind::kSpaceSelf) {
      return r.Fail("slot 1 is not the space-self slot");
    }
  }
  if (std::find(thread_claimed.begin(), thread_claimed.end(), false) !=
      thread_claimed.end()) {
    return r.Fail("thread without a self slot");
  }
  return true;
}

}  // namespace fluke
