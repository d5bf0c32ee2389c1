#include "src/kern/trace_binary.h"

#include <cstring>

#include "src/api/abi.h"
#include "src/base/wire.h"
#include "src/kern/kernel.h"
#include "src/kern/trace_export.h"

namespace fluke {
namespace {

constexpr char kMagic[4] = {'F', 'B', 'T', '1'};
constexpr uint8_t kVersion = 1;
constexpr uint8_t kChunkStrings = 'S';
constexpr uint8_t kChunkEvents = 'E';
constexpr uint8_t kChunkMeta = 'M';

void PutVar(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

void PutStr(std::vector<uint8_t>* out, const std::string& s) {
  PutVar(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

// Bounds-checked little-endian / varint reader over a byte span.
struct ByteReader {
  const uint8_t* p;
  const uint8_t* end;

  bool U8(uint8_t* v) {
    if (p >= end) {
      return false;
    }
    *v = *p++;
    return true;
  }
  bool U32(uint32_t* v) {
    if (end - p < 4) {
      return false;
    }
    *v = wire::LoadLe32(p);
    p += 4;
    return true;
  }
  // Reads a group-varint field: `len` little-endian bytes (0..8).
  bool Field(unsigned len, uint64_t* v) {
    if (static_cast<size_t>(end - p) < len) {
      return false;
    }
    uint64_t out = 0;
    for (unsigned i = 0; i < len; ++i) {
      out |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    p += len;
    *v = out;
    return true;
  }
  bool Var(uint64_t* v) {
    uint64_t out = 0;
    int shift = 0;
    while (p < end && shift < 64) {
      const uint8_t b = *p++;
      out |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = out;
        return true;
      }
      shift += 7;
    }
    return false;
  }
  bool Str(std::string* s) {
    uint64_t len = 0;
    if (!Var(&len) || static_cast<uint64_t>(end - p) < len) {
      return false;
    }
    s->assign(reinterpret_cast<const char*>(p), len);
    p += len;
    return true;
  }
};

std::vector<uint8_t> BuildStringTable() {
  std::vector<uint8_t> payload;
  uint32_t n = 0;
  std::vector<std::pair<uint64_t, std::string>> entries;
  for (uint32_t k = 0; k <= static_cast<uint32_t>(TraceKind::kCkptSave); ++k) {
    entries.emplace_back(k, TraceKindName(static_cast<TraceKind>(k)));
  }
  for (uint32_t sys = 0; sys < kSysCount; ++sys) {
    entries.emplace_back(0x100 + sys, SysName(sys));
  }
  for (const auto& [id, name] : entries) {
    PutVar(&payload, id);
    PutStr(&payload, name);
    ++n;
  }
  (void)n;
  return payload;
}

}  // namespace

// --- Writer -----------------------------------------------------------------

TraceBinaryWriter::~TraceBinaryWriter() {
  if (f_ != nullptr) {
    std::fclose(f_);
  }
}

bool TraceBinaryWriter::Open(const std::string& path) {
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    return false;
  }
  uint8_t header[8] = {};
  std::memcpy(header, kMagic, 4);
  header[4] = kVersion;
  if (std::fwrite(header, 1, sizeof(header), f_) != sizeof(header)) {
    std::fclose(f_);
    f_ = nullptr;
    return false;
  }
  bytes_written_ += sizeof(header);
  const std::vector<uint8_t> strings = BuildStringTable();
  const uint32_t entries =
      static_cast<uint32_t>(TraceKind::kCkptSave) + 1 + static_cast<uint32_t>(kSysCount);
  WriteChunk(kChunkStrings, entries, strings.data(), strings.size());
  return true;
}

void TraceBinaryWriter::WriteChunk(uint8_t type, uint32_t count, const uint8_t* payload,
                                   size_t len) {
  if (f_ == nullptr) {
    return;
  }
  uint8_t head[13];
  head[0] = type;
  wire::StoreLe32(head + 1, count);
  wire::StoreLe32(head + 5, static_cast<uint32_t>(len));
  wire::StoreLe32(head + 9, wire::Crc32(payload, len));
  std::fwrite(head, 1, sizeof(head), f_);
  std::fwrite(payload, 1, len, f_);
  bytes_written_ += sizeof(head) + len;
  ++chunks_written_;
}

void TraceBinaryWriter::SealChunk() {
  if (buf_used_ == 0) {
    return;
  }
  WriteChunk(kChunkEvents, chunk_count_, buf_, buf_used_);
  buf_used_ = 0;
  chunk_count_ = 0;
  prev_when_ = 0;  // the next chunk's first event is absolute again
}

bool TraceBinaryWriter::Finish(Time end_ns, uint64_t total, uint64_t dropped,
                               const std::vector<std::pair<uint64_t, std::string>>& thread_names) {
  if (f_ == nullptr) {
    return false;
  }
  SealChunk();
  std::vector<uint8_t> meta;
  PutVar(&meta, end_ns);
  PutVar(&meta, total);
  PutVar(&meta, dropped);
  for (const auto& [tid, name] : thread_names) {
    PutVar(&meta, tid);
    PutStr(&meta, name);
  }
  WriteChunk(kChunkMeta, static_cast<uint32_t>(thread_names.size()), meta.data(), meta.size());
  const bool ok = std::fflush(f_) == 0 && std::ferror(f_) == 0;
  std::fclose(f_);
  f_ = nullptr;
  return ok;
}

// --- Reader -----------------------------------------------------------------

bool ReadTraceBinary(const std::string& path, TraceBinaryData* out, std::string* error) {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) {
      *error = why;
    }
    return false;
  };
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return fail("cannot open " + path);
  }
  std::vector<uint8_t> bytes;
  uint8_t tmp[64 * 1024];
  size_t n = 0;
  while ((n = std::fread(tmp, 1, sizeof(tmp), f)) > 0) {
    bytes.insert(bytes.end(), tmp, tmp + n);
  }
  std::fclose(f);

  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return fail("bad magic (not an FBT trace)");
  }
  if (bytes[4] != kVersion) {
    return fail("unsupported FBT version " + std::to_string(bytes[4]));
  }

  ByteReader r{bytes.data() + 8, bytes.data() + bytes.size()};
  size_t chunk_index = 0;
  while (r.p < r.end) {
    uint8_t type = 0;
    uint32_t count = 0, len = 0, crc = 0;
    if (!r.U8(&type) || !r.U32(&count) || !r.U32(&len) || !r.U32(&crc)) {
      return fail("truncated chunk header at chunk " + std::to_string(chunk_index));
    }
    if (static_cast<size_t>(r.end - r.p) < len) {
      return fail("truncated chunk payload at chunk " + std::to_string(chunk_index));
    }
    if (wire::Crc32(r.p, len) != crc) {
      return fail("CRC mismatch at chunk " + std::to_string(chunk_index));
    }
    ByteReader c{r.p, r.p + len};
    r.p += len;

    switch (type) {
      case kChunkStrings: {
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t id = 0;
          std::string name;
          if (!c.Var(&id) || !c.Str(&name)) {
            return fail("malformed string table");
          }
          out->strings[id] = std::move(name);
        }
        break;
      }
      case kChunkEvents: {
        Time prev = 0;
        out->events.reserve(out->events.size() + count);
        for (uint32_t i = 0; i < count; ++i) {
          uint8_t packed = 0, desc_lo = 0, desc_hi = 0;
          if (!c.U8(&packed) || !c.U8(&desc_lo) || !c.U8(&desc_hi)) {
            return fail("malformed event in chunk " + std::to_string(chunk_index));
          }
          const uint32_t desc = static_cast<uint32_t>(desc_lo) | static_cast<uint32_t>(desc_hi) << 8;
          uint64_t fields[5] = {};
          bool ok = true;
          for (int f = 0; f < 5; ++f) {
            const unsigned code = (desc >> (3 * f)) & 7u;
            ok = ok && c.Field(code == 7u ? 8u : code, &fields[f]);
          }
          if (!ok) {
            return fail("malformed event in chunk " + std::to_string(chunk_index));
          }
          const uint64_t dw = fields[0], tid = fields[1], span = fields[2], a = fields[3],
                         b = fields[4];
          TraceEvent e;
          e.when = prev + dw;
          prev = e.when;
          e.kind = static_cast<TraceKind>(packed & 0x1F);
          e.phase = static_cast<TracePhase>(packed >> 5);
          e.thread_id = tid;
          e.span_id = span;
          e.a = static_cast<uint32_t>(a);
          e.b = static_cast<uint32_t>(b);
          out->events.push_back(e);
        }
        break;
      }
      case kChunkMeta: {
        uint64_t end_ns = 0, total = 0, dropped = 0;
        if (!c.Var(&end_ns) || !c.Var(&total) || !c.Var(&dropped)) {
          return fail("malformed metadata trailer");
        }
        out->end_ns = end_ns;
        out->total_recorded = total;
        out->dropped = dropped;
        for (uint32_t i = 0; i < count; ++i) {
          uint64_t tid = 0;
          std::string name;
          if (!c.Var(&tid) || !c.Str(&name)) {
            return fail("malformed thread-name entry");
          }
          out->thread_names.emplace_back(tid, std::move(name));
        }
        out->has_trailer = true;
        break;
      }
      default:
        return fail("unknown chunk type " + std::to_string(type));
    }
    ++chunk_index;
  }
  if (!out->has_trailer) {
    return fail("missing metadata trailer (file truncated?)");
  }
  return true;
}

std::string ConvertToChromeJson(const TraceBinaryData& data) {
  return ExportChromeTrace(data.events, data.thread_names, data.dropped, data.end_ns);
}

bool WriteTraceBinarySnapshot(const std::string& path, const std::vector<TraceEvent>& events,
                              Time end_ns, uint64_t total, uint64_t dropped,
                              const std::vector<std::pair<uint64_t, std::string>>& thread_names) {
  TraceBinaryWriter w;
  if (!w.Open(path)) {
    return false;
  }
  for (const TraceEvent& e : events) {
    w.OnEvent(e);
  }
  return w.Finish(end_ns, total, dropped, thread_names);
}

std::vector<std::pair<uint64_t, std::string>> TraceThreadNames(const Kernel& k) {
  std::vector<std::pair<uint64_t, std::string>> names;
  for (const auto& t : k.threads()) {
    std::string name = t->program != nullptr ? t->program->name() : "thread";
    name += "#" + std::to_string(t->id());
    names.emplace_back(t->id(), std::move(name));
  }
  return names;
}

}  // namespace fluke
